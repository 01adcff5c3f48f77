"""Seeded inputs for the benchmark workloads, built without sqchroma.

Every instance is a bipartite graph given by its A-rows (sorted B-index
lists).  Convex instances are convex under the identity B-order; the
benchmark checks that property itself (``identity_order_convex``) instead
of trusting this module.  The program under test only ever sees the text
files that ``write_instance`` produces.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from itertools import permutations


@dataclass(frozen=True)
class Instance:
    """One input graph plus what the benchmark knows about it by
    construction.  ``family`` selects the checks that apply."""

    name: str
    family: str          # random_convex | gadget | lower_bound_h | complete | biconvex
    n_a: int
    n_b: int
    rows: tuple[tuple[int, ...], ...]
    params: dict = field(default_factory=dict, compare=False)  # q of H(q), n of K(n,n)

    @property
    def convex(self) -> bool:
        return self.family != "gadget"


# ---------------------------------------------------------------------------
# families


def random_convex(name: str, rng: random.Random, n: int, len_lo: int,
                  len_hi: int) -> Instance:
    """n A-vertices over n B-positions; each A-row is the interval of a
    uniform length in [len_lo, len_hi] at a uniform offset."""
    rows = []
    for _ in range(n):
        length = rng.randint(len_lo, min(len_hi, n))
        left = rng.randint(0, n - length)
        rows.append(tuple(range(left, left + length)))
    return Instance(name, "random_convex", n, n, tuple(rows))


# Rows {x,y}, {y,z}, {y,w}: y would need three neighbours in a line.
TUCKER_ROWS = ((0, 1), (1, 2), (1, 3))
TUCKER_COLS = 4


def with_tucker_gadget(base: Instance) -> Instance:
    """``base`` plus a disjoint Tucker gadget on three fresh A-vertices and
    four fresh B-vertices; the result has no convex B-order."""
    off = base.n_b
    rows = base.rows + tuple(tuple(off + c for c in r) for r in TUCKER_ROWS)
    return Instance(base.name + "+tucker", "gadget", base.n_a + len(TUCKER_ROWS),
                    base.n_b + TUCKER_COLS, rows)


def lower_bound_h(q: int) -> Instance:
    """H(q) from the paper's lower-bound construction, even q >= 2.

    B-order: Q2 (q) < z2 < z3 < Q3 (q).  A: z1 sees all of B; Q1 sees
    Q2 and z2; Q5 sees z2 and z3; Q4 sees z3 and Q3.  omega(H^2) = 2q+3,
    chi(H^2) = 5q/2 + 2.
    """
    if q < 2 or q % 2:
        raise ValueError("q must be even and >= 2")
    z2, z3 = q, q + 1
    n_b = 2 * q + 2
    rows = [tuple(range(n_b))]                           # z1
    rows += [tuple(range(q)) + (z2,)] * q                # Q1
    rows += [(z2, z3)] * q                               # Q5
    rows += [(z3,) + tuple(range(q + 2, n_b))] * q       # Q4
    return Instance(f"H({q})", "lower_bound_h", len(rows), n_b, tuple(rows),
                    {"q": q})


def complete(n: int) -> Instance:
    return Instance(f"K({n},{n})", "complete", n, n,
                    tuple(tuple(range(n)) for _ in range(n)), {"n": n})


def random_biconvex(name: str, rng: random.Random, n: int,
                    width: int) -> Instance:
    """Staircase: left and right ends both non-decreasing along A, so each
    B-column is also a run of consecutive A-rows.  Rows span at most
    ``width`` + 1 columns."""
    lefts = sorted(rng.randint(0, n - 1) for _ in range(n))
    rows = []
    right = 0
    for left in lefts:
        right = max(right, rng.randint(left, min(n - 1, left + width)))
        rows.append(tuple(range(left, right + 1)))
    return Instance(name, "biconvex", n, n, tuple(rows))


# ---------------------------------------------------------------------------
# workloads

SPARSE_LADDER = (80, 95, 110, 125)
SPARSE_LEN = (8, 12)
SPARSE_PER_RUNG = 12         # every fourth instance carries the gadget
DENSE_SIDE = 32
DENSE_LEN = (13, 19)
DENSE_RANDOM = 32
DENSE_Q = (10, 12, 14, 16)
ORACLE_COMPLETE = (3, 5, 8)
ORACLE_BICONVEX = ((10, 2), (15, 1), (20, 1), (25, 1)) * 4   # (side, width)
ORACLE_CONVEX = ((8, 3), (10, 3), (12, 3), (14, 3)) * 5      # (side, top length)


def convex_sparse(seed: int) -> list[Instance]:
    rng = random.Random(f"convex-sparse:{seed}")
    out = []
    for n in SPARSE_LADDER:
        for k in range(SPARSE_PER_RUNG):
            g = random_convex(f"sparse-n{n}-{k}", rng, n, *SPARSE_LEN)
            out.append(with_tucker_gadget(g) if k % 4 == 0 else g)
    return out


def convex_dense(seed: int) -> list[Instance]:
    rng = random.Random(f"convex-dense:{seed}")
    out = [random_convex(f"dense-n{DENSE_SIDE}-{k}", rng, DENSE_SIDE, *DENSE_LEN)
           for k in range(DENSE_RANDOM)]
    out += [lower_bound_h(q) for q in DENSE_Q]
    return out


def oracle_exact(seed: int) -> list[Instance]:
    rng = random.Random(f"oracle-exact:{seed}")
    out = [lower_bound_h(2), lower_bound_h(4)]
    out += [complete(n) for n in ORACLE_COMPLETE]
    out += [random_biconvex(f"biconvex-n{n}-{k}", rng, n, w)
            for k, (n, w) in enumerate(ORACLE_BICONVEX)]
    out += [random_convex(f"convex-n{n}-{k}", rng, n, 1, top)
            for k, (n, top) in enumerate(ORACLE_CONVEX)]
    return out


WORKLOADS = {
    "convex-sparse": convex_sparse,
    "convex-dense": convex_dense,
    "oracle-exact": oracle_exact,
}


# ---------------------------------------------------------------------------
# text format and independent construction checks


def to_text(inst: Instance) -> str:
    m = sum(len(r) for r in inst.rows)
    lines = [f"c {inst.name}", f"p bip {inst.n_a} {inst.n_b} {m}"]
    lines += [f"e {a} {b}" for a, row in enumerate(inst.rows) for b in row]
    return "\n".join(lines) + "\n"


def write_instances(instances: list[Instance], directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, inst in enumerate(instances):
        path = os.path.join(directory, f"{i:03d}.bip")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_text(inst))
        paths.append(path)
    return paths


def consecutive(row) -> bool:
    return not row or row[-1] - row[0] + 1 == len(row)


def identity_order_convex(inst: Instance) -> bool:
    """Every A-row is a run of consecutive B-indices (rows are sorted)."""
    return all(consecutive(r) for r in inst.rows)


def identity_order_biconvex(inst: Instance) -> bool:
    cols: list[list[int]] = [[] for _ in range(inst.n_b)]
    for a, row in enumerate(inst.rows):
        for b in row:
            cols[b].append(a)
    return identity_order_convex(inst) and all(consecutive(c) for c in cols)


def tucker_gadget_non_convex() -> bool:
    """No order of the gadget's four columns makes its three rows
    consecutive; a disjoint copy therefore blocks every B-order."""
    for perm in permutations(range(TUCKER_COLS)):
        pos = {c: i for i, c in enumerate(perm)}
        if all(consecutive(sorted(pos[c] for c in r)) for r in TUCKER_ROWS):
            return False
    return True
