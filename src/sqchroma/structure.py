"""Executable checks of the structural theorems about holes in squares of
convex bipartite graphs, and the partite-testability statements.

Vertices are addressed by square-global index throughout (A-vertex a is
``a``, B-vertex b is ``n_a + b``); cycles are the canonical tuples
produced by ``oracle.find_induced_cycles`` on ``square(g)``.

The central object is the decomposition every induced cycle of length
k >= 4 must admit:

  P1  a labeling (v_1, ..., v_k) whose prefix (v_1, ..., v_{k-2}) is an
      induced path inside A whose first/last vertices privately own the
      two B-vertices v_k and v_{k-1};
  P2  interior private neighbors b_1 < ... < b_{k-3} strictly between
      v_k and v_{k-1} in the B-order, each seeing exactly one path edge,
      with the path increasing under <_A;
  P3  one A-vertex adjacent (in g) to the whole B-run from v_k to
      v_{k-1}.

``verify_cycle_structure`` searches the 2k rotations/reflections for the
P1 labeling and then checks P2 and P3; on a valid convex input a failure
is impossible, so it raises AlgorithmInvariantViolation rather than
returning a falsified report.

Every check reads ``square(g)``, which is built once per graph and then
cached on it, so checking each of a graph's cycles builds one square.  A
caller that has already enumerated the cycles, as the ``structure``
command does, passes them to ``spectrum_contiguous``, the rule
``cycle_spectrum_check`` applies after its own enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .convexity import ConvexLayout, recognize_biconvex
from .core import BipartiteGraph, SimpleGraph, half_square, square
from .errors import AlgorithmInvariantViolation, NotInducedCycle
from .oracle import find_induced_cycles, has_odd_antihole_gt5, is_perfect_small


@dataclass(frozen=True)
class StructureReport:
    """Decomposition certifying the cycle-structure theorem for one cycle."""

    cycle: tuple[int, ...]
    a_path: tuple[int, ...]
    b_end_low: int          # v_k, <_B-smaller cycle B-vertex (global index)
    b_end_high: int         # v_{k-1}
    private_bs: tuple[int, ...]
    common_a: int
    p1_ok: bool
    p2_ok: bool
    p3_ok: bool

    @property
    def ok(self) -> bool:
        return self.p1_ok and self.p2_ok and self.p3_ok


def _check_induced_cycle(sq: SimpleGraph, cycle: Sequence[int]) -> None:
    k = len(cycle)
    if k < 4:
        raise NotInducedCycle(f"cycle length {k} below four")
    if len(set(cycle)) != k:
        raise NotInducedCycle("repeated vertex in cycle")
    for i, u in enumerate(cycle):
        for j in range(i + 1, k):
            v = cycle[j]
            adjacent = sq.has_edge(u, v)
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                raise NotInducedCycle(
                    f"pair ({u}, {v}) {'chord' if adjacent else 'gap'} "
                    "contradicts an induced cycle"
                )


def is_AB_path(g: BipartiteGraph, layout: ConvexLayout,
               path: Sequence[int], b: int, b_prime: int) -> bool:
    """Is ``path`` an induced path inside A (square-global indices) whose
    first vertex privately owns B-vertex ``b`` and last vertex privately
    owns ``b_prime``?

    Also verifies the ordering consequences (the private neighbor of the
    <_A-smaller endpoint is <_B-smaller, and that endpoint is <_A-minimal
    on the path); for convex inputs these follow from the definition.
    """
    k = len(path)
    n_a = g.n_a
    if k < 2 or b == b_prime:
        return False
    if any(v >= n_a for v in path) or len(set(path)) != k:
        return False
    if not (n_a <= b < n_a + g.n_b and n_a <= b_prime < n_a + g.n_b):
        return False
    sq = square(g)
    for i in range(k):
        for j in range(i + 1, k):
            if sq.has_edge(path[i], path[j]) != (j - i == 1):
                return False
    bb, bp = b - n_a, b_prime - n_a
    if bb not in g.adj[path[0]] or any(bb in g.adj[v] for v in path[1:]):
        return False
    if bp not in g.adj[path[-1]] or any(bp in g.adj[v] for v in path[:-1]):
        return False
    rank = layout.a_rank
    pos = layout.b_pos
    if rank[path[0]] < rank[path[-1]]:
        lo, hi, first = bb, bp, path[0]
    else:
        lo, hi, first = bp, bb, path[-1]
    if pos[lo] >= pos[hi]:
        return False
    if any(rank[v] < rank[first] for v in path):
        return False
    return True


def verify_cycle_structure(g: BipartiteGraph, layout: ConvexLayout,
                           cycle: Sequence[int]) -> StructureReport:
    """Find the P1 labeling of an induced cycle in square(g) and verify
    P2 and P3 against it.  Raises NotInducedCycle on a bad input cycle
    and AlgorithmInvariantViolation if no labeling satisfies the theorem
    (impossible for convex inputs unless the implementation is wrong)."""
    sq = square(g)
    _check_induced_cycle(sq, cycle)
    k = len(cycle)
    n_a = g.n_a
    pos = layout.b_pos
    rank = layout.a_rank

    rotations = []
    cyc = list(cycle)
    for start in range(k):
        rot = cyc[start:] + cyc[:start]
        rotations.append(rot)
        rotations.append([rot[0]] + rot[1:][::-1])

    for lab in rotations:
        a_path = lab[: k - 2]
        v_k1, v_k = lab[k - 2], lab[k - 1]
        if v_k < n_a or v_k1 < n_a:
            continue
        if not is_AB_path(g, layout, a_path, v_k, v_k1):
            continue
        report = _verify_p2_p3(g, layout, lab, a_path, v_k, v_k1)
        if report is not None:
            return report
    raise AlgorithmInvariantViolation(
        f"no labeling of cycle {tuple(cycle)} satisfies the structure "
        "theorem; the input should make this impossible"
    )


def _verify_p2_p3(g: BipartiteGraph, layout: ConvexLayout, lab: list[int],
                  a_path: list[int], v_k: int, v_k1: int) -> StructureReport | None:
    n_a = g.n_a
    pos = layout.b_pos
    rank = layout.a_rank
    k = len(lab)
    path_set = set(a_path)
    if any(rank[u] >= rank[v] for u, v in zip(a_path, a_path[1:])):
        return None
    lo_pos, hi_pos = pos[v_k - n_a], pos[v_k1 - n_a]
    if lo_pos >= hi_pos:
        return None
    private: list[int] = []
    prev_pos = lo_pos
    ok = True
    for i in range(k - 3):
        vi, vi1 = a_path[i], a_path[i + 1]
        witnesses = [
            b for b in g.adj[vi]
            if b in set(g.adj[vi1])
            and prev_pos < pos[b] < hi_pos
            and {a for a in path_set if b in g.adj[a]} == {vi, vi1}
        ]
        if not witnesses:
            ok = False
            break
        b = min(witnesses, key=lambda bb: pos[bb])
        private.append(n_a + b)
        prev_pos = pos[b]
    if not ok:
        return None
    run = [v_k - n_a] + [b - n_a for b in private] + [v_k1 - n_a]
    common = [
        a for a in range(n_a) if all(b in set(g.adj[a]) for b in run)
    ]
    if not common:
        return None
    return StructureReport(
        cycle=tuple(lab),
        a_path=tuple(a_path),
        b_end_low=v_k,
        b_end_high=v_k1,
        private_bs=tuple(private),
        common_a=min(common),
        p1_ok=True,
        p2_ok=True,
        p3_ok=True,
    )


def check_partite_count(g: BipartiteGraph, layout: ConvexLayout,
                        cycle: Sequence[int]) -> bool:
    """Exactly two cycle vertices on the consecutively-ordered side B."""
    _check_induced_cycle(square(g), cycle)
    return sum(1 for v in cycle if v >= g.n_a) == 2


def interior_emptiness(g: BipartiteGraph, layout: ConvexLayout,
                       report: StructureReport) -> bool:
    """No cycle vertex lies strictly between the two B-endpoints of the
    cycle in the B-order."""
    pos = layout.b_pos
    n_a = g.n_a
    lo = pos[report.b_end_low - n_a]
    hi = pos[report.b_end_high - n_a]
    return not any(
        v >= n_a and lo < pos[v - n_a] < hi for v in report.cycle
    )


def spectrum_contiguous(cycles: Iterable[Sequence[int]]) -> bool:
    """The lengths of ``cycles`` (induced cycles of length >= 4) form a
    contiguous range starting at four, or there are no cycles at all."""
    lengths = sorted({len(c) for c in cycles})
    return lengths == list(range(4, 4 + len(lengths)))


def cycle_spectrum_check(g: BipartiteGraph, layout: ConvexLayout) -> bool:
    """Induced-cycle lengths >= 4 of square(g) form a contiguous range
    starting at four (or no such cycles exist at all)."""
    sq = square(g)
    return spectrum_contiguous(find_induced_cycles(sq, 4, sq.n))


def partite_testable_antihole_check(g: BipartiteGraph) -> bool:
    """The odd-antihole implication: if neither half square has an odd
    antihole of length above five, neither does the square."""
    if has_odd_antihole_gt5(half_square(g, "A")):
        return True
    if has_odd_antihole_gt5(half_square(g, "B")):
        return True
    return not has_odd_antihole_gt5(square(g))


@dataclass(frozen=True)
class PerfectnessReport:
    """Outcome of the three perfectness implications on one graph."""

    c5_free: bool
    perfect: bool
    c4_free: bool
    chordal: bool
    biconvex: bool
    c5_implies_perfect_ok: bool
    c4_implies_chordal_ok: bool
    biconvex_implies_perfect_ok: bool

    @property
    def ok(self) -> bool:
        return (self.c5_implies_perfect_ok and self.c4_implies_chordal_ok
                and self.biconvex_implies_perfect_ok)


def perfectness_partite_tests(g: BipartiteGraph) -> PerfectnessReport:
    """Evaluate on square(g): C5-free => perfect, C4-free => chordal,
    biconvex => (C5-free and perfect)."""
    sq = square(g)
    c4 = bool(find_induced_cycles(sq, 4, 4))
    c5 = bool(find_induced_cycles(sq, 5, 5))
    chordal = not find_induced_cycles(sq, 4, sq.n)
    perfect = is_perfect_small(sq)
    biconvex = recognize_biconvex(g) is not None
    return PerfectnessReport(
        c5_free=not c5,
        perfect=perfect,
        c4_free=not c4,
        chordal=chordal,
        biconvex=biconvex,
        c5_implies_perfect_ok=c5 or perfect,
        c4_implies_chordal_ok=c4 or chordal,
        biconvex_implies_perfect_ok=not biconvex or (not c5 and perfect),
    )


def cycle_meets_both_sides(g: BipartiteGraph, layout: ConvexLayout,
                           cycle: Sequence[int]) -> bool:
    """The cycle meets A and B, and of the two cycle-neighbors of its
    <_A-least A-vertex exactly one lies in A."""
    n_a = g.n_a
    a_members = [v for v in cycle if v < n_a]
    b_members = [v for v in cycle if v >= n_a]
    if not a_members or not b_members:
        return False
    rank = layout.a_rank
    i = min(range(len(cycle)),
            key=lambda idx: rank[cycle[idx]] if cycle[idx] < n_a else len(rank))
    k = len(cycle)
    left, right = cycle[(i - 1) % k], cycle[(i + 1) % k]
    return (left < n_a) != (right < n_a)
