"""Exact desk-scale solvers: chromatic number, clique number, induced
cycles, antiholes, perfectness.

These are the ground truth against which the approximation algorithm and
the structural theorems are tested, so they stay independent of the rest
of the package: plain branch and bound over SimpleGraph adjacency sets.

* ``exact_chromatic``: saturation-order branch and bound seeded with a
  greedily-found clique (its vertices are pre-colored, which both lower
  bounds the answer and breaks color symmetry).
* ``exact_clique``: branch and bound with a greedy-coloring upper bound
  on each candidate set.
* ``find_induced_cycles``: DFS over induced paths anchored at their
  minimum vertex, reflection-killed by comparing the two neighbors of the
  anchor.  Cycles come out canonically rotated/reflected.

Every search counts nodes against a budget (default 10**7, overridable);
exhausting it raises BudgetExceeded carrying the bounds proven so far.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

from .core import SimpleGraph, complement
from .errors import BudgetExceeded

DEFAULT_BUDGET = 10_000_000


def _budget() -> int:
    env = os.environ.get("SQCHROMA_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


@dataclass(frozen=True)
class ExactStats:
    """Exact chromatic and clique numbers plus the search effort spent."""

    chi: int
    omega: int
    node_budget_used: int

    def __post_init__(self):
        if self.omega > self.chi:
            raise ValueError("omega cannot exceed chi")


class _Counter:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit

    def tick(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.limit


def greedy_clique(g: SimpleGraph) -> list[int]:
    """Maximal clique grown greedily from each vertex in degree order."""
    best: list[int] = []
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    for start in order[:g.n]:
        clique = [start]
        cands = set(g.adj[start])
        while cands:
            v = min(cands, key=lambda u: (-len(g.adj[u] & cands), u))
            clique.append(v)
            cands &= g.adj[v]
        if len(clique) > len(best):
            best = clique
    return best


def _dsatur_greedy(g: SimpleGraph) -> dict[int, int]:
    colors: dict[int, int] = {}
    sat: list[set[int]] = [set() for _ in range(g.n)]
    for _ in range(g.n):
        v = max(
            (u for u in range(g.n) if u not in colors),
            key=lambda u: (len(sat[u]), len(g.adj[u]), -u),
        )
        c = 1
        while c in sat[v]:
            c += 1
        colors[v] = c
        for w in g.adj[v]:
            sat[w].add(c)
    return colors


def exact_chromatic(h: SimpleGraph, budget: int | None = None) -> int:
    stats = exact_stats(h, budget)
    return stats.chi


def exact_stats(h: SimpleGraph, budget: int | None = None) -> ExactStats:
    """Exact chi and omega in one call (omega seeds the chi search)."""
    if h.n == 0:
        return ExactStats(0, 0, 0)
    counter = _Counter(budget if budget is not None else _budget())
    # one greedy clique seeds both searches
    clique = greedy_clique(h)
    omega = _max_clique(h, counter, len(clique))
    chi = _chromatic(h, omega, counter, clique)
    return ExactStats(chi, omega, counter.nodes)


def exact_clique(h: SimpleGraph, budget: int | None = None,
                 initial: list[int] | None = None) -> int:
    """Exact maximum clique size; ``initial`` may seed the search with a
    known clique (its size is taken on faith as a lower bound)."""
    if h.n == 0:
        return 0
    best = len(greedy_clique(h))
    if initial is not None:
        for i, u in enumerate(initial):
            for v in initial[i + 1:]:
                if v not in h.adj[u]:
                    raise ValueError("initial vertex set is not a clique")
        best = max(best, len(initial))
    counter = _Counter(budget if budget is not None else _budget())
    return _max_clique(h, counter, best)


def _color_bound(g: SimpleGraph, cands: list[int]) -> list[tuple[int, int]]:
    """Greedy coloring of the candidate set; returns (vertex, color) with
    colors non-decreasing.  The color is an upper bound on the clique a
    branch through that vertex can still reach."""
    classes: list[list[int]] = []
    for v in cands:
        for cls in classes:
            if all(v not in g.adj[u] for u in cls):
                cls.append(v)
                break
        else:
            classes.append([v])
    out = []
    for i, cls in enumerate(classes, start=1):
        out.extend((v, i) for v in cls)
    return out


def _max_clique(g: SimpleGraph, counter: _Counter, best: int) -> int:
    """Branch and bound from a known clique of size ``best``."""

    def expand(cands: list[int], size: int):
        nonlocal best
        if not counter.tick():
            raise BudgetExceeded(
                "clique search exceeded its node budget",
                lower=best, upper=None, nodes=counter.nodes,
            )
        colored = _color_bound(g, cands)
        for i in range(len(colored) - 1, -1, -1):
            v, bound = colored[i]
            if size + bound <= best:
                return
            if size + 1 > best:
                best = size + 1
            nxt = [u for u, _ in colored[:i] if u in g.adj[v]]
            if nxt:
                expand(nxt, size + 1)

    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    expand(order, 0)
    return best


def _chromatic(g: SimpleGraph, omega: int, counter: _Counter,
               clique: list[int]) -> int:
    """``clique`` is ``greedy_clique(g)``; its vertices are pre-colored."""
    if g.m == 0:
        return 1 if g.n else 0
    lower = max(omega, len(clique))
    greedy = _dsatur_greedy(g)
    best = max(greedy.values())
    if lower >= best:
        return best

    sat: list[set[int]] = [set() for _ in range(g.n)]
    for c, v in enumerate(clique, start=1):
        for w in g.adj[v]:
            sat[w].add(c)
    precolored = set(clique)
    uncolored = [v for v in range(g.n) if v not in precolored]

    def rec(used: int) -> None:
        nonlocal best
        if not counter.tick():
            raise BudgetExceeded(
                "chromatic search exceeded its node budget",
                lower=lower, upper=best, nodes=counter.nodes,
            )
        if not uncolored:
            if used < best:
                best = used
            return
        v = max(uncolored, key=lambda u: (len(sat[u]), len(g.adj[u]), -u))
        uncolored.remove(v)
        cap = min(best - 1, used + 1)
        for c in range(1, cap + 1):
            if c in sat[v]:
                continue
            touched = [w for w in g.adj[v] if c not in sat[w]]
            for w in touched:
                sat[w].add(c)
            rec(max(used, c))
            for w in touched:
                sat[w].discard(c)
            if best <= lower:
                break
        uncolored.append(v)

    rec(len(clique))
    return best


# ---------------------------------------------------------------------------
# Induced cycles, antiholes, perfectness


def iter_induced_cycles(h: SimpleGraph, min_len: int,
                        max_len: int) -> Iterator[tuple[int, ...]]:
    """Induced (chordless) cycles with min_len <= length <= max_len, each
    yielded once in canonical form: anchored at its minimum vertex, second
    entry smaller than last."""
    if max_len < max(min_len, 3):
        return
    adj = h.adj

    def extend(path: list[int], on_path: set[int]) -> Iterator[tuple[int, ...]]:
        s = path[0]
        last = path[-1]
        for w in sorted(adj[last]):
            if w <= s or w in on_path:
                continue
            # chordlessness: w may touch only the path's last vertex,
            # except for the anchor when closing the cycle
            if any(u in adj[w] for u in path[1:-1]):
                continue
            if len(path) >= 2 and s in adj[w]:
                length = len(path) + 1
                if length >= min_len and path[1] < w:
                    yield tuple(path) + (w,)
                continue  # any extension past w would leave a chord to s
            if len(path) + 1 < max_len:
                path.append(w)
                on_path.add(w)
                yield from extend(path, on_path)
                on_path.remove(w)
                path.pop()

    for s in range(h.n):
        yield from extend([s], {s})


def find_induced_cycles(h: SimpleGraph, min_len: int,
                        max_len: int) -> list[tuple[int, ...]]:
    return sorted(iter_induced_cycles(h, min_len, max_len))


def has_odd_hole(h: SimpleGraph, min_len: int = 5) -> bool:
    return any(
        len(c) % 2 == 1 for c in iter_induced_cycles(h, min_len, h.n)
    )


def has_odd_antihole_gt5(h: SimpleGraph) -> bool:
    """Odd antihole of length at least seven (as hole search in the
    complement; a length-five antihole is just C5 and is excluded)."""
    return any(
        len(c) % 2 == 1
        for c in iter_induced_cycles(complement(h), 7, h.n)
    )


def is_perfect_small(h: SimpleGraph) -> bool:
    """Strong-perfect-graph check by enumeration: no odd hole of length
    at least five and no odd antihole of length at least five (the
    length-five antihole case is covered by the hole search)."""
    return not has_odd_hole(h, 5) and not has_odd_antihole_gt5(h)
