"""Exact desk-scale solvers: chromatic number, clique number, induced
cycles, antiholes, perfectness.

These are the ground truth against which the approximation algorithm and
the structural theorems are tested, so they stay independent of the rest
of the package: branch and bound and enumeration over SimpleGraph
adjacency, read as sets or as the neighbor bitmasks that
``SimpleGraph.bits`` builds once per graph.  ``core``, the graph model,
is all they share with the pipeline, its ``inverse`` and ``bitmask``
too, and ``_decimal``, the format's integer rule, which reads
SQCHROMA_BUDGET.  The chromatic search and the cycle enumeration run
from explicit stacks.  The clique search recurses once per vertex of the
clique it grows (its nested ``expand``), so it goes at most omega + 1
calls deep, where omega is the clique number; no other depth grows with
the input.

* ``greedy_clique``: the seed of both searches.  A clique is grown from
  each vertex in degree order, adding the candidate with the most
  neighbors among the candidates (one AND and one popcount of bitmasks
  each), and the starts stop once none can beat the best clique: a start
  of degree d gives at most d + 1 vertices.
* ``exact_chromatic``: saturation-order branch and bound seeded with a
  greedily-found clique (its vertices are pre-colored, which both lower
  bounds the answer and breaks color symmetry) and bounded from above by
  a DSATUR coloring, whose saturations are color masks.  The search runs
  from an explicit stack, and each node does a fixed number of big-int
  operations: the vertices are numbered by rank of (degree, -index), the
  saturation counts are kept as bit-sliced planes that pick the next
  vertex, the vertices with a neighbor of each color sit in one int at a
  stride of n bits per color, and backtracking restores the saved ints.
  It visits the same nodes, in the same order, as the recursive search
  over per-vertex saturation sets kept in the tests as its reference, so
  node counts are unchanged.
* ``exact_clique``: branch and bound with a greedy-coloring upper bound
  on each candidate set, colored on one neighbour bitmask per color class
  (the classes and their order are those of the quadratic coloring kept
  in the tests as its reference).
* ``find_induced_cycles``: DFS over induced paths anchored at their
  minimum vertex, reflection-killed by comparing the two neighbors of the
  anchor, run from an explicit stack that holds one int per path vertex:
  the bitmask of the candidates it has not tried yet.  A path is not
  entered once no vertex is left that could close a cycle through it,
  so a long cycle costs quadratic, not cubic, time, and the masks take
  about n^2 bits on a path of n vertices.  Cycles come out canonically
  rotated/reflected, in the order of the unpruned walk over sorted
  neighbor sets kept in the tests as its reference.

Every search counts nodes against a budget (default 10**7, overridable
by argument or by SQCHROMA_BUDGET, a decimal integer as the text format
writes one); exhausting it raises BudgetExceeded carrying the bounds
proven so far.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterator, Sequence

from .core import SimpleGraph, _decimal, bitmask, complement, inverse
from .errors import BudgetExceeded

DEFAULT_BUDGET = 10_000_000


def _budget() -> int:
    """The node budget SQCHROMA_BUDGET gives, read as the text format reads
    an integer, or DEFAULT_BUDGET when it is unset or empty.  A negative
    value is refused, as ``--budget`` refuses one."""
    env = os.environ.get("SQCHROMA_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        budget = _decimal(env)
    except ValueError:
        raise ValueError("SQCHROMA_BUDGET must be a decimal integer, "
                         f"got {env!r}") from None
    if budget < 0:
        raise ValueError(f"SQCHROMA_BUDGET must be 0 or more, got {env!r}")
    return budget


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
    """A maximal clique: the largest of those grown from each vertex in
    degree order (highest first, lowest index on ties), the first found
    on ties.

    A start of degree d grows a clique of at most d + 1 vertices, and the
    starts come in non-increasing degree, so once d + 1 is at most the
    size of the best clique so far no later start can give a strictly
    larger one, and the growth stops there.  The result is the one every
    start would give.
    """
    bits = g.bits
    best: list[int] = []
    for start in sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v)):
        if len(g.adj[start]) + 1 <= len(best):
            break
        clique = _grow_clique(bits, start)
        if len(clique) > len(best):
            best = clique
    return best


def _grow_clique(bits: tuple[int, ...], start: int) -> list[int]:
    """The clique grown from ``start``: the next vertex is the candidate
    with the most neighbors among the candidates, the lowest index on
    ties, and the candidates are the common neighbors of the clique.
    ``bits[v]`` is the neighbor bitmask of ``v``."""
    clique = [start]
    cands = bits[start]
    while cands:
        rest, most = cands, -1
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            k = (bits[u] & cands).bit_count()
            if k > most:
                v, most = u, k
        clique.append(v)
        cands &= bits[v]
    return clique


def _dsatur_greedy(g: SimpleGraph) -> dict[int, int]:
    """Greedy coloring in saturation order: the next vertex is the
    uncolored one with the most distinct neighbor colors, then the highest
    degree, then the lowest index, and it takes the lowest color no
    neighbor holds.

    A vertex's saturation is a color mask: bit c is set when a neighbor
    holds color c, so the lowest free color is the lowest bit above bit 0
    that is clear.  A lazy max-heap keyed ``(saturation, degree, -u)``,
    stored negated, gets a new entry whenever a saturation grows.
    Saturations only grow, so a vertex's current entry pops before its
    stale ones; stale entries and those of colored vertices are skipped.
    O((n + m) log n).
    """
    colors: dict[int, int] = {}
    sat = [1] * g.n  # bit 0 stands for no color, so it is always set
    heap = [(0, -len(nbrs), u) for u, nbrs in enumerate(g.adj)]
    heapify(heap)
    while heap:
        s, _, v = heappop(heap)
        if v in colors or 1 - s != sat[v].bit_count():
            continue
        low = ~sat[v] & sat[v] + 1
        colors[v] = low.bit_length() - 1
        for w in g.adj[v]:
            if w not in colors and not sat[w] & low:
                sat[w] |= low
                heappush(heap, (1 - sat[w].bit_count(), -len(g.adj[w]), w))
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


def exact_clique(h: SimpleGraph, budget: int | None = None) -> int:
    """Exact maximum clique size, searched from a greedy clique."""
    if h.n == 0:
        return 0
    counter = _Counter(budget if budget is not None else _budget())
    return _max_clique(h, counter, len(greedy_clique(h)))


def _color_bound(bits: Sequence[int],
                 cands: list[int]) -> list[tuple[int, int]]:
    """Greedy coloring of the candidate set; returns (vertex, color) with
    colors non-decreasing.  The color is an upper bound on the clique a
    branch through that vertex can still reach.

    ``bits[v]`` is the neighbour bitmask of ``v``.  Each class keeps the
    bitmask of the vertices with a neighbour in it, so a candidate joins
    the first class whose mask lacks it."""
    classes: list[list[int]] = []
    masks: list[int] = []
    for v in cands:
        for k, mask in enumerate(masks):
            if not mask >> v & 1:
                classes[k].append(v)
                masks[k] = mask | bits[v]
                break
        else:
            classes.append([v])
            masks.append(bits[v])
    out = []
    for i, cls in enumerate(classes, start=1):
        out.extend((v, i) for v in cls)
    return out


def _max_clique(g: SimpleGraph, counter: _Counter, best: int) -> int:
    """Branch and bound from a known clique of size ``best``."""
    bits = g.bits

    def expand(cands: list[int], size: int):
        nonlocal best
        if not counter.tick():
            raise BudgetExceeded(
                "clique search exceeded its node budget",
                lower=best, upper=None, nodes=counter.nodes,
            )
        colored = _color_bound(bits, cands)
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
    """``clique`` is ``greedy_clique(g)``; its vertices are pre-colored.

    Each node colors the uncolored vertex of greatest (saturation, degree,
    -index) with every color from 1 up to ``min(best - 1, used + 1)`` that
    no neighbor holds, fixing that cap on entry, and stops once ``best``
    meets the lower bound.  The nodes live on an explicit stack.

    Vertex r is the one of rank r under ``(degree, -index)``, so bit r of
    each mask below stands for it and a higher bit wins a tie.  ``unc``
    holds the uncolored vertices.  ``planes`` holds every vertex's
    saturation bit-sliced, one int per bit, highest bit first: narrowing
    ``unc`` through them and taking the highest bit left is the
    saturation order's pick.  ``sat`` holds at bits ``c * n`` onward the
    vertices with a neighbor colored c, so ``~(sat >> v)`` masked by
    ``pat[cap]`` is the colors v may take.  The state is ints and a
    planes list copied before each change, so a frame saves it and
    backtracking restores it.
    """
    if g.m == 0:
        return 1 if g.n else 0
    lower = max(omega, len(clique))
    greedy = _dsatur_greedy(g)
    best = max(greedy.values())
    if lower >= best:
        return best

    n = g.n
    adj = g.adj
    order = sorted(range(n), key=lambda u: (len(adj[u]), -u))
    rank = inverse(order)
    nbrs = [bitmask(map(rank.__getitem__, adj[u])) for u in order]
    sat_count = [0] * n  # by rank
    sat = 0
    unc = (1 << n) - 1 ^ bitmask(map(rank.__getitem__, clique))
    for c, u in enumerate(clique, start=1):
        sat |= nbrs[rank[u]] << c * n
        for w in adj[u]:
            sat_count[rank[w]] += 1
    # every color in play is below the greedy's count, so k bits hold
    # any saturation
    k = best.bit_length()
    planes = [bitmask(r for r in range(n) if sat_count[r] >> i & 1)
              for i in range(k - 1, -1, -1)]
    pat = [bitmask(range(n, c * n + 1, n)) for c in range(best)]
    # a suspended node: (v, used, colors still to try, then the node's
    # sat, planes and unc)
    stack: list[tuple[int, int, int, int, list[int], int]] = []
    nodes, limit = counter.nodes, counter.limit
    used = len(clique)
    try:
        while True:
            # enter a node
            nodes += 1
            if nodes > limit:
                raise BudgetExceeded(
                    "chromatic search exceeded its node budget",
                    lower=lower, upper=best, nodes=nodes,
                )
            if unc:
                cand = unc
                for plane in planes:
                    top = cand & plane
                    if top:
                        cand = top
                v = cand.bit_length() - 1
                unc ^= 1 << v
                free = ~(sat >> v) & pat[min(best - 1, used + 1)]
            else:
                # a leaf; the root is none, as the clique leaves a
                # vertex uncolored (else lower >= best)
                if used < best:
                    best = used
                    if best <= lower:
                        return best
                v, used, free, sat, planes, unc = stack.pop()
            # back up to the nearest node with a color left to try
            while not free:
                if not stack:
                    return best
                v, used, free, sat, planes, unc = stack.pop()
            low = free & -free
            stack.append((v, used, free ^ low, sat, planes, unc))
            # color v with c and descend: the neighbors without c gain it
            shift = low.bit_length() - 1
            carry = nbrs[v] & ~(sat >> shift)
            sat |= carry << shift
            planes = planes.copy()
            i = k
            while carry:
                i -= 1
                plane = planes[i]
                planes[i] = plane ^ carry
                carry &= plane
            c = shift // n
            if c > used:
                used = c
    finally:
        counter.nodes = nodes


# ---------------------------------------------------------------------------
# Induced cycles, antiholes, perfectness


def iter_induced_cycles(h: SimpleGraph, min_len: int,
                        max_len: int) -> Iterator[tuple[int, ...]]:
    """Induced (chordless) cycles with min_len <= length <= max_len, each
    yielded once in canonical form: anchored at its minimum vertex, second
    entry smaller than last.

    A DFS grows induced paths s, p1, ..., v from each anchor s over one
    neighbour bitmask per vertex (bit w of ``nbr[u]`` is set when uw is an
    edge).  The frame of the last vertex v is one int: the candidates it
    has not tried yet, taken lowest bit first, which is the order of a
    walk over sorted neighbours.  A candidate is a neighbour of v adjacent
    to no inner vertex (p1 up to the vertex before v) that either closes a
    cycle or extends the path.  It closes one when it is adjacent to s and
    above p1 (which keeps one of the cycle's two reflections) and the cycle
    is long enough; it is then yielded and never extended, as that would
    leave a chord to s.  It extends the path when it is above s and not
    adjacent to s and the path may still grow.  No path vertex is a
    candidate: s is not above s, p1 is adjacent to s and not above p1,
    and each later inner vertex is adjacent to the one before it.

    The prune: a cycle through the path closes at a "closer", a vertex
    above p1, adjacent to s and adjacent to no inner vertex (no such vertex
    is on the path).  Growing the path only adds inner vertices, so the
    closers only shrink, and a path left with none yields nothing however
    it grows; the DFS does not enter it.  Nothing that would be yielded is
    skipped, so the cycles come out in the order of the unpruned walk over
    sorted neighbour sets that the tests keep as the reference.  On a long
    cycle only anchor 0 gets past its first step, so C_n costs O(n^2) bit
    operations where the walk made O(n^3) set operations.  Each depth
    keeps two n-bit ints, its untried candidates and the union of its
    inner vertices' neighbourhoods (the closers are the vertices above p1
    and adjacent to s outside that union), so a path of n vertices holds
    about n^2 bits (about 1 MB at n = 3000).
    """
    if max_len < max(min_len, 3):
        return
    nbr = h.bits
    for s in range(h.n):
        ns = nbr[s]
        above = -1 << s + 1
        ext = above & ~ns  # the vertices that may extend a path from s
        rest = ns & above
        while rest:
            low = rest & -rest
            rest ^= low
            p1 = low.bit_length() - 1
            # the vertices that may close a cycle s, p1, ...
            close = ns & -1 << p1 + 1
            if not close:
                continue
            # the path s, p1, ...; per depth, the untried candidates of
            # its last vertex and the union of its inner vertices'
            # neighbourhoods
            path = [s, p1]
            frames = [nbr[p1] & ((close if min_len <= 3 else 0)
                                 | (ext if max_len > 3 else 0))]
            blocked = [0]
            while frames:
                cands = frames[-1]
                if not cands:
                    frames.pop()
                    blocked.pop()
                    path.pop()
                    continue
                low = cands & -cands
                frames[-1] = cands ^ low
                w = low.bit_length() - 1
                if low & ns:
                    # w closes a cycle; extending past w would leave a
                    # chord to s
                    yield tuple(path) + (w,)
                    continue
                # extending by w makes the last vertex inner
                block = blocked[-1] | nbr[path[-1]]
                if not close & ~block:
                    continue  # no closer is left
                path.append(w)
                # the length of a cycle that w's frame closes
                k = len(path) + 1
                frames.append(nbr[w] & ~block
                              & ((close if k >= min_len else 0)
                                 | (ext if k < max_len else 0)))
                blocked.append(block)


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
