"""Two-phase coloring of the square of a convex bipartite graph.

The square is never built: every step reads what it needs off the convex
layout.  Two A-vertices are adjacent in G^2 iff their intervals meet; the
G^2-neighbors of the B-vertex at position p are its A-neighbors plus the
positions in [minleft(p), maxright(p)] other than p, where minleft and
maxright bound the intervals through p.  omega(G^2) is read off the
layout in closed form; the exact oracles in ``oracle`` stay off this
pipeline and serve as its checks.

Phase I greedily colors the interval graph on the A side (left-endpoint
order, lowest free color), which uses exactly as many colors as its
largest clique, hence at most omega(G^2).

Phase II absorbs the B-vertices one position at a time, from the highest
position down.  With palette floor(3*omega/2), the vertex b_j at position
j is handled by a loop that terminates after at most |N(b_j) on A| pivot
rounds:

1. If the palette has a color unused on N(b_j) within the current
   subgraph, b_j takes the lowest such color.
2. Otherwise a *pivot* exists: the <_A-least A-neighbor of b_j whose
   color appears exactly once among b_j's neighbors.  If the pivot's own
   closed neighborhood misses a color, the pivot is recolored with the
   lowest missing one and b_j inherits the pivot's old color.
3. Otherwise a *partner color* exists: one absent from the pivot's
   B-neighbors and <_A-later A-neighbors, yet present on an <_A-earlier
   A-neighbor.  Swapping pivot and partner colors on the Kempe component
   through the pivot frees progress: the component stays inside A, and if
   the pivot's old color is now unused around b_j it is assigned,
   otherwise the loop re-enters with a strictly <_A-smaller pivot.

Step 3's loop-back re-derives the pivot instead of jumping to the swap
partner directly; the two agree whenever the direct jump is sound, and
re-deriving keeps every step covered by the supporting claims (pivot
uniqueness, partner existence, strict pivot descent).  Those claims are
asserted at runtime when ``check_invariants`` is on (the default); a
failure raises AlgorithmInvariantViolation and would indicate an
implementation bug, never bad input.  The finished coloring is always
checked, independently of the layout, on the closed neighborhoods of G
(``verify_square_coloring``) and raises the same error if it fails.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import groupby
from operator import itemgetter
from typing import Sequence

from .convexity import ConvexLayout
# ``square`` is not called here.  bench/spans.py wraps ``coloring.square``
# by name when it traces a run, so the name stays importable.
from .core import BipartiteGraph, SimpleGraph, square  # noqa: F401
from .errors import AlgorithmInvariantViolation

TraceEvent = tuple


@dataclass(frozen=True)
class Coloring:
    """Vertex -> color map (square-global indices) with its palette size.

    ``palette`` is the number of colors actually in use; every assigned
    color lies in 1..palette.
    """

    colors: dict[int, int]
    palette: int


def verify_coloring(h: SimpleGraph, c: Coloring) -> bool:
    """True iff ``c`` totally colors ``h``, stays within its palette, and
    no edge is monochromatic."""
    for v in range(h.n):
        col = c.colors.get(v)
        if col is None or not 1 <= col <= c.palette:
            return False
    return all(c.colors[u] != c.colors[v] for u, v in h.edges())


def verify_square_coloring(g: BipartiteGraph, c: Coloring) -> bool:
    """True iff ``c`` is a proper coloring of square(g) within its palette.

    Two vertices are at distance at most two in G iff both lie in some
    closed neighborhood N_G[v], so it suffices that ``c`` is total, stays
    in 1..palette, and gives every N_G[v] distinct colors: O(n + m), no
    layout and no square needed.
    """
    n_a = g.n_a
    colors = c.colors
    for v in range(n_a + g.n_b):
        col = colors.get(v)
        if col is None or not 1 <= col <= c.palette:
            return False
    for a, row in enumerate(g.adj):
        seen = {colors[a]}
        seen.update(colors[n_a + b] for b in row)
        if len(seen) != len(row) + 1:
            return False
    for b, row in enumerate(g.b_adj):
        seen = {colors[n_a + b]}
        seen.update(map(colors.__getitem__, row))
        if len(seen) != len(row) + 1:
            return False
    return True


def greedy_interval_coloring(
    intervals: Sequence[tuple[int, int] | None],
) -> Coloring:
    """Color the interval graph greedily in left-endpoint order.

    ``None`` entries (isolated vertices) take color 1.  Uses exactly as
    many colors as the deepest point coverage, the interval graph's
    clique number, in O(n log n) time.
    """
    colors: dict[int, int] = {}
    order = sorted(
        (i for i, iv in enumerate(intervals) if iv is not None),
        key=lambda i: (intervals[i][0], intervals[i][1], i),
    )
    # The intervals colored so far that meet the current one are those
    # whose right end reaches its left end: ``active``, by right end.
    # Every color up to ``top`` is either held by one active interval or
    # waits in ``freed``, so the lowest free color is freed's least, or
    # top + 1 when nothing waits.
    active: list[tuple[int, int]] = []  # (right end, color)
    freed: list[int] = []
    top = 0
    for i in order:
        li, ri = intervals[i]
        while active and active[0][0] < li:
            heappush(freed, heappop(active)[1])
        if freed:
            c = heappop(freed)
        else:
            top += 1
            c = top
        colors[i] = c
        heappush(active, (ri, c))
    for i, iv in enumerate(intervals):
        if iv is None:
            colors[i] = 1
    palette = max(colors.values(), default=0)
    return Coloring(colors, palette)


def clique_number_square(g: BipartiteGraph, layout: ConvexLayout) -> int:
    """omega(G^2) in closed form from the convex layout.

    A clique of the square is a run [l, r] of B-positions plus the
    A-intervals containing it (at least one when r > l), so omega is the
    maximum of (#intervals containing [l, r]) + (r - l + 1).  Only left
    endpoints need trying as l; for the k intervals through l reaching
    furthest right, r is the k-th largest right endpoint.  Each interval
    is visited once per left endpoint it covers.
    """
    if g.n_a + g.n_b == 0:
        return 0
    best = 1
    rights: list[int] = []  # right endpoints of the intervals through l
    by_left = sorted(iv for iv in layout.intervals if iv is not None)
    for left, starting in groupby(by_left, key=itemgetter(0)):
        rights = [r for r in rights if r >= left] + [r for _, r in starting]
        rights.sort(reverse=True)
        best = max(best, max(k + r for k, r in enumerate(rights, 1)) - left + 1)
    return best


@dataclass
class ExtensionState:
    """Working state of Phase II while absorbing position ``j``.

    ``colors`` is a proper coloring of H_{j+1} (all of A plus B-positions
    above j) within ``palette`` = floor(3*omega/2) colors.  Neighborhoods
    in the square are read off arrays by B-position that are built once
    from the layout: the A-neighbors of each position, minleft and
    maxright, and the A-vertices sorted by left endpoint.
    """

    graph: BipartiteGraph
    layout: ConvexLayout
    palette: int
    colors: dict[int, int]
    j: int
    pivot: int | None = None
    pivot_color: int | None = None
    partner: int | None = None
    kempe_component: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        g, ivs = self.graph, self.layout.intervals
        b_seq = self.layout.b_seq
        # square-global index of the B-vertex at each position
        self._b_glob = [g.n_a + b for b in b_seq]
        # A-neighbors of each position: the intervals through it
        self._a_at = [list(g.b_adj[b]) for b in b_seq]
        self._minleft = [min((ivs[a][0] for a in row), default=p)
                         for p, row in enumerate(self._a_at)]
        self._maxright = [max((ivs[a][1] for a in row), default=p)
                          for p, row in enumerate(self._a_at)]
        # A-vertices by left endpoint; those starting before position p
        # are _by_left[:_starts[p]]
        self._by_left = sorted(
            (a for a, iv in enumerate(ivs) if iv is not None),
            key=lambda a: ivs[a][0],
        )
        self._starts = [0] * (len(b_seq) + 1)
        for a in self._by_left:
            self._starts[ivs[a][0] + 1] += 1
        for p in range(len(b_seq)):
            self._starts[p + 1] += self._starts[p]

    def bj_vertex(self) -> int:
        return self.layout.b_seq[self.j]

    def bj_global(self) -> int:
        return self.graph.n_a + self.bj_vertex()

    def _filtered_neighbors(self, v: int, min_pos: int) -> list[int]:
        """Neighbors of ``v`` in the square, B-vertices only at positions
        ``min_pos`` and above."""
        n_a = self.graph.n_a
        b_glob = self._b_glob
        if v < n_a:
            iv = self.layout.intervals[v]
            if iv is None:
                return []
            # the intervals meeting [l, r] pass through l or start in (l, r]
            l, r = iv
            return ([w for w in self._a_at[l] if w != v]
                    + self._by_left[self._starts[l + 1]:self._starts[r + 1]]
                    + b_glob[max(l, min_pos):r + 1])
        p = self.layout.b_pos[v - n_a]
        return (self._a_at[p]
                + b_glob[max(self._minleft[p], min_pos):p]
                + b_glob[max(p + 1, min_pos):self._maxright[p] + 1])

    def neighborhood_bj(self) -> list[int]:
        """N(b_j) within H_j: its A-neighbors plus later B-neighbors."""
        return self._filtered_neighbors(self.bj_global(), self.j)

    def neighbors_next(self, v: int) -> list[int]:
        """Neighbors of ``v`` within H_{j+1}."""
        return self._filtered_neighbors(v, self.j + 1)


def find_pivot(state: ExtensionState) -> int:
    """<_A-least A-neighbor of b_j whose color is unique in N(b_j).

    Defined whenever the coloring is non-extendable; its absence would
    contradict the counting claim and raises AlgorithmInvariantViolation.
    """
    nb = state.neighborhood_bj()
    counts = Counter(state.colors[v] for v in nb)
    n_a = state.graph.n_a
    rank = state.layout.a_rank
    candidates = [
        v for v in nb if v < n_a and counts[state.colors[v]] == 1
    ]
    if not candidates:
        raise AlgorithmInvariantViolation(
            f"pivot not found at position {state.j}: no uniquely colored "
            "A-neighbor of b_j"
        )
    return min(candidates, key=lambda v: rank[v])


def partner_color(state: ExtensionState) -> int:
    """Lowest color other than the pivot's that avoids the pivot's
    B-neighbors and <_A-later A-neighbors while appearing on some
    <_A-earlier A-neighbor."""
    a_c, x = state.pivot, state.pivot_color
    n_a = state.graph.n_a
    rank = state.layout.a_rank
    shielded: set[int] = set()   # colors on S
    backward: set[int] = set()   # colors on earlier A-neighbors
    for w in state.neighbors_next(a_c):
        if w >= n_a or rank[w] > rank[a_c]:
            shielded.add(state.colors[w])
        else:
            backward.add(state.colors[w])
    for y in range(1, state.palette + 1):
        if y != x and y not in shielded and y in backward:
            return y
    raise AlgorithmInvariantViolation(
        f"partner color not found for pivot A{a_c} at position {state.j}"
    )


def kempe_swap(state: ExtensionState) -> Coloring:
    """Swap pivot and partner colors on the bichromatic component of
    H_{j+1} through the pivot; everything else is untouched."""
    x, y = state.pivot_color, state.partner
    colors = state.colors
    component = {state.pivot}
    stack = [state.pivot]
    while stack:
        v = stack.pop()
        for w in state.neighbors_next(v):
            if w not in component and colors.get(w) in (x, y):
                component.add(w)
                stack.append(w)
    new_colors = dict(colors)
    for v in component:
        new_colors[v] = y if colors[v] == x else x
    state.kempe_component = frozenset(component)
    return Coloring(new_colors, state.palette)


def _free_color(used: set[int], palette: int, rule: str) -> int | None:
    colors = range(1, palette + 1)
    if rule == "highest":
        colors = range(palette, 0, -1)
    for c in colors:
        if c not in used:
            return c
    return None


def _assert_bj_cliques(state: ExtensionState, omega: int) -> None:
    """N(b_j) within H_j is two cliques through b_j, within the counting
    bounds.  By interval arithmetic: every interval of A_j contains j, and
    one of them covers b_j and every position of B_j."""
    n_a, j = state.graph.n_a, state.j
    nb = state.neighborhood_bj()
    ivs = [state.layout.intervals[v] for v in nb if v < n_a]
    b_j = [state.layout.b_pos[v - n_a] for v in nb if v >= n_a]
    if len(ivs) > omega - 1:
        raise AlgorithmInvariantViolation(
            f"|A_j| = {len(ivs)} exceeds omega-1 at position {j}"
        )
    # the B_j bound presumes b_j has a later B-neighbor at all
    if b_j and len(b_j) > omega - 2:
        raise AlgorithmInvariantViolation(
            f"|B_j| = {len(b_j)} exceeds omega-2 at position {j}"
        )
    if ivs and not max(l for l, _ in ivs) <= j <= min(r for _, r in ivs):
        raise AlgorithmInvariantViolation(
            f"N(b_j) side group not a clique at position {j}"
        )
    if b_j:
        lo, hi = min(min(b_j), j), max(max(b_j), j)
        if not any(l <= lo and hi <= r for l, r in ivs):
            raise AlgorithmInvariantViolation(
                f"no A-neighbor covers B_j + b_j at position {j}"
            )


def _assert_kempe_shape(state: ExtensionState) -> None:
    """Component inside A; across consecutive distance layers (distances
    in H_j from the pivot) the farther endpoint is <_A-smaller; vertices
    at distance two or more have no B-neighbors in H_j."""
    n_a = state.graph.n_a
    comp = state.kempe_component
    outside = [v for v in comp if v >= n_a]
    if outside:
        raise AlgorithmInvariantViolation(
            f"Kempe component leaves A at position {state.j}: {outside}"
        )
    dist = {state.pivot: 0}
    frontier = [state.pivot]
    while frontier:
        nxt = []
        for u in frontier:
            for w in state._filtered_neighbors(u, state.j):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    rank = state.layout.a_rank
    for u in comp:
        for w in state.neighbors_next(u):
            if w in comp and dist.get(w) == dist.get(u, -2) + 1:
                if rank[w] >= rank[u]:
                    raise AlgorithmInvariantViolation(
                        "Kempe layer order violated: farther vertex not "
                        f"<_A-smaller at position {state.j}"
                    )
        if dist.get(u, 0) >= 2:
            if any(w >= n_a for w in state._filtered_neighbors(u, state.j)):
                raise AlgorithmInvariantViolation(
                    "Kempe vertex at distance >= 2 keeps a B-neighbor "
                    f"in H_j at position {state.j}"
                )


def color_square_convex(g: BipartiteGraph, layout: ConvexLayout,
                        check_invariants: bool = True,
                        trace: list[TraceEvent] | None = None,
                        free_color_rule: str = "lowest") -> Coloring:
    """Proper coloring of square(g) with at most floor(3*omega/2) colors.

    omega comes from ``clique_number_square(g, layout)``.  ``trace``, when
    given, collects (event, position, ...) tuples for the pivot / partner
    / swap steps.

    ``free_color_rule`` picks among the free colors at steps 2 and 3.1;
    the guarantee holds for any choice, and the non-default ``highest``
    rule exists to drive the extension machinery (pivots, partner colors,
    Kempe swaps) hard in tests.  The deterministic default is ``lowest``.
    """
    omega = clique_number_square(g, layout)
    palette = (3 * omega) // 2
    phase1 = greedy_interval_coloring(layout.intervals)
    colors: dict[int, int] = dict(phase1.colors)
    if trace is not None:
        trace.append(("phase1", None, phase1.palette))

    state = ExtensionState(
        graph=g, layout=layout, palette=palette, colors=colors, j=g.n_b,
    )
    for j in range(g.n_b - 1, -1, -1):
        state.j = j
        state.pivot = state.pivot_color = state.partner = None
        bjg = state.bj_global()
        if check_invariants:
            _assert_bj_cliques(state, omega)
        nb = state.neighborhood_bj()
        prev_rank: int | None = None
        rounds = 0
        while True:
            rounds += 1
            if rounds > len(nb) + 2:
                raise AlgorithmInvariantViolation(
                    f"pivot loop failed to terminate at position {j}"
                )
            used = {colors[v] for v in nb}
            free = _free_color(used, palette, free_color_rule)
            if free is not None:
                colors[bjg] = free
                if trace is not None:
                    trace.append(("assign", j, state.bj_vertex(), free))
                break
            a_c = find_pivot(state)
            if (check_invariants and prev_rank is not None
                    and layout.a_rank[a_c] >= prev_rank):
                raise AlgorithmInvariantViolation(
                    f"pivot rank failed to decrease at position {j}"
                )
            prev_rank = layout.a_rank[a_c]
            state.pivot, state.pivot_color = a_c, colors[a_c]
            x = state.pivot_color
            if trace is not None:
                trace.append(("pivot", j, a_c, x))
            closed_used = {colors[w] for w in state.neighbors_next(a_c)}
            closed_used.add(x)
            z = _free_color(closed_used, palette, free_color_rule)
            if z is not None:
                colors[a_c] = z
                colors[bjg] = x
                if trace is not None:
                    trace.append(("pivot_recolor", j, a_c, z))
                    trace.append(("assign", j, state.bj_vertex(), x))
                break
            y = partner_color(state)
            state.partner = y
            rank = layout.a_rank
            backward_holders = [
                w for w in state.neighbors_next(a_c)
                if w < g.n_a and rank[w] < rank[a_c] and colors[w] == y
            ]
            if not backward_holders:
                raise AlgorithmInvariantViolation(
                    f"partner color {y} has no earlier holder at position {j}"
                )
            a_prime = min(backward_holders, key=lambda w: rank[w])
            if trace is not None:
                shielded = frozenset(
                    colors[w] for w in state.neighbors_next(a_c)
                    if w >= g.n_a or rank[w] > rank[a_c]
                )
                trace.append(("partner", j, y, a_prime, shielded))
            swapped = kempe_swap(state)
            if check_invariants:
                _assert_kempe_shape(state)
            colors.clear()
            colors.update(swapped.colors)
            if trace is not None:
                trace.append(("swap", j, x, y, len(state.kempe_component)))
            # loop: if x is now free around b_j the next pass assigns it
            # (the swap cannot free any other color); otherwise a strictly
            # smaller pivot takes over.

    palette_used = max(colors.values(), default=0)
    result = Coloring(colors, palette_used)
    if not verify_square_coloring(g, result):
        raise AlgorithmInvariantViolation(
            "final coloring failed properness verification"
        )
    return result
