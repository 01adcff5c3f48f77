"""Two-phase coloring of the square of a convex bipartite graph.

The square is never built: every step reads what it needs off the convex
layout.  Two A-vertices are adjacent in G^2 iff their intervals meet; the
G^2-neighbors of the B-vertex at position p are its A-neighbors plus the
positions in [minleft(p), maxright(p)] other than p, where minleft and
maxright bound the intervals through p.  Those arrays over the positions
are built in linear sweeps: maxright is a prefix maximum of right ends by
left endpoint, minleft a suffix minimum of left ends by right endpoint.
N(b_j) within H_j is A_j, the A-vertices whose rows of G hold b_j, plus
the positions j+1 .. maxright(j).  G is read through its A-rows only;
the transpose, A_j as a list for every position, is built the first
time a pivot round needs it.  Step 1 reads N(b_j) off a window that
slides down with j, kept as two bitmasks of colors: ``on_a`` over A_j
and ``on_b`` over the positions j+1 .. maxright(j).  Each part is a
clique of the square, by the clique claims, so a color occurs at most
once in it, and XOR-ing a vertex's color bit in as it enters and out as
it leaves keeps each mask exact.  An A-vertex enters the window at its
right end and leaves it below its left end; the B-part gains j+1 and
loses positions from its top only, because maxright is a prefix
maximum.  Each vertex enters and leaves once, so step 1 costs
O(n_a + n_b) window updates in all, plus a lowest set bit per position,
in one flat loop.  The pivot steps start only at a position whose
window leaves no color free; only they count how often each color
occurs on N(b_j), afresh in every round.  A pivot round recolors
A-vertices, never B-vertices, so after one ``on_a`` is rebuilt from A_j
and ``on_b`` stands.
A ``ConvexLayout`` has checked every row of its graph against its
B-order when it was made, and derives <_A from the intervals, so Phase
II checks only that the layout is G's: a caller's layout of another
graph raises LayoutMismatch before any color is assigned.  The clique
claims are then interval arithmetic, and only their size bounds are
checked per position, on the |A_j| that one pass over the intervals
counts for step 1.  The final check
reads each A-row that is a run of its labels as one slice of the color
list, and the closed neighborhoods of B through the color classes of A:
the A-vertices of one color must have disjoint rows, O(n + m).
Every other neighborhood comes from one routine,
``ExtensionState._filtered_neighbors``.  The A-vertices by left end are
one order, ``ConvexLayout.by_left``: omega, the window and the pivot
steps all read it.  minleft serves only the check of a Kempe swap, so
it is built the first time it is needed.
omega(G^2) is read off the layout in closed form, once per layout; the
exact oracles in ``oracle`` stay off this pipeline and serve as its
checks.

Phase I greedily colors the interval graph on the A side (left-endpoint
order, lowest free color), which uses exactly as many colors as its
largest clique, hence at most omega(G^2).  The colors of the intervals
that have ended are released from a bucket per position into a bitmask,
whose lowest set bit is the lowest free color.

Phase II absorbs the B-vertices one position at a time, from the highest
position down.  With palette floor(3*omega/2), the vertex b_j at position
j is handled by a loop that terminates after at most |N(b_j) on A| pivot
rounds:

1. If the palette has a color unused on N(b_j) within the current
   subgraph, b_j takes the lowest such color, the lowest set bit of the
   window's mask.  The bound holds whichever free color is taken; the
   lowest keeps the output deterministic.
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
always asserted at runtime, the clique claims on N(b_j) for every
position before Phase II starts and the others in each pivot round; a
failure raises AlgorithmInvariantViolation and would indicate an
implementation bug, never bad input; a layout of another graph raises
LayoutMismatch.  The finished coloring is always
checked, independently of the layout, on the closed neighborhoods of G
(``verify_square_coloring``, on a list of the colors by vertex) and
raises the same error if it fails.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress
from typing import Sequence

from .convexity import ConvexLayout
# ``square`` is not called here.  bench/spans.py wraps ``coloring.square``
# by name when it traces a run, so the name stays importable.
from .core import BipartiteGraph, SimpleGraph, bitmask, square  # noqa: F401
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
    layout and no square needed, and G is read through its A-rows only.
    The colors are read once into a list by vertex.  N_G[a] is A-vertex
    a and its row; the rows are sorted and without repeats, so a row
    whose last label is its first plus its length minus one is a run of
    labels, and its colors are read as one slice of the list, any other
    row's one label at a time.  N_G[b] is b and the A-vertices whose rows
    hold b.  b against each of them is a pair that some N_G[a] holds
    too, so what is left is that no two A-vertices of one color share a
    B-neighbor: the A-vertices of each color class must have pairwise
    disjoint rows, so the B-labels of a class's rows, listed together,
    hold no repeat.  The lists are kept by the colors in use, in a dict,
    so nothing is allocated by the palette or by a color's value.
    """
    n_a = g.n_a
    col = list(map(c.colors.get, range(n_a + g.n_b)))
    if None in col or col and not 1 <= min(col) <= max(col) <= c.palette:
        return False
    col_b = col[n_a:]
    labels_of: defaultdict[int, list[int]] = defaultdict(list)
    for own, row in zip(col, g.adj):
        k = len(row)
        if k and row[-1] - row[0] == k - 1:
            seen = set(col_b[row[0]:row[-1] + 1])
        else:
            seen = set(map(col_b.__getitem__, row))
        if own in seen or len(seen) != k:
            return False
        labels_of[own] += row
    return all(len(set(labels)) == len(labels)
               for labels in labels_of.values())


def greedy_interval_coloring(
    intervals: Sequence[tuple[int, int] | None],
) -> Coloring:
    """Color the interval graph greedily in left-endpoint order, ties by
    right end and then index, each interval the lowest free color.

    ``None`` entries (isolated vertices) take color 1.  Uses exactly as
    many colors as the deepest point coverage, the interval graph's
    clique number.  The intervals are sorted once, stably, by one
    integer per interval that packs (left, right), so ties fall to the
    index: O(n log n).  The colors of the intervals that end at a
    position wait in that position's bucket, and a bucket is released
    into ``free`` once the left ends pass its position, so ``free`` is a
    bitmask of the colors used so far that no interval through the
    current left end holds.  The lowest free color is its lowest set
    bit, or a new color when it is 0.  The buckets cost one pass over
    the positions from the least left end to the greatest right end.
    """
    colors: dict[int, int] = {}
    live = list(compress(range(len(intervals)), intervals))
    top = 0
    if live:
        lo = min([intervals[i][0] for i in live])
        hi = max([intervals[i][1] for i in live])
        if lo < 0:  # shifting every position changes no color
            intervals = [iv and (iv[0] - lo, iv[1] - lo) for iv in intervals]
            lo, hi = 0, hi - lo
        key = [iv and iv[0] * (hi + 1) + iv[1] for iv in intervals]
        live.sort(key=key.__getitem__)  # stable: by index on ties
        ending = [0] * (hi + 1)  # per position, the colors ending there
        free = 0
        p = lo
        for i in live:
            left, right = intervals[i]
            while p < left:
                free |= ending[p]
                p += 1
            if free:
                low = free & -free
                free ^= low
                c = low.bit_length() - 1
            else:
                top += 1
                c = top
            colors[i] = c
            ending[right] |= 1 << c
    if len(live) < len(intervals):
        colors.update((i, 1) for i, iv in enumerate(intervals) if iv is None)
        top = max(top, 1)
    return Coloring(colors, top)


def clique_number_square(g: BipartiteGraph, layout: ConvexLayout) -> int:
    """omega(G^2) in closed form from the convex layout of ``g``.

    The interval sweep is ``ConvexLayout.omega``; it runs on the first
    call for a layout, and later calls read the cached value.
    """
    return layout.omega


@dataclass
class ExtensionState:
    """Working state of Phase II while absorbing position ``j``.

    ``colors`` is a proper coloring of H_{j+1} (all of A plus B-positions
    above j) within ``palette`` = floor(3*omega/2) colors.  Neighborhoods
    in the square are read off arrays by B-position, each built on first
    read, so that ``_assert_bj_cliques`` checks that the layout is
    ``graph``'s before any of them indexes it.  maxright, with the
    intervals, is all that step 1 and the clique claims read.  The
    A-neighbors of each position, the rows of ``g.b_adj`` and so the
    transpose of G, and minleft are read only in a pivot round.
    """

    graph: BipartiteGraph
    layout: ConvexLayout
    palette: int
    colors: dict[int, int]
    j: int

    @cached_property
    def _b_glob(self) -> list[int]:
        """The square-global index of the B-vertex at each position."""
        return [self.graph.n_a + b for b in self.layout.b_seq]

    @cached_property
    def _maxright(self) -> list[int]:
        # maxright(p) bounds the intervals through p, and is p itself where
        # none passes.  An interval starting at or before p that reaches p
        # passes through it, so maxright is a prefix maximum of right ends
        # by left endpoint.
        maxright = list(range(len(self._b_glob)))
        for iv in self.layout.intervals:
            if iv is not None:
                l, r = iv
                if maxright[l] < r:
                    maxright[l] = r
        return list(accumulate(maxright, max))

    @cached_property
    def _a_at(self) -> list[tuple[int, ...]]:
        """The A-neighbors of each position, A_p: the intervals through it
        in a layout of G.  Read only in pivot rounds, so G's transpose is
        built only then."""
        return list(map(self.graph.b_adj.__getitem__, self.layout.b_seq))

    @cached_property
    def _minleft(self) -> list[int]:
        """minleft(p), mirroring maxright: a suffix minimum of left ends
        by right endpoint."""
        minleft = list(range(len(self._b_glob)))
        for iv in self.layout.intervals:
            if iv is not None:
                l, r = iv
                if minleft[r] > l:
                    minleft[r] = l
        return list(accumulate(reversed(minleft), min))[::-1]

    @cached_property
    def _starts(self) -> list[int]:
        """The number of intervals starting before each position, so the
        A-vertices starting before p are ``layout.by_left[:_starts[p]]``."""
        starts = [0] * (len(self._b_glob) + 1)
        for iv in self.layout.intervals:
            if iv is not None:
                starts[iv[0] + 1] += 1
        return list(accumulate(starts))

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
            return [*(w for w in self._a_at[l] if w != v),
                    *self.layout.by_left[self._starts[l + 1]:
                                         self._starts[r + 1]],
                    *b_glob[max(l, min_pos):r + 1]]
        p = self.layout.b_pos[v - n_a]
        return ([*self._a_at[p]]
                + b_glob[max(self._minleft[p], min_pos):p]
                + b_glob[max(p + 1, min_pos):self._maxright[p] + 1])


def find_pivot(state: ExtensionState) -> int:
    """<_A-least A-neighbor of b_j whose color is unique in N(b_j).

    The colors of N(b_j) within H_j are counted afresh on every call.
    Defined whenever the coloring is non-extendable; its absence would
    contradict the counting claim and raises AlgorithmInvariantViolation.
    """
    j, colors = state.j, state.colors
    a_j = state._a_at[j]
    count = [0] * (state.palette + 1)
    for c in map(colors.__getitem__, chain(
            a_j, state._b_glob[j + 1:state._maxright[j] + 1])):
        count[c] += 1
    candidates = [v for v in a_j if count[colors[v]] == 1]
    if not candidates:
        raise AlgorithmInvariantViolation(
            f"pivot not found at position {j}: no uniquely colored "
            "A-neighbor of b_j"
        )
    return min(candidates, key=state.layout.a_rank.__getitem__)


def partner_color(state: ExtensionState,
                  pivot: int) -> tuple[int, int, frozenset[int]]:
    """Partner color y of ``pivot``: the lowest color other than the
    pivot's that avoids its shield (its B-neighbors and <_A-later
    A-neighbors) while appearing on some <_A-earlier A-neighbor.

    Returns y, the <_A-least earlier A-neighbor holding y, and the colors
    on the shield, all from one pass over the pivot's neighbors in
    H_{j+1}.
    """
    colors = state.colors
    n_a = state.graph.n_a
    rank = state.layout.a_rank
    shielded: set[int] = set()
    holder: dict[int, int] = {}  # color -> <_A-least earlier A-neighbor
    for w in state._filtered_neighbors(pivot, state.j + 1):
        c = colors[w]
        if w >= n_a or rank[w] > rank[pivot]:
            shielded.add(c)
        elif c not in holder or rank[w] < rank[holder[c]]:
            holder[c] = w
    x = colors[pivot]
    for y in range(1, state.palette + 1):
        if y != x and y not in shielded and y in holder:
            return y, holder[y], frozenset(shielded)
    raise AlgorithmInvariantViolation(
        f"partner color not found for pivot A{pivot} at position {state.j}"
    )


def kempe_swap(state: ExtensionState, pivot: int, y: int) -> frozenset[int]:
    """Swap the pivot's color and ``y`` on the bichromatic component of
    H_{j+1} through the pivot, in ``state.colors``; everything else is
    untouched.  Returns the component."""
    colors = state.colors
    x = colors[pivot]
    component = {pivot}
    stack = [pivot]
    while stack:
        v = stack.pop()
        for w in state._filtered_neighbors(v, state.j + 1):
            if w not in component and colors.get(w) in (x, y):
                component.add(w)
                stack.append(w)
    for v in component:
        colors[v] = y if colors[v] == x else x
    return frozenset(component)


def _free_color(free: int) -> int | None:
    """The lowest color whose bit is set in ``free``, or None."""
    return (free & -free).bit_length() - 1 if free else None


def _pivot_rounds(state: ExtensionState, rounds: int, on_b: int, full: int,
                  trace: list[TraceEvent] | None) -> tuple[int, int]:
    """Steps 2 and 3 at position ``state.j``, where step 1 found no color
    free on N(b_j): at most ``rounds`` pivot rounds, each after the first
    preceded by the free-color lookup.  ``on_b`` is the mask of the
    colors on the B-part, which no round recolors.  Returns the color b_j
    takes and the mask of the colors on A_j after the rounds, rebuilt
    from A_j.  ``find_pivot`` counts the colors of N(b_j) afresh in every
    round."""
    j, colors = state.j, state.colors
    rank = state.layout.a_rank
    a_j = state._a_at[j]
    prev_rank: int | None = None
    for round_ in range(rounds):
        if round_:  # the first round's lookup is the caller's
            on_a = bitmask(map(colors.__getitem__, a_j))
            c = _free_color(full & ~(on_a | on_b))
            if c is not None:
                return c, on_a
        a_c = find_pivot(state)
        if prev_rank is not None and rank[a_c] >= prev_rank:
            raise AlgorithmInvariantViolation(
                f"pivot rank failed to decrease at position {j}"
            )
        prev_rank = rank[a_c]
        x = colors[a_c]
        if trace is not None:
            trace.append(("pivot", j, a_c, x))
        closed_used = {colors[w] for w in state._filtered_neighbors(a_c, j + 1)}
        closed_used.add(x)
        z = _free_color(full & ~bitmask(closed_used))
        if z is not None:
            colors[a_c] = z
            if trace is not None:
                trace.append(("pivot_recolor", j, a_c, z))
            return x, bitmask(map(colors.__getitem__, a_j))
        y, a_prime, shielded = partner_color(state, a_c)
        if trace is not None:
            trace.append(("partner", j, y, a_prime, shielded))
        comp = kempe_swap(state, a_c, y)
        _assert_kempe_shape(state, a_c, comp)
        if trace is not None:
            trace.append(("swap", j, x, y, len(comp)))
        # loop: if x is now free around b_j the next round assigns it (the
        # swap cannot free any other color); otherwise a strictly smaller
        # pivot takes over
    raise AlgorithmInvariantViolation(
        f"pivot loop failed to terminate at position {j}"
    )


def _assert_bj_cliques(state: ExtensionState, omega: int) -> list[int]:
    """N(b_j) within H_j is two cliques through b_j, within the counting
    bounds, at every position j from ``state.j`` down to 0: A_j, the
    A-vertices whose rows hold b_j, and B_j, the positions j+1 ..
    maxright(j).  Returns |A_p| for every position p (and 0 past the
    last), counted off the intervals.

    A layout of another graph raises LayoutMismatch.  A layout of G has
    checked every row of G against its B-order when it was made, so each
    row fills its interval: A_j is the intervals through j, which meet at
    j, and the one reaching maxright(j) covers b_j and B_j.  Both clique
    claims hold, and only the size bounds, which depend on omega, are
    checked, from the highest position down.
    """
    g, layout = state.graph, state.layout
    layout.check_graph(g)
    starts = [0] * (g.n_b + 1)  # differences of |A_p|
    for iv in layout.intervals:
        if iv is not None:
            starts[iv[0]] += 1
            starts[iv[1] + 1] -= 1
    size = list(accumulate(starts))
    maxright = state._maxright
    for j in range(state.j, -1, -1):
        if size[j] > omega - 1:
            raise AlgorithmInvariantViolation(
                f"|A_j| = {size[j]} exceeds omega-1 at position {j}"
            )
        # the B_j bound presumes b_j has a later B-neighbor at all
        hi = maxright[j]  # last position of B_j, or j when it is empty
        if hi > j and hi - j > omega - 2:
            raise AlgorithmInvariantViolation(
                f"|B_j| = {hi - j} exceeds omega-2 at position {j}"
            )
    return size


def _assert_kempe_shape(state: ExtensionState, pivot: int,
                        comp: frozenset[int]) -> None:
    """Kempe component ``comp`` through ``pivot`` lies inside A; across
    consecutive distance layers (distances in H_j from the pivot) the
    farther endpoint is <_A-smaller; vertices at distance two or more have
    no B-neighbors in H_j."""
    n_a = state.graph.n_a
    outside = [v for v in comp if v >= n_a]
    if outside:
        raise AlgorithmInvariantViolation(
            f"Kempe component leaves A at position {state.j}: {outside}"
        )
    dist = {pivot: 0}
    frontier = [pivot]
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
        for w in state._filtered_neighbors(u, state.j + 1):
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
                        trace: list[TraceEvent] | None = None) -> Coloring:
    """Proper coloring of square(g) with at most floor(3*omega/2) colors.

    omega is ``layout.omega``.  A layout of another graph than ``g``
    raises LayoutMismatch before any color is assigned (the layout
    checked itself against its graph when it was made), and the claims
    of Phase II are asserted as it runs: the clique claims on N(b_j)
    once for the layout, before the first position, and the pivot claims
    in every pivot round.  ``trace``,
    when given, collects (event, position, ...) tuples for the pivot /
    partner / swap steps.  Steps 1 and 2 take the lowest free color.

    Step 1 is one flat loop over the positions, falling, on a window over
    N(b_j) within H_j, kept as two masks of colors: ``on_a`` has bit c
    set iff color c occurs on A_j, and ``on_b`` iff it occurs on the
    B-part j+1 .. maxright(j).  The clique claims, asserted before the
    loop, make each part a clique, so a color occurs at most once in it
    and one XOR adds a color as its vertex enters and removes it as the
    vertex leaves; the free colors are ``full & ~(on_a | on_b)``.  As j
    falls, an A-vertex enters at its right end and leaves below its left
    end (two pointers over the A-vertices by right and by left end), and
    the B-part gains j+1 and loses positions from its top only, because
    maxright is a prefix maximum.  Each vertex enters and leaves the
    window once: O(n_a + n_b) updates, and O(n_a + n_b) for the clique
    claims, against O(n + m) for the final check, which reads G through
    its A-rows.  The window must hold the |A_j| A-vertices the clique
    claims count; ``layout.a_order`` is derived from the intervals, so
    that count is an internal check.  |A_j| also bounds the pivot
    rounds.  The pivot rounds (``_pivot_rounds``) start only where
    ``_free_color`` finds no color free.  They alone count colors on
    N(b_j), in ``find_pivot``, and read ``layout.a_rank`` and A_j as a
    list, so an input without a pivot round builds none of these nor
    ``g.b_adj``.  A round recolors A-vertices only, so ``on_a`` is
    rebuilt from A_j after the rounds and ``on_b`` stands.
    """
    omega = layout.omega
    palette = (3 * omega) // 2
    state = ExtensionState(
        graph=g, layout=layout, palette=palette, colors={}, j=g.n_b - 1,
    )
    a_size = _assert_bj_cliques(state, omega)
    phase1 = greedy_interval_coloring(layout.intervals)
    colors = state.colors
    colors.update(phase1.colors)
    if trace is not None:
        trace.append(("phase1", None, phase1.palette))

    b_seq, ivs = layout.b_seq, layout.intervals
    b_glob, maxright = state._b_glob, state._maxright
    color_of = colors.__getitem__
    full = (1 << palette + 1) - 2  # colors 1..palette
    on_a = on_b = 0  # the colors on A_j and on the positions j+1 .. top

    # the orders of entry and of leaving: by right end (<_A) and left,
    # falling, each with its ends and a sentinel no position passes
    by_right = [a for a in reversed(layout.a_order) if ivs[a] is not None]
    by_left = layout.by_left[::-1]
    enters = [ivs[a][1] for a in by_right] + [-1]
    leaves = [ivs[a][0] for a in by_left] + [-1]
    entered = left = 0
    top = g.n_b - 1  # the B-part is j+1 .. top, empty while top <= j
    for j in range(g.n_b - 1, -1, -1):
        # N(b_j) within H_j is A_j plus the positions j+1 .. maxright(j);
        # each part is a clique, so a color enters and leaves it once
        hi = maxright[j]
        while enters[entered] >= j:
            on_a ^= 1 << color_of(by_right[entered])
            entered += 1
        while leaves[left] > j:
            on_a ^= 1 << color_of(by_left[left])
            left += 1
        for p in range(max(hi, j + 1) + 1, top + 1):
            on_b ^= 1 << color_of(b_glob[p])
        if hi > j:
            on_b ^= 1 << color_of(b_glob[j + 1])
        top = hi
        # the intervals are G's, so the window's A-part is A_j
        if entered - left != a_size[j]:
            raise AlgorithmInvariantViolation(
                f"window holds {entered - left} A-vertices, |A_j| = "
                f"{a_size[j]} at position {j}"
            )
        c = _free_color(full & ~(on_a | on_b))
        if c is None:
            state.j = j
            c, on_a = _pivot_rounds(state, a_size[j] + hi - j + 2, on_b,
                                    full, trace)
        colors[b_glob[j]] = c
        if trace is not None:
            trace.append(("assign", j, b_seq[j], c))

    palette_used = max(colors.values(), default=0)
    result = Coloring(colors, palette_used)
    if not verify_square_coloring(g, result):
        raise AlgorithmInvariantViolation(
            "final coloring failed properness verification"
        )
    return result
