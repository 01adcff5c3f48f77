"""Convex / biconvex recognition and the orderings all algorithms consume.

A bipartite graph is convex when the B side can be ordered so that every
A-neighborhood occupies consecutive positions; equivalently the
neighborhood matrix has the consecutive-ones property for columns.  The
recognizer follows Hsu's overlap-class method ("A simple test for the
consecutive ones property", J. Algorithms 2002) in one forward pass, with
no backtracking and no recursion:

1. Neighborhoods of size >= 2 are deduplicated, sorted by (size,
   members) and grouped into *overlap classes* (connected components
   under strict overlap: the sets meet and neither contains the other).
   A bit set of rows per column gives, for each row, the rows that meet
   it and the rows that contain it.
2. Within a class the arrangement is forced up to reversal.  Rows are
   placed one at a time, each the smallest row that strictly overlaps a
   placed one, onto an ordered partition (cells) of the columns seen so
   far.  Every placed row is a run of whole cells, so splitting the end
   cells of the new row's run breaks none of them; the new row's unseen
   columns must become the first or the last cell (the end-attachment
   rule), and at most one end fits.  A row that fits neither end proves
   that no order exists, so nothing is re-checked or undone.
3. Distinct classes never strictly overlap, so a class whose support
   meets another's lies inside one cell of it.  One scan of the placed
   rows from largest to smallest finds each class's host cell and each
   column's innermost class; the blocks of a cell are ordered by first
   column and an explicit stack writes the order out.

Cost, for m rows and N = the sum of row sizes: O(N) dictionary and set
operations to place rows, assemble and check the result; to find the
classes, O(N) bit-set operations on m-bit integers plus one subset test
per unqueued row that meets a placed row without containing it; and the
sorts.

When a class fails, the complete classes and the partial arrangements of
the failed ones are assembled the same way.  Every placed row is
consecutive under that order, so the NonConvexWitness names an A-vertex
whose neighborhood could not be placed, the order attempted, and the
gap triple itself.

Derived orderings: positions under <_B induce an interval (left, right)
per non-isolated A-vertex, and <_A sorts A by right endpoint with ties
broken by left endpoint then index.  Isolated A-vertices carry no
interval and precede everything in <_A.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from heapq import heappop, heappush
from operator import and_, or_
from typing import Iterable, Sequence

from .core import BipartiteGraph, SimpleGraph
from .errors import LayoutMismatch, SqchromaError


@dataclass(frozen=True)
class ConvexLayout:
    """Ordering data for a convex bipartite graph.

    ``b_pos[b]`` is the position of B-vertex ``b`` under <_B;
    ``intervals[a]`` is the (left, right) position pair of N(a) or None
    for an isolated A-vertex; ``a_order`` lists A-vertices in <_A order.
    """

    b_pos: tuple[int, ...]
    intervals: tuple[tuple[int, int] | None, ...]
    a_order: tuple[int, ...]

    @cached_property
    def b_seq(self) -> tuple[int, ...]:
        """B-vertices by position (inverse of ``b_pos``)."""
        seq = [0] * len(self.b_pos)
        for b, p in enumerate(self.b_pos):
            seq[p] = b
        return tuple(seq)

    @cached_property
    def a_rank(self) -> tuple[int, ...]:
        """Rank of each A-vertex under <_A (inverse of ``a_order``)."""
        rank = [0] * len(self.a_order)
        for r, a in enumerate(self.a_order):
            rank[a] = r
        return tuple(rank)


@dataclass(frozen=True)
class BiconvexLayout:
    """Convex layout for the B side plus an A-ordering that also makes
    every B-neighborhood consecutive.  ``a_pos_prime[a]`` is the position
    of A-vertex ``a`` under <_A'."""

    b_layout: ConvexLayout
    a_pos_prime: tuple[int, ...]


@dataclass(frozen=True)
class NonConvexWitness:
    """Certificate of a failed recognition run.

    ``b_order_attempted`` lists B-vertices in the attempted order; the
    neighborhood of ``violating_a`` has a gap under it, exhibited by the
    triple ``gap`` = (b_p, b_q, b_r): positions p < q < r with b_p and
    b_r neighbors of the vertex and b_q not.
    """

    b_order_attempted: tuple[int, ...]
    violating_a: int
    gap: tuple[int, int, int]


class _ArrangementError(SqchromaError):
    """Internal: an assembled order contradicts the arrangement theory."""


# ---------------------------------------------------------------------------
# Consecutive arrangement engine


def _row_key(row: frozenset) -> tuple:
    return (len(row), tuple(sorted(row)))


class _Cells:
    """Ordered partition of the columns of the rows placed so far in one
    overlap class: a doubly linked list of cells (-1 ends it) and the cell
    of every placed column.  Each placed row is a run of whole cells."""

    def __init__(self, row: frozenset):
        self.members: list[set[int]] = [set(row)]
        self.prev = [-1]
        self.next = [-1]
        self.head = self.tail = 0
        self.cell_of: dict[int, int] = dict.fromkeys(row, 0)

    def _new_cell(self, cols: set[int], after: int, before: int) -> None:
        """Link a cell holding ``cols`` between ``after`` and ``before``."""
        d = len(self.members)
        self.members.append(cols)
        self.cell_of.update(dict.fromkeys(cols, d))
        self.prev.append(after)
        self.next.append(before)
        if after < 0:
            self.head = d
        else:
            self.next[after] = d
        if before < 0:
            self.tail = d
        else:
            self.prev[before] = d

    def _split(self, c: int, row: frozenset, right: bool) -> None:
        """Move the columns of cell ``c`` in ``row`` to a new cell next to
        it, on its right or its left."""
        cols = self.members[c] & row
        self.members[c] -= cols
        if right:
            self._new_cell(cols, c, self.next[c])
        else:
            self._new_cell(cols, self.prev[c], c)

    def place(self, row: frozenset) -> bool:
        """Refine the partition so that ``row`` is a run of cells too, or
        return False when no refinement keeps every placed row consecutive.

        ``row`` strictly overlaps a placed row.  Splitting the end cells of
        the run it touches never breaks a placed row, so the only choice is
        where its new columns go.  Inside the run they would split a placed
        row, and so would any place but the first or last cell (the placed
        rows are overlap-connected, so one of them spans every boundary
        between cells).  At most one end fits, because the row cannot
        contain every placed row: the placement is forced.  (While there
        is a single cell both ends give the same arrangement up to
        reversal; the new columns then go last.)
        """
        members, prev, nxt = self.members, self.prev, self.next
        hit = Counter(map(self.cell_of.get, row))  # cell -> columns of row
        has_new = hit.pop(None, 0) > 0
        p = q = next(iter(hit))
        while prev[p] in hit:
            p = prev[p]
        while nxt[q] in hit:
            q = nxt[q]
        run = [p]
        while run[-1] != q:
            run.append(nxt[run[-1]])
        if len(run) != len(hit):
            return False  # the touched cells are not contiguous
        if any(hit[c] != len(members[c]) for c in run[1:-1]):
            return False  # an inner cell of the run sticks out of the row
        full_p = hit[p] == len(members[p])
        full_q = hit[q] == len(members[q])
        if not has_new:
            if p == q:  # inside one cell: unreachable for an overlapping row
                return full_p
            if not full_p:
                self._split(p, row, right=True)
            if not full_q:
                self._split(q, row, right=False)
            return True
        new = set(row.difference(self.cell_of))
        if q == self.tail and (p == q or full_q):
            if not full_p:
                self._split(p, row, right=True)
            self._new_cell(new, self.tail, -1)
            return True
        if p == self.head and (p == q or full_p):
            if not full_q:
                self._split(q, row, right=False)
            self._new_cell(new, -1, self.head)
            return True
        return False

    def order(self) -> list[int]:
        """Cell ids from the first cell to the last."""
        ids = []
        c = self.head
        while c >= 0:
            ids.append(c)
            c = self.next[c]
        return ids


@dataclass
class _OverlapClass:
    """One overlap class: the rows placed, as indices into the sorted row
    list, and the cells they arrange.  ``complete`` is False when a row
    could not be placed; the cells then arrange the rows placed before it."""

    rows: list[int]
    cells: _Cells
    complete: bool


def _overlap_classes(sets: list[frozenset]) -> list[_OverlapClass]:
    """Overlap classes of ``sets`` (sorted by ``_row_key``), each arranged.

    A class starts at the smallest row not yet queued; the next row
    placed is always the smallest queued one, and placing a row queues
    every row that strictly overlaps it (a heap of ranks), so each placed
    row strictly overlaps an earlier one.  After a failed placement the
    rest of the class is still collected, but not placed.

    The column index holds, per column, the bit set of the rows through
    it.  OR-ing and AND-ing it over a row gives the rows that meet it and
    the rows that contain it, so the rows around a row are set aside by
    bit operations instead of a scan of their columns.
    """
    col_rows: dict[int, int] = {}
    for i, s in enumerate(sets):
        bit = 1 << i
        for x in s:
            col_rows[x] = col_rows.get(x, 0) | bit
    unqueued = (1 << len(sets)) - 1
    classes: list[_OverlapClass] = []
    while unqueued:
        low = unqueued & -unqueued
        unqueued ^= low
        start = low.bit_length() - 1
        heap = [start]
        cells = _Cells(sets[start])
        placed: list[int] = []
        complete = True
        while heap:
            i = heappop(heap)
            row = sets[i]
            if i == start or complete and cells.place(row):
                placed.append(i)
            else:
                complete = False
            masks = list(map(col_rows.__getitem__, row))
            cand = reduce(or_, masks) & ~reduce(and_, masks) & unqueued
            while cand:  # rows meeting this one, not around it, unqueued
                low = cand & -cand
                cand ^= low
                j = low.bit_length() - 1
                if not sets[j] <= row:  # strict overlap
                    unqueued ^= low
                    heappush(heap, j)
        classes.append(_OverlapClass(placed, cells, complete))
    return classes


def _assemble(n_cols: int, sets: list[frozenset],
              classes: list[_OverlapClass]) -> list[int]:
    """Column order putting each class's arrangement inside one cell of its
    host class, with the blocks of each cell ordered by first column.

    Distinct classes never strictly overlap, so when their supports meet,
    one lies inside a single cell of the other.  The host of a class is
    the class of the smallest row of another class containing its support;
    scanning the placed rows from largest to smallest, that is the last
    class recorded at any of its columns when its largest row comes up.
    The same scan leaves each column with its innermost class, in whose
    cell it is a block of its own.
    """
    class_of: dict[int, int] = {}
    for k, cls in enumerate(classes):
        class_of.update(dict.fromkeys(cls.rows, k))
    owner: dict[int, int] = {}
    host: dict[int, tuple[int, int]] = {}  # class -> (host or -1, a column)
    for i in sorted(class_of, reverse=True):
        k = class_of[i]
        if k not in host:
            x = next(iter(sets[i]))
            host[k] = (owner.get(x, -1), x)
        owner.update(dict.fromkeys(sets[i], k))
    # blocks per cell: (first column, class), class -1 for a lone column
    top: list[tuple[int, int]] = []
    blocks = [[[] for _ in cls.cells.members] for cls in classes]
    for x in range(n_cols):
        k = owner.get(x, -1)
        dest = top if k < 0 else blocks[k][classes[k].cells.cell_of[x]]
        dest.append((x, -1))
    flat: list[list[tuple[int, int]]] = [[] for _ in classes]
    for k in reversed(host):  # dicts keep insertion order: hosts come first
        for c in classes[k].cells.order():
            blocks[k][c].sort()
            flat[k].extend(blocks[k][c])
        h, x = host[k]
        dest = top if h < 0 else blocks[h][classes[h].cells.cell_of[x]]
        dest.append((flat[k][0][0], k))
    top.sort()
    order: list[int] = []
    stack = [iter(top)]
    while stack:
        for x, k in stack[-1]:
            if k < 0:
                order.append(x)
            else:
                stack.append(iter(flat[k]))
                break
        else:
            stack.pop()
    return order


def _arrange(n_cols: int, rows: Iterable[Iterable[int]]
             ) -> tuple[list[int], list[int], bool]:
    """Column order, the position of each column under it, and whether it
    makes every row consecutive.

    On failure the order assembles the complete classes and the partial
    arrangements of the failed ones, so a row with a gap under it exists.
    On success every row has been checked against the order (fail closed),
    so callers need not check it again.
    """
    sets = sorted({s for s in map(frozenset, rows) if len(s) >= 2},
                  key=_row_key)
    cols = frozenset().union(*sets)
    if cols and (min(cols) < 0 or max(cols) >= n_cols):
        raise ValueError(f"row columns must lie in 0..{n_cols - 1}")
    classes = _overlap_classes(sets)
    order = _assemble(n_cols, sets, classes)
    pos = [0] * n_cols
    for p, x in enumerate(order):
        pos[x] = p
    if not all(cls.complete for cls in classes):
        return order, pos, False
    for s in sets:  # fail closed: the assembled order must fit every row
        ps = list(map(pos.__getitem__, s))
        if max(ps) - min(ps) + 1 != len(ps):
            raise _ArrangementError("assembled order violates a row")
    return order, pos, True


def consecutive_order(n_cols: int,
                      rows: Iterable[Iterable[int]]) -> list[int] | None:
    """Column order making every row consecutive, or None if none exists.

    Deterministic for a fixed input.  Rows of size < 2 impose nothing;
    a longer row naming a column outside 0..n_cols-1 raises ValueError.
    """
    order, _, ok = _arrange(n_cols, rows)
    return order if ok else None


def attempted_order(n_cols: int, rows: Iterable[Iterable[int]]) -> list[int]:
    """The order ``consecutive_order`` would return, or on failure the
    assembled partial arrangement, for witness construction."""
    return _arrange(n_cols, rows)[0]


# ---------------------------------------------------------------------------
# Public recognition operations


def _compute_a_order(g: BipartiteGraph,
                     intervals: Sequence[tuple[int, int] | None]) -> tuple[int, ...]:
    isolated = [a for a in range(g.n_a) if intervals[a] is None]
    rest = sorted(
        (a for a in range(g.n_a) if intervals[a] is not None),
        key=lambda a: (intervals[a][1], intervals[a][0], a),
    )
    return tuple(isolated + rest)


def _intervals(g: BipartiteGraph,
               b_pos: Sequence[int]) -> tuple[tuple[int, int] | None, ...]:
    """(first, last) position of every A-neighborhood, None if empty."""
    intervals: list[tuple[int, int] | None] = []
    for nbrs in g.adj:
        ps = list(map(b_pos.__getitem__, nbrs))
        intervals.append((min(ps), max(ps)) if ps else None)
    return tuple(intervals)


def layout_from_order(g: BipartiteGraph, b_seq: Sequence[int]) -> ConvexLayout:
    """Layout induced by an explicit B-order; raises LayoutMismatch when
    some neighborhood is not consecutive under it."""
    if sorted(b_seq) != list(range(g.n_b)):
        raise LayoutMismatch("b_seq is not a permutation of the B side")
    b_pos = [0] * g.n_b
    for p, b in enumerate(b_seq):
        b_pos[b] = p
    ivs = _intervals(g, b_pos)
    for a, iv in enumerate(ivs):
        if iv is not None and iv[1] - iv[0] + 1 != len(g.adj[a]):
            raise LayoutMismatch(
                f"neighborhood of A{a} is not consecutive under the order"
            )
    return ConvexLayout(tuple(b_pos), ivs, _compute_a_order(g, ivs))


def recognize_convex(g: BipartiteGraph) -> ConvexLayout | NonConvexWitness:
    """Convex layout of ``g``, or a witness that no B-order works."""
    attempt, pos, ok = _arrange(g.n_b, g.adj)
    if ok:  # _arrange has checked every neighborhood against the order
        ivs = _intervals(g, pos)
        return ConvexLayout(tuple(pos), ivs, _compute_a_order(g, ivs))
    for a in range(g.n_a):  # first vertex with a gap under the attempt
        nbrs = g.adj[a]
        if len(nbrs) < 2:
            continue
        ps = sorted(pos[b] for b in nbrs)
        if ps[-1] - ps[0] + 1 == len(ps):
            continue
        have = set(ps)
        q = next(p for p in range(ps[0] + 1, ps[-1]) if p not in have)
        r = next(p for p in ps if p > q)
        p0 = max(p for p in ps if p < q)
        return NonConvexWitness(
            b_order_attempted=tuple(attempt),
            violating_a=a,
            gap=(attempt[p0], attempt[q], attempt[r]),
        )
    raise _ArrangementError(  # pragma: no cover
        "arrangement failed but every neighborhood fits the attempt"
    )


def order_A(g: BipartiteGraph, layout: ConvexLayout) -> tuple[int, ...]:
    """<_A permutation: right endpoint, then left, then index; isolated
    A-vertices first.  Raises LayoutMismatch if the layout's intervals do
    not describe ``g``."""
    if len(layout.b_pos) != g.n_b or len(layout.intervals) != g.n_a:
        raise LayoutMismatch("layout sizes disagree with the graph")
    if sorted(layout.b_pos) != list(range(g.n_b)):
        raise LayoutMismatch("b_pos is not a permutation")
    for a in range(g.n_a):
        nbrs = g.adj[a]
        iv = layout.intervals[a]
        if not nbrs:
            if iv is not None:
                raise LayoutMismatch(f"isolated A{a} carries an interval")
            continue
        if iv is None:
            raise LayoutMismatch(f"A{a} has neighbors but no interval")
        ps = sorted(layout.b_pos[b] for b in nbrs)
        if (ps[0], ps[-1]) != iv or ps[-1] - ps[0] + 1 != len(ps):
            raise LayoutMismatch(f"interval of A{a} disagrees with N(A{a})")
    return _compute_a_order(g, layout.intervals)


def recognize_biconvex(g: BipartiteGraph) -> BiconvexLayout | None:
    """Biconvex layout, or None: the two consecutive-ones instances (B
    ordered against A-neighborhoods, A ordered against B-neighborhoods)
    are independent constraints."""
    b_result = recognize_convex(g)
    if isinstance(b_result, NonConvexWitness):
        return None
    a_seq = consecutive_order(g.n_a, [g.b_adj[b] for b in range(g.n_b)])
    if a_seq is None:
        return None
    a_pos = [0] * g.n_a
    for p, a in enumerate(a_seq):
        a_pos[a] = p
    return BiconvexLayout(b_layout=b_result, a_pos_prime=tuple(a_pos))


def check_proper_ordering(h: SimpleGraph, layout: ConvexLayout) -> bool:
    """True iff <_B is a proper vertex ordering of ``h`` (any edge uw with
    u < v < w forces edges uv and vw).  ``h`` is half_square(g, B)."""
    seq = layout.b_seq
    if h.n != len(seq):
        raise LayoutMismatch("graph on B expected")
    pos = layout.b_pos
    for u in range(h.n):
        for w in h.adj[u]:
            if pos[u] >= pos[w]:
                continue
            for p in range(pos[u] + 1, pos[w]):
                v = seq[p]
                if v not in h.adj[u] or v not in h.adj[w]:
                    return False
    return True
