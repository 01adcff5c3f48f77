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

Inputs whose rows are already runs of consecutive labels, as every
convex input the generators make is, skip step 1's index, step 2's
placement and step 3's scan: the order is written off the rows'
endpoints.  Two runs [l1, r1] and [l2, r2] strictly overlap when
l1 < l2 <= r1 < r2, and one sweep over the endpoints finds the
components of that relation.  In any consecutive order of an
overlap-connected class each atom (the columns lying in the same rows of
the class) is a run, so the segments between the class's endpoints are
its atoms, which are the engine's final cells.  The engine's order of
them is the labels' order or its reverse, and the first two rows it
places decide which: the class's smallest row lies before the smallest
row that strictly overlaps it.  With step 3 on top, the engine's whole
order is the labels' order, except that each class it reverses lists
its cells from the last to the first, each cell in the same order
inside; one walk over the nested spans of the reversed classes writes
it.  The final check is shared, so both paths give the same order.  On
runs the order written is the labels' own unless some class is
reversed, and then the check reads each row's interval off its ends:
the run test has shown every row to be a run of labels, hence of
positions.

Cost, for m rows, k <= m distinct rows of size >= 2 and N = the sum of
row sizes.  Rows arrive as the sorted tuples ``BipartiteGraph.adj``
holds, so a row is a run of its labels when its ends are len - 1
apart: O(m) tests.  On consecutive labels the rows are ranked by (size,
left end) and their 2k endpoints sorted, O(k log k); the sweep and its
union-find, and collecting the endpoints of the reversed classes, are
O(k log k) too, and the walk writes the order in O(n_cols + k log k)
without a set or dict per column.  When that order is the identity, one
list comparison shows it, and each row's interval is its first and last
label: O(m), with no slice of positions.  Under any other order checking
the result costs O(N).  On any other rows the engine deduplicates and
sorts the rows as tuples, and placing rows, assembling and checking cost
O(N) dictionary and set operations, and the classes cost O(N) bit-set
operations on m-bit integers plus one subset test per unqueued row that
meets a placed row without containing it.  That column index is a list by column, and a
row's bit sets are OR- and AND-reduced as they are read off it, so it
takes time about N*m and memory about n_cols*m bits.  Placing a row
collects the cells its columns lie in as one set and walks its run,
testing each cell at the ends and inside the run for fullness as a
subset of the row; a subset test stops at the smaller size, so this
costs O(|row|) without counting columns per cell.  One pass reads the
first and last position of every row under the final order: it checks
the row against the order (fail closed) and gives the row's interval.

A verdict of no order stops at the first row that cannot be placed: the
classes are generated one at a time, so it pays for the sort, the column
index, the classes before the failed one and that class up to the
failed row, and assembles nothing.  At that point the failed class is
checked, fail closed: under its cells from left to right and then the
failed row's new columns, one of its rows must have a gap.
The NonConvexWitness builds its fields when first read, by finishing the
same arrangement: the rest of the failed class is collected but not
placed, the later classes are arranged, and the complete classes and the
partial arrangements of the failed ones are assembled as above.  Every
placed row is consecutive under that order, so the witness names an
A-vertex whose neighborhood could not be placed, the order attempted,
and the gap triple itself.  Only ``recognize`` prints it; ``color``,
``structure`` and ``experiment`` read the verdict alone.

Derived orderings: positions under <_B induce an interval (left, right)
per non-isolated A-vertex, and <_A sorts A by right endpoint with ties
broken by left endpoint then index.  Isolated A-vertices carry no
interval and precede everything in <_A.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property, reduce
from heapq import heappop, heappush
from itertools import groupby
from operator import and_, itemgetter, or_, sub
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .core import BipartiteGraph, SimpleGraph, inverse
from .errors import AlgorithmInvariantViolation, LayoutMismatch


@dataclass(frozen=True)
class ConvexLayout:
    """Ordering data for a convex bipartite graph.

    ``b_pos[b]`` is the position of B-vertex ``b`` under <_B;
    ``intervals[a]`` is the (left, right) position pair of N(a) or None
    for an isolated A-vertex; ``a_order`` lists A-vertices in <_A order.
    Derived on first read: their inverses ``b_seq`` and ``a_rank``, and
    ``by_left``, the one order of A by left end, for omega and Phase II.
    """

    b_pos: tuple[int, ...]
    intervals: tuple[tuple[int, int] | None, ...]
    a_order: tuple[int, ...]

    @cached_property
    def b_seq(self) -> tuple[int, ...]:
        """B-vertices by position (inverse of ``b_pos``)."""
        return tuple(inverse(self.b_pos))

    @cached_property
    def a_rank(self) -> tuple[int, ...]:
        """Rank of each A-vertex under <_A (inverse of ``a_order``)."""
        return tuple(inverse(self.a_order))

    @cached_property
    def by_left(self) -> tuple[int, ...]:
        """The A-vertices with an interval, by left end, index on ties."""
        ivs = self.intervals
        return tuple(sorted((a for a, iv in enumerate(ivs) if iv is not None),
                            key=lambda a: ivs[a][0]))

    @cached_property
    def omega(self) -> int:
        """omega(G^2) of the laid-out graph G, in closed form, computed
        once per layout.

        A clique of the square is a run [l, r] of B-positions plus the
        A-intervals containing it (at least one when r > l), so omega is
        the maximum of (#intervals containing [l, r]) + (r - l + 1).  Only
        left endpoints need trying as l; for the k intervals through l
        reaching furthest right, r is the k-th largest right endpoint.

        The negated right ends of the intervals through l stay in one
        ascending list ``nr`` across the sweep, so r_k = -nr[k-1]: each
        interval enters it once by ``insort`` and leaves it once, in a
        slice deletion of the ended ones (right end below l) at its tail.
        At each left endpoint max(k + r_k) is one pass of C builtins over
        the intervals through it.

        That pass is skipped where it cannot raise the best value: with
        K intervals through l, k <= K and r_k <= r_1 = -nr[0] for every
        k, so (k + r_k) - l + 1 <= K + r_1 - l + 1, and a left endpoint
        whose bound is no more than the best so far is passed over.
        """
        if not self.intervals and not self.b_pos:
            return 0
        best = 1
        nr: list[int] = []  # negated right ends of the intervals through l
        for left, starting in groupby(map(self.intervals.__getitem__,
                                          self.by_left), key=itemgetter(0)):
            del nr[bisect_right(nr, -left):]
            for _, r in starting:
                insort(nr, -r)
            if len(nr) - nr[0] - left + 1 > best:  # K + r_1 - l + 1
                best = max(best, max(map(sub, range(1, len(nr) + 1), nr))
                           - left + 1)
        return best


@dataclass(frozen=True)
class BiconvexLayout:
    """Convex layout for the B side plus an A-ordering that also makes
    every B-neighborhood consecutive.  ``a_pos_prime[a]`` is the position
    of A-vertex ``a`` under <_A'."""

    b_layout: ConvexLayout
    a_pos_prime: tuple[int, ...]


class NonConvexWitness:
    """Certificate of a failed recognition run.

    ``b_order_attempted`` lists B-vertices in the attempted order; the
    neighborhood of ``violating_a`` has a gap under it, exhibited by the
    triple ``gap`` = (b_p, b_q, b_r): positions p < q < r with b_p and
    b_r neighbors of the vertex and b_q not.

    Recognition stops at the first row it cannot place.  The attempted
    order is built on the first read of a field, by finishing the same
    arrangement, so a caller that only needs the verdict never pays for
    it.
    """

    def __init__(self, rows: Sequence[Sequence[int]],
                 attempt: Callable[[], list[int]]):
        self._rows = rows
        self._attempt = attempt

    @cached_property
    def b_order_attempted(self) -> tuple[int, ...]:
        order = tuple(self._attempt())
        del self._attempt  # the engine's state is no longer needed
        return order

    @cached_property
    def _violation(self) -> tuple[int, tuple[int, int, int]]:
        """The first row with a gap under the attempt, and the gap."""
        attempt = self.b_order_attempted
        pos = inverse(attempt)
        for a, nbrs in enumerate(self._rows):
            if len(nbrs) < 2:
                continue
            ps = sorted(pos[b] for b in nbrs)
            if ps[-1] - ps[0] + 1 == len(ps):
                continue
            have = set(ps)
            q = next(p for p in range(ps[0] + 1, ps[-1]) if p not in have)
            r = next(p for p in ps if p > q)
            p0 = max(p for p in ps if p < q)
            return a, (attempt[p0], attempt[q], attempt[r])
        raise AlgorithmInvariantViolation(  # pragma: no cover
            "arrangement failed but every neighborhood fits the attempt"
        )

    @property
    def violating_a(self) -> int:
        return self._violation[0]

    @property
    def gap(self) -> tuple[int, int, int]:
        return self._violation[1]

    def __repr__(self) -> str:
        return (f"NonConvexWitness(b_order_attempted={self.b_order_attempted}"
                f", violating_a={self.violating_a}, gap={self.gap})")


# ---------------------------------------------------------------------------
# Consecutive arrangement engine


class _Cells:
    """Ordered partition of the columns of the rows placed so far in one
    overlap class: a doubly linked list of cells (-1 ends it) and the cell
    of every placed column.  Each placed row is a run of whole cells."""

    def __init__(self, row: Collection[int]):
        """One cell holding the columns of ``row``."""
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
        hit = set(map(self.cell_of.get, row))  # None stands for new columns
        has_new = None in hit
        hit.discard(None)
        p = next(iter(hit))
        while prev[p] in hit:
            p = prev[p]
        q, run = p, 1
        while nxt[q] in hit:
            if q != p and not members[q] <= row:
                return False  # an inner cell of the run sticks out of the row
            q = nxt[q]
            run += 1
        if run != len(hit):
            return False  # the touched cells are not contiguous
        full_p = members[p] <= row
        full_q = members[q] <= row
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
    list, and the cells they arrange.  ``failed`` is the row that could
    not be placed, or -1; the cells then arrange the rows placed before
    it."""

    rows: list[int]
    cells: _Cells
    failed: int = -1

    @property
    def complete(self) -> bool:
        return self.failed < 0


def _overlap_classes(n_cols: int,
                     sets: list[frozenset]) -> Iterator[_OverlapClass]:
    """Overlap classes of ``sets`` (sorted by size, then members), each
    arranged, in the order they start.

    A class starts at the smallest row not yet queued; the next row
    placed is always the smallest queued one, and placing a row queues
    every row that strictly overlaps it (a heap of ranks), so each placed
    row strictly overlaps an earlier one.  A class that fails is yielded
    at the row that failed, so a caller that only needs the verdict stops
    there.  If the caller goes on, the rest of the class is collected, but
    not placed, and the classes after it follow.

    The column index holds, per column, the bit set of the rows through
    it.  OR-ing and AND-ing it over a row gives the rows that meet it and
    the rows that contain it, so the rows around a row are set aside by
    bit operations instead of a scan of their columns.
    """
    col_rows = [0] * n_cols
    for i, s in enumerate(sets):
        bit = 1 << i
        for x in s:
            col_rows[x] |= bit
    rows_at = col_rows.__getitem__
    unqueued = (1 << len(sets)) - 1
    while unqueued:
        low = unqueued & -unqueued
        unqueued ^= low
        start = low.bit_length() - 1
        heap = [start]
        cls = _OverlapClass([], _Cells(sets[start]))
        while heap:
            i = heappop(heap)
            row = sets[i]
            if i == start or cls.complete and cls.cells.place(row):
                cls.rows.append(i)
            elif cls.complete:  # the first row of the class that fails
                cls.failed = i
                yield cls
            # rows meeting this one, not around it, unqueued
            cand = (reduce(or_, map(rows_at, row))
                    & ~reduce(and_, map(rows_at, row)) & unqueued)
            while cand:
                low = cand & -cand
                cand ^= low
                j = low.bit_length() - 1
                if not sets[j] <= row:  # strict overlap
                    unqueued ^= low
                    heappush(heap, j)
        if cls.complete:
            yield cls


def _check_failure(sets: list[frozenset], cls: _OverlapClass) -> None:
    """Fail closed at a failed placement: some row of the class must have
    a gap under its cells from left to right, each cell's columns
    ascending, then the failed row's new columns ascending.

    Every placed row is a run of cells.  ``_Cells.place`` refuses a row
    only when, under this order, a column outside it lies between two of
    its own: in a cell its run skips, in an inner cell of its run, or,
    when it has new columns, in a cell after its run or in the part of
    its last cell it lacks.  So the failed row has a gap, and the check
    cannot fire on a correct engine.  Raises AlgorithmInvariantViolation
    otherwise.
    """
    cells = cls.cells
    failed = sets[cls.failed]
    order = [x for c in cells.order() for x in sorted(cells.members[c])]
    order += sorted(failed.difference(cells.cell_of))
    pos = dict(zip(order, range(len(order))))
    for i in [cls.failed, *cls.rows]:
        ps = list(map(pos.__getitem__, sets[i]))
        if max(ps) - min(ps) + 1 != len(ps):
            return
    raise AlgorithmInvariantViolation("a row failed to place, but every "
                                      "row of its class fits the cells")


def _reversed_classes(n_cols: int, rows: Sequence[tuple[int, ...]]
                      ) -> list[list[int]]:
    """The overlap classes of ``rows``, every one a run of its labels,
    whose engine order lists their cells backwards: each as its sorted
    endpoints, the outer spans first.  Raises ValueError for a row of size
    >= 2 naming a column outside 0..n_cols-1.

    A run's rank is its place in (size, left) order, which is the (size,
    members) order ``_ranked`` gives.  Each pair is ranked as one integer, so
    no row is hashed or compared as a tuple.  Two runs [l1, r1] and [l2, r2]
    with l1 <= l2 strictly overlap when l1 < l2 <= r1 < r2.  One sweep finds
    the classes.  Runs open in order of left end, the longer first on a tie,
    and close in order of right end, the later opened first on a tie; a run
    opens before the runs that end at or after its left end close.  A stack
    holds the classes of the open runs, each as one block, those opened last on
    top.  By the tie rules, every run above a closing run's block starts after
    it, starts before it ends, and ends after it: it strictly overlaps the
    closing run, so those blocks join its class.  A union-find keeps the
    classes.

    The engine places a class's smallest row first and the smallest row
    that strictly overlaps it second, and lists the class's cells in the
    order those two rows take: backwards when the second starts left of
    the first.  A class of one row has one cell, and is never reversed.
    """
    long_rows = [row for row in rows if len(row) >= 2]
    if long_rows and (min([row[0] for row in long_rows]) < 0
                      or max([row[-1] for row in long_rows]) >= n_cols):
        raise ValueError(f"row columns must lie in 0..{n_cols - 1}")
    w = n_cols + 1  # a pair (x, y) as the integer x * w + y
    ranked = sorted({len(row) * w + row[0] for row in long_rows})
    k = len(ranked)
    lefts = [rank % w for rank in ranked]
    rights = [rank // w + left - 1 for rank, left in zip(ranked, lefts)]
    key = [left * w - right for left, right in zip(lefts, rights)]
    opens = sorted(range(k), key=key.__getitem__)
    key = [right * w - left for left, right in zip(lefts, rights)]
    closes = sorted(range(k), key=key.__getitem__)
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    stack: list[int] = []  # roots of the open classes, the innermost last
    open_rows = [0] * k  # per root, the rows of its class still open
    started = iter(opens)
    nxt = next(started, -1)
    for j in closes:
        while nxt >= 0 and lefts[nxt] <= rights[j]:
            stack.append(nxt)
            open_rows[nxt] = 1
            nxt = next(started, -1)
        c = parent[j]  # most rows hang off their root: no call then
        if parent[c] != c:
            c = find(c)
        while stack[-1] != c:
            top = stack.pop()
            parent[top] = c
            open_rows[c] += open_rows[top]
        open_rows[c] -= 1
        if not open_rows[c]:
            stack.pop()
    roots = [p if parent[p] == p else find(i) for i, p in enumerate(parent)]
    first = [-1] * k  # per root, the smallest row of its class
    second = [-1] * k  # and the smallest row strictly overlapping that one
    for i, c in enumerate(roots):
        f = first[c]
        if f < 0:
            first[c] = i
        elif second[c] < 0 and (lefts[f] < lefts[i] <= rights[f] < rights[i]
                                or lefts[i] < lefts[f] <= rights[i]
                                < rights[f]):
            second[c] = i
    ends: dict[int, set[int]] = {c: set() for c, s in enumerate(second)
                                 if s >= 0 and lefts[s] < lefts[first[c]]}
    if ends:
        for i, c in enumerate(roots):
            if c in ends:
                ends[c].update((lefts[i], rights[i] + 1))
    return sorted(map(sorted, ends.values()), key=lambda e: (e[0], -e[-1]))


def _run_order(n_cols: int, spans: list[list[int]]) -> list[int]:
    """The engine's column order for rows that are runs of their labels,
    given the sorted endpoints of their reversed classes, outer spans
    first (``_reversed_classes``).

    The engine orders the blocks of every cell, and the top-level blocks,
    by first column.  On runs this order is the labels', except that a
    reversed class lists its cells from the last to the first:
    - Classes are laminar: when two supports meet, one lies in a single
      cell of the other, so the spans of the reversed classes form a
      forest, and each lies in one cell of every span around it.
    - An overlap-connected class of runs covers its whole span, so no
      lone column falls inside a nested span, and the blocks of a cell
      are disjoint runs of labels.
    - Blocks within a cell are sorted by first column, which lies inside
      the block, so they come out in label order.  A class that is not
      reversed lists its cells in label order too, so only the reversed
      classes move any column.

    One walk with an explicit stack of segments writes the order, so the
    nesting depth costs no Python recursion.  A segment is a range of
    labels and the spans that lie in it, a slice of ``spans``, in which
    the spans nested in one span follow it.  A segment is written in
    label order up to its first span; the rest of the segment after that
    span goes on the stack, then the span's cells, the first cell lowest,
    so the last cell comes off first.  The spans of a cell are found by
    bisection on the spans' left ends.  Each span pushes one segment per
    cell and one more, so the walk costs O(n_cols + k log k) for k rows.
    """
    starts = [e[0] for e in spans]
    order: list[int] = []
    stack = [(0, n_cols, 0, len(spans))]  # (lo, hi, spans[i:j] in [lo, hi))
    while stack:
        lo, hi, i, j = stack.pop()
        if i == j:
            order.extend(range(lo, hi))
            continue
        ends = spans[i]
        order.extend(range(lo, ends[0]))
        inner = bisect_left(starts, ends[-1], i + 1, j)  # past those nested
        stack.append((ends[-1], hi, inner, j))
        i += 1
        for a, b in zip(ends, ends[1:]):
            d = bisect_left(starts, b, i, inner)
            stack.append((a, b, i, d))
            i = d
    return order


def _assemble(n_cols: int, sets: Sequence[Collection[int]],
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
    owner = [-1] * n_cols
    host: dict[int, tuple[int, int]] = {}  # class -> (host or -1, a column)
    for i in sorted(class_of, reverse=True):
        k = class_of[i]
        if k not in host:
            x = next(iter(sets[i]))
            host[k] = (owner[x], x)
        for x in sets[i]:
            owner[x] = k
    # blocks per cell: (first column, class), class -1 for a lone column
    top: list[tuple[int, int]] = []
    blocks = [[[] for _ in cls.cells.members] for cls in classes]
    for x, k in enumerate(owner):
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


def _arrange(n_cols: int, rows: Sequence[tuple[int, ...]]
             ) -> tuple[list[int], list[int], tuple] | NonConvexWitness:
    """Column order, the position of each column under it, and the
    ``_intervals`` of ``rows`` under it; or, when no order makes every row
    consecutive, a NonConvexWitness over ``rows``.  ``rows`` are sorted,
    duplicate-free tuples, as the rows of ``BipartiteGraph.adj`` are.

    When every row is a run of consecutive columns, the order is written
    off the rows' endpoints (``_reversed_classes``, ``_run_order``);
    otherwise the engine arranges them (``_arrange_engine``).  Both give
    the same result.

    On runs the written order is usually the identity, and then each
    row's interval is (first label, last label) with no pass over
    positions.  That is still the check ``_checked`` makes, fail closed:
    the run test above has shown every row to be consecutive under the
    labels, and the comparison with ``range(n_cols)`` shows that the
    order is the labels'.  Any other order, a reversed class's included,
    goes through ``_checked``.
    """
    if all(len(row) < 2 or row[-1] - row[0] + 1 == len(row) for row in rows):
        order = _run_order(n_cols, _reversed_classes(n_cols, rows))
        identity = list(range(n_cols))
        if order == identity:  # every row is a run of positions
            return order, identity, tuple([(row[0], row[-1]) if row else None
                                           for row in rows])
        return _checked(rows, order)
    return _arrange_engine(n_cols, rows, _ranked(n_cols, rows))


def _ranked(n_cols: int,
            rows: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The distinct rows of size >= 2, sorted by (size, members); a row's
    rank is its index here.  Raises ValueError for a row naming a column
    outside 0..n_cols-1."""
    ranked = sorted({row for row in rows if len(row) >= 2})
    ranked.sort(key=len)  # stable, so by size and then by members
    if ranked and (min(row[0] for row in ranked) < 0
                   or max(row[-1] for row in ranked) >= n_cols):
        raise ValueError(f"row columns must lie in 0..{n_cols - 1}")
    return ranked


def _arrange_engine(n_cols: int, rows: Sequence[tuple[int, ...]],
                    ranked: list[tuple[int, ...]]
                    ) -> tuple[list[int], list[int], tuple] | NonConvexWitness:
    """``_arrange`` by placing the ``_ranked`` rows one at a time, for any
    rows.

    The arrangement stops at the first row that cannot be placed, after
    ``_check_failure``.  The witness finishes it when read: the order then
    assembles the complete classes and the partial arrangements of the
    failed ones, so a row with a gap under it exists.
    """
    sets = list(map(frozenset, ranked))
    classes: list[_OverlapClass] = []
    pending = _overlap_classes(n_cols, sets)
    for cls in pending:
        classes.append(cls)
        if not cls.complete:
            _check_failure(sets, cls)

            def attempt() -> list[int]:
                classes.extend(pending)
                return _assemble(n_cols, sets, classes)

            return NonConvexWitness(rows, attempt)
    return _checked(rows, _assemble(n_cols, sets, classes))


def _checked(rows: Sequence[tuple[int, ...]],
             order: list[int]) -> tuple[list[int], list[int], tuple]:
    """``order``, the position of each column under it, and the
    ``_intervals`` of ``rows``.  The same pass that finds a row's interval
    checks the row against the order (fail closed), so callers need not
    check it again.  Every order the engine assembles, and every order of
    runs but the identity, comes through here; ``_arrange`` reads the
    identity's intervals off the rows' ends, having shown each row to be
    a run of labels and so of positions."""
    pos = inverse(order)
    try:
        return order, pos, _intervals(rows, pos)
    except LayoutMismatch as exc:
        raise AlgorithmInvariantViolation(
            "assembled order violates a row") from exc


def _normalized(rows: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
    """The rows of size >= 2 as sorted, duplicate-free tuples."""
    return [row for row in map(tuple, map(sorted, map(set, rows)))
            if len(row) >= 2]


def consecutive_order(n_cols: int,
                      rows: Iterable[Iterable[int]]) -> list[int] | None:
    """Column order making every row consecutive, or None if none exists.

    Deterministic for a fixed input.  Rows of size < 2 impose nothing;
    a longer row naming a column outside 0..n_cols-1 raises ValueError.
    """
    result = _arrange(n_cols, _normalized(rows))
    return None if isinstance(result, NonConvexWitness) else result[0]


# ---------------------------------------------------------------------------
# Public recognition operations


def _compute_a_order(intervals: Sequence[tuple[int, int] | None],
                     width: int) -> tuple[int, ...]:
    """<_A: isolated A-vertices first, then by right endpoint, then left,
    then index.  Every endpoint is below ``width``."""
    keys = [-1 if iv is None else iv[1] * width + iv[0] for iv in intervals]
    return tuple(sorted(range(len(keys)), key=keys.__getitem__))


def _intervals(rows: Sequence[Sequence[int]],
               pos: Sequence[int]) -> tuple[tuple[int, int] | None, ...]:
    """(first, last) position of every row, None if empty.  The rows are
    sorted, duplicate-free and in range, as the rows of
    ``BipartiteGraph.adj`` are.

    A row that is a run of its labels has the positions of the slice
    ``pos[row[0]:row[-1] + 1]``; any other row maps through ``pos`` label
    by label.  The same pass checks every row on the min, max and number
    of its positions: the first that is not a run of positions raises
    LayoutMismatch, naming it as the A-vertex of that index."""
    intervals: list[tuple[int, int] | None] = []
    for a, row in enumerate(rows):
        if not row:
            intervals.append(None)
            continue
        if row[-1] - row[0] + 1 == len(row):
            ps = pos[row[0]:row[-1] + 1]
        else:
            ps = list(map(pos.__getitem__, row))
        first, last = min(ps), max(ps)
        if last - first + 1 != len(ps):
            raise LayoutMismatch(
                f"neighborhood of A{a} is not consecutive under the order"
            )
        intervals.append((first, last))
    return tuple(intervals)


def layout_from_order(g: BipartiteGraph, b_seq: Sequence[int]) -> ConvexLayout:
    """Layout induced by an explicit B-order; raises LayoutMismatch when
    some neighborhood is not consecutive under it."""
    if sorted(b_seq) != list(range(g.n_b)):
        raise LayoutMismatch("b_seq is not a permutation of the B side")
    b_pos = inverse(b_seq)
    ivs = _intervals(g.adj, b_pos)
    return ConvexLayout(tuple(b_pos), ivs, _compute_a_order(ivs, g.n_b))


def recognize_convex(g: BipartiteGraph) -> ConvexLayout | NonConvexWitness:
    """Convex layout of ``g``, or a witness that no B-order works."""
    result = _arrange(g.n_b, g.adj)
    if isinstance(result, NonConvexWitness):
        return result
    _, pos, ivs = result  # _arrange has checked every neighborhood
    return ConvexLayout(tuple(pos), ivs, _compute_a_order(ivs, g.n_b))


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
    return BiconvexLayout(b_layout=b_result,
                          a_pos_prime=tuple(inverse(a_seq)))


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
