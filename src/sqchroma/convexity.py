"""Convex / biconvex recognition and the orderings all algorithms consume.

A bipartite graph is convex when the B side can be ordered so that every
A-neighborhood occupies consecutive positions; equivalently the
neighborhood matrix has the consecutive-ones property for columns.  The
recognizer here is a desk-scale consecutive-arrangement routine rather
than a linear-time PQ-tree:

1. Neighborhoods of size >= 2 are deduplicated and grouped into *overlap
   classes* (connected components under strict overlap: the sets meet and
   neither contains the other).
2. Within a class the column arrangement is forced up to reversal.  Rows
   are placed one at a time, each strictly overlapping an earlier row,
   onto an ordered partition of the columns seen so far.  Every placement
   step offers at most two candidate refinements (new columns attach to
   the left or the right end of the touched range); candidates are
   validated against all placed rows and the rare tie is resolved by
   backtracking.
3. Distinct classes never strictly overlap, so each non-maximal class
   nests inside a single cell of its unique host and classes disjoint
   from each other concatenate freely; the final order falls out of a
   recursion over that nesting.

A failed arrangement is definitive (step 2 enumerates every refinement
consistent with the rows placed so far), and yields a NonConvexWitness:
the order attempted, one A-vertex whose neighborhood has a gap under it,
and the gap triple itself.

Derived orderings: positions under <_B induce an interval (left, right)
per non-isolated A-vertex, and <_A sorts A by right endpoint with ties
broken by left endpoint then index.  Isolated A-vertices carry no
interval and precede everything in <_A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """Internal: the class-nesting structure violated its theory."""


# ---------------------------------------------------------------------------
# Consecutive arrangement engine


def _strictly_overlaps(s: frozenset, t: frozenset) -> bool:
    return bool(s & t) and not s <= t and not t <= s


def _row_fits(cells: Sequence[frozenset], row: frozenset) -> bool:
    """A row fits an ordered partition when the cells it touches are
    contiguous and each touched cell lies fully inside the row."""
    touch = [i for i, c in enumerate(cells) if c & row]
    if not touch:
        return True
    if touch != list(range(touch[0], touch[-1] + 1)):
        return False
    return all(cells[i] <= row for i in touch)


def _placement_candidates(cells: list[frozenset],
                          row: frozenset) -> list[list[frozenset]]:
    """Ordered partitions refining ``cells`` so that ``row`` can be
    consecutive.  New columns may only attach at one end of the touched
    range (attaching on both ends would need two uncovered cell gaps,
    which strict overlap with a placed row rules out)."""
    touch = [i for i, c in enumerate(cells) if c & row]
    p, q = touch[0], touch[-1]
    if touch != list(range(p, q + 1)):
        return []
    for i in range(p + 1, q):
        if not cells[i] <= row:
            return []
    covered = frozenset().union(*cells)
    new = row - covered
    pre, suf = cells[:p], cells[q + 1:]
    out: list[list[frozenset]] = []
    if p == q:
        inp = cells[p] & row
        rest = cells[p] - row
        if not new:
            # Row nested inside one cell: unconstrained only when it equals
            # the cell.  (BFS insertion order makes this unreachable.)
            return [list(cells)] if not rest else []
        right = pre + ([rest] if rest else []) + [inp, new] + suf
        left = pre + [new, inp] + ([rest] if rest else []) + suf
        out = [right, left]
    else:
        cp_in, cp_out = cells[p] & row, cells[p] - row
        cq_in, cq_out = cells[q] & row, cells[q] - row
        mid = cells[p + 1:q]
        lead = ([cp_out] if cp_out else [])
        trail = ([cq_out] if cq_out else [])
        if not new:
            out = [pre + lead + [cp_in] + mid + [cq_in] + trail + suf]
        else:
            out = [
                pre + lead + [cp_in] + mid + [cq_in, new] + trail + suf,
                pre + lead + [new, cp_in] + mid + [cq_in] + trail + suf,
            ]
    if len(out) == 2 and out[1] == out[0][::-1]:
        out = out[:1]  # reversal twins describe the same arrangement
    return out


def _row_key(row: frozenset) -> tuple:
    return (len(row), tuple(sorted(row)))


def _insertion_order(rows: list[frozenset]) -> list[frozenset]:
    """Rows of one overlap class, each strictly overlapping an earlier one."""
    remaining = sorted(rows, key=_row_key)
    order = [remaining.pop(0)]
    while remaining:
        for i, cand in enumerate(remaining):
            if any(_strictly_overlaps(cand, placed) for placed in order):
                order.append(remaining.pop(i))
                break
        else:  # pragma: no cover - rows were not overlap-connected
            raise _ArrangementError("rows do not form one overlap class")
    return order


def _arrange_class(rows: list[frozenset]) -> list[frozenset] | None:
    """Cell sequence arranging one overlap class, or None if impossible.

    Depth-first over placement candidates; in the intended regime every
    step is forced, so the search degenerates to a single pass.
    """
    order = _insertion_order(rows)

    def rec(cells: list[frozenset], k: int) -> list[frozenset] | None:
        if k == len(order):
            return cells
        for cand in _placement_candidates(cells, order[k]):
            if all(_row_fits(cand, order[i]) for i in range(k + 1)):
                result = rec(cand, k + 1)
                if result is not None:
                    return result
        return None

    return rec([order[0]], 1)


def _greedy_partial(rows: list[frozenset]) -> list[frozenset]:
    """First-candidate placement until stuck; used for witness orders."""
    order = _insertion_order(rows)
    cells = [order[0]]
    for k in range(1, len(order)):
        fits = [
            cand for cand in _placement_candidates(cells, order[k])
            if all(_row_fits(cand, order[i]) for i in range(k + 1))
        ]
        if not fits:
            break
        cells = fits[0]
    return cells


@dataclass
class _OverlapClass:
    rows: list[frozenset]
    support: frozenset
    cells: list[frozenset]


def _overlap_classes(sets: list[frozenset]) -> list[list[frozenset]]:
    unused = sorted(sets, key=_row_key)
    classes: list[list[frozenset]] = []
    while unused:
        comp = [unused.pop(0)]
        grew = True
        while grew:
            grew = False
            rest = []
            for cand in unused:
                if any(_strictly_overlaps(cand, r) for r in comp):
                    comp.append(cand)
                    grew = True
                else:
                    rest.append(cand)
            unused = rest
        classes.append(comp)
    return classes


def _nests_inside(inner: _OverlapClass, outer: _OverlapClass) -> bool:
    """True when inner's support meets outer's and sits wholly inside or
    outside every row of outer (i.e. inside one cell of outer)."""
    if not inner.support & outer.support:
        return False
    return all(
        inner.support <= r or not (inner.support & r) for r in outer.rows
    )


def _assemble(cols: frozenset, classes: list[_OverlapClass]) -> list[int]:
    if not classes:
        return sorted(cols)
    maximal: list[_OverlapClass] = []
    rest: list[_OverlapClass] = []
    for k in classes:
        if any(k2 is not k and _nests_inside(k, k2) for k2 in classes):
            rest.append(k)
        else:
            maximal.append(k)
    seen: set[int] = set()
    for m in maximal:
        if m.support & seen:
            raise _ArrangementError("maximal class supports intersect")
        seen |= m.support
    blocks: list[list[int]] = []
    for m in maximal:
        mine = [k for k in rest if k.support & m.support]
        per_cell: dict[int, list[_OverlapClass]] = {}
        for k in mine:
            hit = [i for i, c in enumerate(m.cells) if c & k.support]
            if len(hit) != 1 or not k.support <= m.cells[hit[0]]:
                raise _ArrangementError("nested class spans host cells")
            per_cell.setdefault(hit[0], []).append(k)
        seq: list[int] = []
        for i, cell in enumerate(m.cells):
            seq.extend(_assemble(cell, per_cell.get(i, [])))
        blocks.append(seq)
    hosted = frozenset().union(*(m.support for m in maximal))
    stray = [k for k in rest if not k.support & hosted]
    if stray:  # pragma: no cover - contradicted by _nests_inside transitivity
        raise _ArrangementError("nested class without a host")
    items = blocks + [[c] for c in sorted(cols - hosted)]
    items.sort(key=lambda blk: blk[0])
    return [c for blk in items for c in blk]


def consecutive_order(n_cols: int,
                      rows: Iterable[Iterable[int]]) -> list[int] | None:
    """Column order making every row consecutive, or None if none exists.

    Deterministic for a fixed input.  Rows of size < 2 impose nothing.
    """
    sets = sorted(
        {frozenset(r) for r in rows if len(frozenset(r)) >= 2},
        key=_row_key,
    )
    classes: list[_OverlapClass] = []
    for group in _overlap_classes(sets):
        cells = _arrange_class(group)
        if cells is None:
            return None
        classes.append(_OverlapClass(
            rows=group,
            support=frozenset().union(*group),
            cells=cells,
        ))
    order = _assemble(frozenset(range(n_cols)), classes)
    for s in sets:  # paranoia: the assembled order must satisfy every row
        if not _positions_consecutive(order, s):
            raise _ArrangementError("assembled order violates a row")
    return order


def attempted_order(n_cols: int, rows: Iterable[Iterable[int]]) -> list[int]:
    """Best-effort order from the greedy pass, for witness construction."""
    sets = sorted(
        {frozenset(r) for r in rows if len(frozenset(r)) >= 2},
        key=_row_key,
    )
    cells: list[int] = []
    for group in _overlap_classes(sets):
        arranged = _arrange_class(group)
        partial = arranged if arranged is not None else _greedy_partial(group)
        for cell in partial:
            cells.extend(sorted(cell))
    # a nested class repeats columns of its host: keep each first one
    return list(dict.fromkeys(cells + list(range(n_cols))))


def _positions_consecutive(order: Sequence[int], members: frozenset) -> bool:
    pos = sorted(i for i, c in enumerate(order) if c in members)
    return not pos or pos[-1] - pos[0] + 1 == len(pos)


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


def layout_from_order(g: BipartiteGraph, b_seq: Sequence[int]) -> ConvexLayout:
    """Layout induced by an explicit B-order; raises LayoutMismatch when
    some neighborhood is not consecutive under it."""
    if sorted(b_seq) != list(range(g.n_b)):
        raise LayoutMismatch("b_seq is not a permutation of the B side")
    b_pos = [0] * g.n_b
    for p, b in enumerate(b_seq):
        b_pos[b] = p
    intervals: list[tuple[int, int] | None] = []
    for a in range(g.n_a):
        nbrs = g.adj[a]
        if not nbrs:
            intervals.append(None)
            continue
        ps = sorted(b_pos[b] for b in nbrs)
        if ps[-1] - ps[0] + 1 != len(ps):
            raise LayoutMismatch(
                f"neighborhood of A{a} is not consecutive under the order"
            )
        intervals.append((ps[0], ps[-1]))
    ivs = tuple(intervals)
    return ConvexLayout(tuple(b_pos), ivs, _compute_a_order(g, ivs))


def recognize_convex(g: BipartiteGraph) -> ConvexLayout | NonConvexWitness:
    """Convex layout of ``g``, or a witness that no B-order works."""
    rows = [g.adj[a] for a in range(g.n_a)]
    order = consecutive_order(g.n_b, rows)
    if order is not None:
        return layout_from_order(g, order)
    attempt = attempted_order(g.n_b, rows)
    pos = {b: p for p, b in enumerate(attempt)}
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
