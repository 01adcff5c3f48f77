import json
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqchroma import convexity
from sqchroma.convexity import (
    BiconvexLayout,
    ConvexLayout,
    NonConvexWitness,
    _arrange,
    _arrange_engine,
    _intervals,
    _normalized,
    _overlap_classes,
    _ranked,
    check_proper_ordering,
    consecutive_order,
    layout_from_order,
    recognize_biconvex,
    recognize_convex,
)
from sqchroma.core import build_bipartite, half_square, inverse
from sqchroma.errors import AlgorithmInvariantViolation, LayoutMismatch
from sqchroma.generators import (
    gen_lower_bound_H,
    gen_named,
    gen_random_biconvex,
    gen_random_convex,
)
from sqchroma.rng import SplitMix64

from helpers import (
    CountingCells,
    brute_force_c1p,
    mirrored,
    outer_first_nesting,
    random_bipartite,
    stack_depth,
)


def _order_is_valid(n_cols, rows, order):
    pos = {c: i for i, c in enumerate(order)}
    assert sorted(order) == list(range(n_cols))
    for r in rows:
        ps = sorted(pos[c] for c in r)
        if ps and ps[-1] - ps[0] + 1 != len(ps):
            return False
    return True


def _attempted(n_cols, rows):
    """The order ``_arrange`` accepts, or the witness's attempted order."""
    result = _arrange(n_cols, _normalized(rows))
    if isinstance(result, NonConvexWitness):
        return list(result.b_order_attempted)
    return result


# ---------------------------------------------------------------------------
# The consecutive-arrangement engine against exhaustive search


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(0, 7), st.integers(0, 2 ** 32))
def test_engine_agrees_with_brute_force(n_cols, n_rows, seed):
    rng = SplitMix64(seed)
    rows = []
    for _ in range(n_rows):
        row = [c for c in range(n_cols) if rng.random() < 0.45]
        rows.append(row)
    got = consecutive_order(n_cols, rows)
    attempt = _attempted(n_cols, rows)
    expected = brute_force_c1p(n_cols, rows)
    if expected is None:
        assert got is None
        assert not _order_is_valid(n_cols, rows, attempt)
    else:
        assert got is not None
        assert _order_is_valid(n_cols, rows, got)
        assert attempt == got


def test_engine_matches_pinned_corpus():
    # B-orders pinned from the earlier backtracking engine, which any
    # rewrite must reproduce: 60 seeded row families, 16 of them without
    # a consecutive order
    corpus = json.loads(
        (Path(__file__).parent / "data" / "c1p_corpus.json").read_text())
    for case in corpus:
        n_cols, rows = case["n_cols"], case["rows"]
        assert consecutive_order(n_cols, rows) == case["order"]
        attempt = _attempted(n_cols, rows)
        if case["order"] is None:
            assert not _order_is_valid(n_cols, rows, attempt)
        else:
            assert attempt == case["order"]


def _nested_class_chain(n):
    """Rows [i, n-2-i] and [i+1, n-1-i] for each i: about n/2 two-row
    overlap classes, each nested in the middle cell of the next one."""
    rows = []
    for i in range((n - 1) // 2):
        rows += [range(i, n - 1 - i), range(i + 1, n - i)]
    return rows


def _engine(n_cols, rows):
    """``_arrange`` on the engine's path, whatever the labels."""
    return _arrange_engine(n_cols, rows, _ranked(n_cols, rows))


def _engine_skipped():
    """Context under which reaching the engine raises AssertionError."""
    return mock.patch.object(convexity, "_overlap_classes",
                             side_effect=AssertionError("engine reached"))


def _assert_paths_agree(n_cols, rows):
    """``_arrange`` reads ``rows``, runs of consecutive labels, off their
    endpoints and gives what the engine gives; returns the result."""
    with _engine_skipped():
        result = _arrange(n_cols, rows)
    assert result == _engine(n_cols, rows)
    return result


def test_deep_nesting_and_large_inputs_need_no_recursion():
    # all four are runs of their labels, so each runs on both paths; the
    # mirrored outer-first family nests about 400 classes that list their
    # cells backwards
    chain = _normalized(_nested_class_chain(2000))
    outer_first = _normalized(outer_first_nesting(1200))
    outer_first_mirrored = _normalized(mirrored(1200,
                                                outer_first_nesting(1200)))
    g = gen_random_convex(2000, 2000, 30, seed=0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        seconds, results = [], []
        for n_cols, rows in ((2000, chain), (g.n_b, g.adj),
                             (1200, outer_first),
                             (1200, outer_first_mirrored)):
            t0 = time.perf_counter()
            results.append(_engine(n_cols, rows))
            seconds.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            with _engine_skipped():
                assert _arrange(n_cols, rows) == results[-1]
            seconds.append(time.perf_counter() - t0)
        assert results[0] == list(range(2000))
        assert results[2] == list(range(1200))
        assert results[3] != list(range(1200))
        assert isinstance(recognize_convex(g), ConvexLayout)
    finally:
        sys.setrecursionlimit(limit)
    # each takes a second or so; an engine quadratic in the rows, or one
    # that re-counts the rows inside a finished class's cells, takes minutes
    assert max(seconds) < 30


def test_run_path_builds_no_cells_and_stays_small():
    # a measure, not a time: the outer-first family at width 2400 has
    # 962,000 row entries, and cells for its classes would hold about 150
    # bytes per entry; the order written off the endpoints needs about
    # 1 MiB, mirrored (799 reversed classes) or not
    for rows in (outer_first_nesting(2400),
                 mirrored(2400, outer_first_nesting(2400))):
        rows = _normalized(rows)
        with _engine_skipped(), \
                mock.patch.object(convexity, "_Cells",
                                  side_effect=AssertionError("cells built")):
            tracemalloc.start()
            try:
                _arrange(2400, rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 16 * 2 ** 20


@st.composite
def _interval_families(draw):
    """Rows that are runs of consecutive labels, as sorted tuples, in any
    order: empty and one-column rows, duplicates, columns in no row, rows
    inside rows, and short staircases that form classes nested in the
    cells of longer ones.  Half of the families are mirrored, which
    changes which classes the engine lists backwards."""
    n_cols = draw(st.integers(1, 40))
    runs = draw(st.lists(
        st.tuples(st.integers(0, n_cols - 1),
                  st.one_of(st.integers(0, 4), st.integers(0, n_cols))),
        max_size=30))
    for left, steps in draw(st.lists(
            st.tuples(st.integers(0, n_cols - 1), st.integers(1, 4)),
            max_size=3)):
        runs += [(left + j, 2) for j in range(steps)]
    if n_cols >= 6 and draw(st.booleans()):
        # two crossing runs [a, c) and [b, d), a staircase inside [b, c)
        a, b, c, d = sorted(draw(st.lists(st.integers(0, n_cols), min_size=4,
                                          max_size=4, unique=True)))
        runs += [(a, c - a), (b, d - b)]
        runs += [(j, 2) for j in range(b, c - 1)]
    rows = [tuple(range(left, min(n_cols, left + size)))
            for left, size in runs]
    if draw(st.booleans()):  # the mirror image, x -> n_cols - 1 - x
        rows = [tuple(n_cols - 1 - x for x in reversed(row)) for row in rows]
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return n_cols, draw(st.permutations(rows))


@settings(max_examples=400, deadline=None)
@given(_interval_families())
def test_interval_path_matches_the_engine(family):
    _assert_paths_agree(*family)


def _graph_of_rows(rows, n_b):
    return build_bipartite(len(rows), n_b,
                           [(a, b) for a, row in enumerate(rows) for b in row])


def _scanned_intervals(g, b_seq):
    """Each row's (first, last) position, found by scanning the positions,
    or the first A-vertex whose row has a gap under ``b_seq``."""
    intervals = []
    for a, row in enumerate(g.adj):
        ps = [p for p, b in enumerate(b_seq) if b in row]
        if ps and ps != list(range(ps[0], ps[-1] + 1)):
            return a
        intervals.append((ps[0], ps[-1]) if ps else None)
    return tuple(intervals)


@settings(max_examples=400, deadline=None)
@given(_interval_families())
def test_run_path_intervals_are_those_of_its_order(family):
    # an identity order has its intervals read off the rows' ends, any
    # other order has them read position by position: either way they
    # are the rows' first and last positions under the order
    n_cols, rows = family
    g = _graph_of_rows(rows, n_cols)
    layout = recognize_convex(g)
    assert list(layout.b_seq) == _arrange(n_cols, g.adj)
    assert layout.intervals == _scanned_intervals(g, layout.b_seq)


class _Unread(tuple):
    """Positions that fail when one is read by index or slice."""

    def __getitem__(self, i):
        raise AssertionError("positions read")


def test_identity_order_reads_the_row_ends_and_no_positions():
    # rows of size 0 and 1 among runs of their labels: under the identity
    # order the per-row pass over positions is skipped
    rows = [(), (3,), (0, 1, 2), (1, 2, 3), (5, 6), (), (4,)]
    g = _graph_of_rows(rows, 8)
    layout = ConvexLayout(g, _Unread(range(8)))
    assert layout.intervals == (None, (3, 3), (0, 2), (1, 3), (5, 6), None,
                                (4, 4))
    assert recognize_convex(g).b_pos == tuple(range(8))


def test_identity_order_checks_a_row_that_is_no_run_of_labels():
    # under the identity order A1's row {0, 2} has a gap: the row ends
    # alone would read it as the interval (0, 2)
    g = _graph_of_rows([(0, 1), (0, 2)], 3)
    with pytest.raises(LayoutMismatch, match="^neighborhood of A1 is not "
                                             "consecutive under the order$"):
        ConvexLayout(g, (0, 1, 2))


def test_reversed_class_order_is_read_position_by_position():
    # the class of (2, 3, 4) and (0, 1, 2, 3) is reversed: its smallest
    # row lies right of the next, so its cells [0, 1], [2, 3], [4] are
    # listed backwards, and every row is checked against that order, once
    g = _graph_of_rows([(2, 3, 4), (0, 1, 2, 3), (5,), ()], 6)
    with mock.patch.object(convexity, "_intervals",
                           wraps=_intervals) as read:
        layout = recognize_convex(g)
    assert read.call_count == 1
    assert layout.b_seq == (4, 2, 3, 0, 1, 5)
    assert layout.intervals == ((0, 2), (1, 4), (5, 5), None)
    with pytest.raises(AssertionError, match="positions read"):
        ConvexLayout(g, _Unread(layout.b_pos))


@st.composite
def _laid_out_orders(draw):
    """A random convex graph with B relabelled by ``perm``, some of its
    A-vertices made isolated, and a B-order: ``perm``, under which every
    row is consecutive, the identity, labels 2i and 2i+1 swapped, the
    reverse, or any permutation."""
    n_a, n_b = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    g = gen_random_convex(n_a, n_b, draw(st.integers(1, 6)),
                          draw(st.integers(0, 2 ** 32)))
    isolated = draw(st.sets(st.integers(0, 11)))
    perm = draw(st.permutations(range(n_b)))
    g = build_bipartite(n_a, n_b, [(a, perm[b]) for a, b in g.edges()
                                   if a not in isolated])
    identity = list(range(n_b))
    swapped = [b ^ 1 if b ^ 1 < n_b else b for b in identity]
    b_seq = draw(st.sampled_from([perm, identity, swapped, identity[::-1]])
                 | st.permutations(identity))
    return g, b_seq


@settings(max_examples=500, deadline=None)
@given(_laid_out_orders())
def test_layout_intervals_and_a_order_match_a_scan_of_positions(case):
    # a layout refuses, naming it, the first A-vertex whose row has a gap
    # under its B-order; otherwise its intervals are each row's first and
    # last positions, and <_A is isolated A-vertices first, then by right
    # end, left end and index
    g, b_seq = case
    want = _scanned_intervals(g, b_seq)
    if isinstance(want, int):
        with pytest.raises(LayoutMismatch) as err:
            ConvexLayout(g, tuple(inverse(b_seq)))
        assert str(err.value) == (
            f"neighborhood of A{want} is not consecutive under the order")
        return
    layout = ConvexLayout(g, tuple(inverse(b_seq)))
    assert layout.intervals == want
    assert layout.a_order == tuple(sorted(
        range(g.n_a), key=lambda a: (-1, -1, a) if want[a] is None
        else (want[a][1], want[a][0], a)))


def test_interval_path_matches_the_engine_on_towers_and_staircases():
    for k in (2, 5, 40):
        tower = [range(j + 1) for j in range(k)]
        staircase = [range(j, j + 3) for j in range(k)]
        for rows in (tower, staircase, tower + staircase):
            _assert_paths_agree(k + 2, _normalized(rows))
    _assert_paths_agree(60, _normalized(_nested_class_chain(60)))
    for width in (3, 4, 10, 25, 60):
        _assert_paths_agree(width, _normalized(outer_first_nesting(width)))
        _assert_paths_agree(width, _normalized(
            mirrored(width, outer_first_nesting(width))))


def test_consecutive_labels_skip_the_engine():
    # a count, not a time: the identity-labelled graph never reaches the
    # engine, nor does it with its B-labels reversed, since a reversed run
    # is a run; with labels 2i and 2i+1 swapped its rows are no runs, and
    # the engine arranges them
    g = gen_random_convex(300, 300, 20, seed=0)

    def relabelled(label):
        return build_bipartite(g.n_a, g.n_b,
                               [(a, label(b)) for a, b in g.edges()])

    reversed_b = relabelled(lambda b: g.n_b - 1 - b)
    swapped_b = relabelled(lambda b: b ^ 1)
    with _engine_skipped():
        assert isinstance(recognize_convex(g), ConvexLayout)
        assert isinstance(recognize_convex(reversed_b), ConvexLayout)
        with pytest.raises(AssertionError, match="engine reached"):
            recognize_convex(swapped_b)
    assert isinstance(recognize_convex(swapped_b), ConvexLayout)


def test_engine_dense_nested_families():
    # Nested + overlapping rows across several overlap classes.
    rows = [
        {0, 1, 2, 3, 4, 5, 6, 7},
        {1, 2, 3}, {3, 4}, {5, 6}, {2, 3}, {6, 7},
        {8, 9}, {9, 10},
    ]
    order = consecutive_order(11, rows)
    assert order is not None
    assert _order_is_valid(11, rows, order)


def test_engine_rejects_columns_out_of_range():
    for rows in ([[0, 5]], [[0, 1], [1, 2]], [[-1, 0]]):
        with pytest.raises(ValueError, match="0..1"):
            _engine(2, _normalized(rows))


def test_interval_path_rejects_columns_out_of_range():
    with _engine_skipped():
        for rows in ([[0, 1], [1, 2]], [[-1, 0]], [[1, 2]]):
            with pytest.raises(ValueError, match="0..1"):
                consecutive_order(2, rows)


def test_engine_deterministic():
    rows = [{0, 1}, {1, 2}, {2, 3}, {0, 1, 2, 3, 4}]
    assert consecutive_order(6, rows) == consecutive_order(6, rows)


# ---------------------------------------------------------------------------
# Row placement against the counting reference


def _classes_seen(sets, cells):
    """Every class of ``_overlap_classes`` on ``sets``, run on ``cells``:
    its rows, whether it is complete, and the whole state of its
    partition."""
    n_cols = 1 + max(map(max, sets), default=-1)
    with mock.patch.object(convexity, "_Cells", cells):
        classes = list(_overlap_classes(n_cols, sets))
    assert all(type(cls.cells) is cells for cls in classes)
    return [(cls.rows, cls.complete, cls.cells.order(), vars(cls.cells))
            for cls in classes]


def _assert_placement_matches_reference(rows):
    sets = [frozenset(row)
            for _, row in sorted({(len(r), r) for r in _normalized(rows)})]
    assert (_classes_seen(sets, convexity._Cells)
            == _classes_seen(sets, CountingCells))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 30), st.integers(0, 40), st.integers(0, 2 ** 32),
       st.sampled_from([0.1, 0.3, 0.6]))
def test_placement_matches_counting_reference(n_cols, n_rows, seed, p):
    rng = SplitMix64(seed)
    rows = []
    for _ in range(n_rows):
        if rng.random() < 0.5:  # an interval: most families then place
            left = int(rng.random() * n_cols)
            length = 1 + int(rng.random() * (n_cols - left))
            rows.append(range(left, left + length))
        else:
            rows.append([c for c in range(n_cols) if rng.random() < p])
    _assert_placement_matches_reference(rows)


def test_placement_matches_counting_reference_on_towers_and_staircases():
    for k in (2, 5, 40):
        tower = [range(j + 1) for j in range(k)]              # nested rows
        _assert_placement_matches_reference(tower)
        staircase = [range(j, j + 3) for j in range(k)]       # one chain
        _assert_placement_matches_reference(staircase)
        _assert_placement_matches_reference(tower + staircase)
        # a staircase with a claw glued on: the class fails part way
        _assert_placement_matches_reference(
            staircase + [[k + 1, k + 3], [k + 1, k + 4]])
    _assert_placement_matches_reference(_nested_class_chain(60))
    for width in (3, 4, 10, 25, 60):
        _assert_placement_matches_reference(outer_first_nesting(width))


# ---------------------------------------------------------------------------
# recognize_convex


def test_recognize_lower_bound_H_q2():
    g = gen_lower_bound_H(2)
    layout = recognize_convex(g)
    assert isinstance(layout, ConvexLayout)
    # The construction order places Q2 < z2 < z3 < Q3; check it satisfies
    # the definition directly.
    built = layout_from_order(g, list(range(g.n_b)))
    assert built.intervals[g.n_a - 1] == (0, g.n_b - 1)  # z1 sees all of B


def test_recognize_knn_convex():
    layout = recognize_convex(gen_named("complete", 3))
    assert isinstance(layout, ConvexLayout)


def test_recognize_three_claw_obstruction():
    # a covers {b1,b2,b3}; each pair of b's is additionally glued together
    # by its own A-vertex, so all three pairs would have to be adjacent in
    # any order: impossible.  The exhaustive oracle confirms (see
    # test_engine_agrees_with_brute_force for the general case).
    rows = [{0, 1, 2}, {0, 1}, {1, 2}, {0, 2}]
    assert brute_force_c1p(3, rows) is None
    g = build_bipartite(4, 3, [
        (0, 0), (0, 1), (0, 2),
        (1, 0), (1, 1),
        (2, 1), (2, 2),
        (3, 0), (3, 2),
    ])
    w = recognize_convex(g)
    assert isinstance(w, NonConvexWitness)
    # the gap triple really exhibits a gap under the attempted order
    pos = {b: i for i, b in enumerate(w.b_order_attempted)}
    bp, bq, br = w.gap
    nbrs = set(g.adj[w.violating_a])
    assert bp in nbrs and br in nbrs and bq not in nbrs
    assert pos[bp] < pos[bq] < pos[br]


def _assert_witness_sound(g, w):
    """The attempted order is a permutation of B, the violating vertex's
    neighbours are not consecutive in it, and the gap triple shows it."""
    assert isinstance(w, NonConvexWitness)
    assert sorted(w.b_order_attempted) == list(range(g.n_b))
    pos = {b: i for i, b in enumerate(w.b_order_attempted)}
    nbrs = set(g.adj[w.violating_a])
    ps = sorted(pos[b] for b in nbrs)
    assert ps[-1] - ps[0] + 1 != len(ps)
    bp, bq, br = w.gap
    assert bp in nbrs and br in nbrs and bq not in nbrs
    assert pos[bp] < pos[bq] < pos[br]


def test_witness_order_with_nested_overlap_classes():
    # regression: the class {0,1},{1,2} nests inside the class
    # {0,1,2,3},{3,4}; their shared columns used to appear twice, giving a
    # 12-entry attempted order for 9 B-vertices
    rows = [{0, 1, 2, 3}, {3, 4}, {0, 1}, {1, 2}, {5, 6}, {6, 7}, {6, 8}]
    g = build_bipartite(7, 9, [(a, b) for a, row in enumerate(rows) for b in row])
    w = recognize_convex(g)
    _assert_witness_sound(g, w)
    # the first four rows are consecutive together; the obstruction is the
    # claw {5,6}, {6,7}, {6,8}, so the witness must name one of its rows
    assert w.violating_a in (4, 5, 6)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_witness_sound_on_tucker_gadget_inputs(seed):
    # a convex graph plus three rows {x,y}, {y,z}, {y,w} on distinct
    # columns: y cannot sit next to x, z and w at once, so no order works
    rng = SplitMix64(seed)
    n_b = rng.randint(4, 16)
    base = gen_random_convex(rng.randint(1, 16), n_b, rng.randint(1, n_b), seed)
    cols = list(range(n_b))
    x, y, z, w = (cols.pop(rng.randint(0, len(cols) - 1)) for _ in range(4))
    n_a = base.n_a + 3
    edges = list(base.edges()) + [
        (base.n_a, x), (base.n_a, y),
        (base.n_a + 1, y), (base.n_a + 1, z),
        (base.n_a + 2, y), (base.n_a + 2, w),
    ]
    g = build_bipartite(n_a, n_b, edges)
    _assert_witness_sound(g, recognize_convex(g))


def test_recognize_recovers_interval_construction():
    for seed in range(25):
        g = gen_random_convex(8, 8, 8, seed)
        layout = recognize_convex(g)
        assert isinstance(layout, ConvexLayout)
        for a in range(g.n_a):
            if not g.adj[a]:
                assert layout.intervals[a] is None
                continue
            left, right = layout.intervals[a]
            span = {layout.b_seq[p] for p in range(left, right + 1)}
            assert span == set(g.adj[a])


def test_isolated_vertices_tolerated():
    g = build_bipartite(3, 3, [(1, 0), (1, 1)])  # A0, A2 and B2 isolated
    layout = recognize_convex(g)
    assert isinstance(layout, ConvexLayout)
    assert layout.intervals[0] is None
    assert layout.a_order[0] in (0, 2)


def test_empty_graph():
    layout = recognize_convex(build_bipartite(0, 0, []))
    assert isinstance(layout, ConvexLayout)
    assert layout.a_order == () and layout.b_pos == ()


# ---------------------------------------------------------------------------
# <_A


def test_order_A_tie_break_on_left():
    g = build_bipartite(2, 3, [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)])
    layout = layout_from_order(g, [0, 1, 2])
    assert layout.intervals == ((0, 2), (1, 2))
    # tie on right endpoint: [0,2] precedes [1,2] because of smaller left
    assert layout.a_order == (0, 1)


def test_order_A_nested_neighborhood_chain():
    # nested intervals: later vertices under <_A have superset B-ranges
    # among vertices sharing the right endpoint region
    g = gen_random_convex(10, 10, 10, seed=3)
    layout = recognize_convex(g)
    b_j = min(
        (b for b in range(g.n_b) if g.b_adj[b]),
        key=lambda b: layout.b_pos[b],
    )
    nbrs = sorted(g.b_adj[b_j], key=lambda a: layout.a_rank[a])
    spans = [set(g.adj[a]) for a in nbrs]
    j = layout.b_pos[b_j]
    for s1, s2 in zip(spans, spans[1:]):
        trimmed1 = {b for b in s1 if layout.b_pos[b] >= j}
        trimmed2 = {b for b in s2 if layout.b_pos[b] >= j}
        assert trimmed1 <= trimmed2


def test_order_A_single_vertex_identity():
    g = build_bipartite(1, 2, [(0, 0), (0, 1)])
    assert recognize_convex(g).a_order == (0,)


def test_layout_from_order_rejects_a_gap():
    g = build_bipartite(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    assert layout_from_order(g, [0, 1, 2]).intervals == ((0, 1), (1, 2))
    with pytest.raises(LayoutMismatch, match="^neighborhood of A1 is not "
                                             "consecutive under the order$"):
        layout_from_order(g, [1, 0, 2])


def test_a_run_of_labels_is_checked_as_positions():
    # under the order 0, 2, 1, 3, A1's row {0, 1} is a run of its labels,
    # read as the slice of positions 0, 2, which is no run: fail closed.
    # A0's row {0, 2} is no run of its labels and maps label by label to
    # the positions 0, 1
    g = build_bipartite(2, 4, [(0, 0), (0, 2), (1, 0), (1, 1)])
    with pytest.raises(LayoutMismatch, match="^neighborhood of A1 is not "
                                             "consecutive under the order$"):
        layout_from_order(g, [0, 2, 1, 3])
    g = build_bipartite(2, 4, [(0, 0), (0, 2), (1, 2), (1, 1)])
    assert layout_from_order(g, [0, 2, 1, 3]).intervals == ((0, 1), (1, 2))


def test_accepted_order_is_checked_against_every_row():
    # fail closed: an order that breaks a row is the arrangement's fault,
    # whichever caller asked for it and whichever path wrote the order.
    # The rows {0,1}, {1,2} are runs of their labels, so ``_run_order``
    # writes their order; relabelled as {0,2}, {1,2} they reach the engine,
    # and ``_assemble`` writes it.
    for edges, writer in (([(0, 0), (0, 1), (1, 1), (1, 2)], "_run_order"),
                          ([(0, 0), (0, 2), (1, 2), (1, 1)], "_assemble")):
        g = build_bipartite(2, 3, edges)
        with mock.patch.object(convexity, writer,
                               return_value=[1, 0, 2]) as wrong, \
                mock.patch.object(convexity, "_overlap_classes",
                                  wraps=_overlap_classes) as engine:
            with pytest.raises(AlgorithmInvariantViolation,
                               match="assembled order violates a row"):
                recognize_convex(g)
            with pytest.raises(AlgorithmInvariantViolation):
                consecutive_order(3, g.adj)
        assert wrong.call_count == 2
        assert engine.called == (writer == "_assemble")


def test_a_refused_placeable_row_fails_closed():
    # the staircase on labels 0, 2, 1, 3, that is {0,2}, {1,2}, {1,3}, has
    # a consecutive order, so a placement that refuses its second row is
    # the engine's fault: the check at the failure point finds every row of
    # the class fitting
    rows = [[0, 2], [1, 2], [1, 3]]
    real = convexity._Cells.place
    with mock.patch.object(convexity._Cells, "place", autospec=True,
                           side_effect=lambda cells, row:
                           row != {1, 2} and real(cells, row)):
        for verdict in (lambda: recognize_convex(_graph_of_rows(rows, 4)),
                        lambda: consecutive_order(4, rows)):
            with pytest.raises(AlgorithmInvariantViolation,
                               match="^a row failed to place, but every row "
                                     "of its class fits the cells$"):
                verdict()


def test_reject_places_only_up_to_the_failed_row():
    # a Tucker claw {0,1}, {1,2}, {1,3} and a 2000-row staircase on fresh
    # columns: the claw's class fails first, so the verdict places the
    # claw's rows and nothing else; reading the witness finishes the same
    # arrangement and gives the fields the full arrangement always gave
    claw = [[0, 1], [1, 2], [1, 3]]
    rows = claw + [[4 + j, 5 + j] for j in range(2000)]
    g = _graph_of_rows(rows, 2005)
    real = convexity._Cells.place
    with mock.patch.object(convexity._Cells, "place", autospec=True,
                           side_effect=real) as place:
        w = recognize_convex(g)
        assert isinstance(w, NonConvexWitness)
        assert [set(c.args[1]) for c in place.call_args_list] == [
            {1, 2}, {1, 3}]
        assert consecutive_order(2005, rows) is None
        assert place.call_count == 4
        assert w.gap == (1, 2, 3)
        assert w.violating_a == 2
        assert w.b_order_attempted == tuple(range(2005))
        # one placement per staircase row after its first
        assert place.call_count == 4 + 1999
    _assert_witness_sound(g, w)


# ---------------------------------------------------------------------------
# recognize_biconvex


def test_biconvex_figure():
    b = recognize_biconvex(gen_named("biconvex"))
    assert isinstance(b, BiconvexLayout)


def test_convex_c4free_not_biconvex():
    g = gen_named("convex_c4free")
    assert isinstance(recognize_convex(g), ConvexLayout)
    assert recognize_biconvex(g) is None


def test_k22_biconvex():
    assert recognize_biconvex(gen_named("complete", 2)) is not None


def test_biconvex_layout_orders_both_sides():
    g = gen_random_biconvex(6, 6, seed=11)
    b = recognize_biconvex(g)
    assert b is not None
    # every B-neighborhood consecutive under a_pos_prime
    for bb in range(g.n_b):
        ps = sorted(b.a_pos_prime[a] for a in g.b_adj[bb])
        if ps:
            assert ps[-1] - ps[0] + 1 == len(ps)


# ---------------------------------------------------------------------------
# check_proper_ordering


def test_half_square_A_is_interval_intersection_graph():
    for seed in range(20):
        g = gen_random_convex(8, 8, 6, seed)
        layout = recognize_convex(g)
        ha = half_square(g, "A")
        for u in range(g.n_a):
            for v in range(u + 1, g.n_a):
                iu, iv = layout.intervals[u], layout.intervals[v]
                meet = (iu is not None and iv is not None
                        and iu[0] <= iv[1] and iv[0] <= iu[1])
                assert ha.has_edge(u, v) == meet


def test_proper_ordering_on_generated_convex():
    for seed in range(20):
        g = gen_random_convex(7, 7, 5, seed)
        layout = recognize_convex(g)
        assert check_proper_ordering(half_square(g, "B"), layout)


def test_proper_ordering_violation():
    # half square of a path a0-b0-a1, a1-b1, a2-b1, a2-b2: B-side is P3
    g = build_bipartite(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
    h = half_square(g, "B")
    assert sorted(h.edges()) == [(0, 1), (1, 2)]
    # place the middle vertex of the path first: 1, 0, 2 as positions, in
    # a layout of an edgeless graph, under which any order is convex
    bad = ConvexLayout(build_bipartite(0, 3, []), (1, 0, 2))
    assert not check_proper_ordering(h, bad)


def test_proper_ordering_edgeless():
    g = build_bipartite(2, 3, [(0, 0)])
    layout = recognize_convex(g)
    assert check_proper_ordering(half_square(g, "B"), layout)


# ---------------------------------------------------------------------------
# ordering observation: a <_A a', b' <_B b, b in N(a), b' in N(a') => b in N(a')


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_order_observation_on_small_corpus(seed):
    rng = SplitMix64(seed)
    g = gen_random_convex(rng.randint(1, 12), rng.randint(1, 12), 12, seed)
    layout = recognize_convex(g)
    noniso = [a for a in range(g.n_a) if g.adj[a]]
    for a in noniso:
        for a2 in noniso:
            if layout.a_rank[a] >= layout.a_rank[a2]:
                continue
            for b in g.adj[a]:
                for b2 in g.adj[a2]:
                    if layout.b_pos[b2] < layout.b_pos[b]:
                        assert b in set(g.adj[a2])


def test_recognition_deterministic_snapshot():
    g = gen_random_convex(8, 8, 8, seed=42)
    layout = recognize_convex(g)
    again = recognize_convex(gen_random_convex(8, 8, 8, seed=42))
    assert layout == again


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_recognize_random(seed):
    rng = SplitMix64(seed)
    g = random_bipartite(rng, rng.randint(0, 5), rng.randint(1, 5), 0.5)
    result = recognize_convex(g)
    expected = brute_force_c1p(g.n_b, [g.adj[a] for a in range(g.n_a)])
    if expected is None:
        assert isinstance(result, NonConvexWitness)
    else:
        assert isinstance(result, ConvexLayout)
        # built from the recognizer's positions, it is the layout the
        # checked explicit-order path gives for the same order
        assert result == layout_from_order(g, result.b_seq)
