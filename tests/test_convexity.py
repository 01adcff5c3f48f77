import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqchroma.convexity import (
    BiconvexLayout,
    ConvexLayout,
    NonConvexWitness,
    attempted_order,
    check_proper_ordering,
    consecutive_order,
    layout_from_order,
    order_A,
    recognize_biconvex,
    recognize_convex,
)
from sqchroma.core import build_bipartite, half_square
from sqchroma.errors import LayoutMismatch
from sqchroma.generators import (
    gen_lower_bound_H,
    gen_named,
    gen_random_biconvex,
    gen_random_convex,
)
from sqchroma.rng import SplitMix64

from helpers import brute_force_c1p, random_bipartite


def _order_is_valid(n_cols, rows, order):
    pos = {c: i for i, c in enumerate(order)}
    assert sorted(order) == list(range(n_cols))
    for r in rows:
        ps = sorted(pos[c] for c in r)
        if ps and ps[-1] - ps[0] + 1 != len(ps):
            return False
    return True


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
    attempt = attempted_order(n_cols, rows)
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
        attempt = attempted_order(n_cols, rows)
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


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_nesting_and_large_inputs_need_no_recursion():
    chain = _nested_class_chain(2000)
    g = gen_random_convex(2000, 2000, 30, seed=0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        t0 = time.perf_counter()
        assert consecutive_order(2000, chain) == list(range(2000))
        t1 = time.perf_counter()
        assert isinstance(recognize_convex(g), ConvexLayout)
        t2 = time.perf_counter()
    finally:
        sys.setrecursionlimit(limit)
    # each takes a few seconds; an engine quadratic in the rows takes minutes
    assert t1 - t0 < 30 and t2 - t1 < 30


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
            consecutive_order(2, rows)


def test_engine_deterministic():
    rows = [{0, 1}, {1, 2}, {2, 3}, {0, 1, 2, 3, 4}]
    assert consecutive_order(6, rows) == consecutive_order(6, rows)


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
# order_A


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
    layout = recognize_convex(g)
    assert order_A(g, layout) == (0,)


def test_order_A_layout_mismatch():
    g = build_bipartite(2, 2, [(0, 0), (1, 1)])
    layout = recognize_convex(g)
    bad = ConvexLayout(layout.b_pos, ((0, 1), (1, 1)), layout.a_order)
    with pytest.raises(LayoutMismatch):
        order_A(g, bad)


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
    # place the middle vertex of the path first: 1, 0, 2 as positions
    bad = ConvexLayout((1, 0, 2), ((0, 0),) * 3, (0, 1, 2))
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
