import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqchroma.core import SimpleGraph, complement, square
from sqchroma.errors import BudgetExceeded
from sqchroma.generators import (
    gen_lower_bound_H,
    gen_named,
    gen_random_biconvex,
    gen_random_convex,
)
from sqchroma import oracle
from sqchroma.oracle import (
    ExactStats,
    _color_bound,
    _dsatur_greedy,
    exact_chromatic,
    exact_clique,
    exact_stats,
    find_induced_cycles,
    greedy_clique,
    has_odd_antihole_gt5,
    has_odd_hole,
    is_perfect_small,
    iter_induced_cycles,
)
from sqchroma.rng import SplitMix64

from helpers import (
    canonical_cycle,
    naive_chromatic,
    naive_induced_cycles,
    naive_max_clique,
    quadratic_color_bound,
    quadratic_dsatur_greedy,
    random_bipartite,
    reference_exact_stats,
    set_greedy_clique,
    stack_depth,
    walk_induced_cycles,
)


def cycle_graph(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return SimpleGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def random_simple(seed, max_n=9, p=0.45):
    rng = SplitMix64(seed)
    n = rng.randint(1, max_n)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return SimpleGraph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# exact_chromatic


def test_chromatic_c5():
    assert exact_chromatic(cycle_graph(5)) == 3


def test_chromatic_square_lower_bound_q2():
    sq = square(gen_lower_bound_H(2))
    assert exact_chromatic(sq) == 7  # 5q/2 + 2 with q = 2


def test_chromatic_square_k44():
    assert exact_chromatic(square(gen_named("complete", 4))) == 8


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_chromatic_matches_naive(seed):
    g = random_simple(seed, max_n=8)
    assert exact_chromatic(g) == naive_chromatic(g)


# ---------------------------------------------------------------------------
# exact_clique


def test_clique_square_lower_bound_q2():
    assert exact_clique(square(gen_lower_bound_H(2))) == 7  # 2q + 3


def test_clique_edgeless():
    assert exact_clique(SimpleGraph.from_edges(4, [])) == 1


def test_clique_k6():
    assert exact_clique(complete_graph(6)) == 6


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_clique_matches_naive(seed):
    g = random_simple(seed, max_n=9)
    assert exact_clique(g) == naive_max_clique(g)


def test_clique_le_chromatic_and_stats():
    for seed in range(30):
        g = random_simple(seed, max_n=8)
        stats = exact_stats(g)
        assert stats.omega <= stats.chi
        assert stats.node_budget_used >= 0
    with pytest.raises(ValueError):
        ExactStats(chi=2, omega=3, node_budget_used=0)


def test_budget_exceeded_carries_bounds():
    g = random_simple(7, max_n=9, p=0.5)
    with pytest.raises(BudgetExceeded) as exc:
        exact_clique(g, budget=0)
    assert exc.value.nodes is not None
    assert exc.value.lower is not None


def test_budget_env_var_override(monkeypatch):
    g = random_simple(7, max_n=9, p=0.5)
    monkeypatch.setenv("SQCHROMA_BUDGET", "0")
    with pytest.raises(BudgetExceeded):
        exact_clique(g)
    monkeypatch.setenv("SQCHROMA_BUDGET", "100000")
    assert exact_clique(g) >= 1


@pytest.mark.parametrize("value", ["abc", "1_000", "+5", " 7", "1e3", "0x10"])
def test_budget_env_var_is_a_decimal_integer(monkeypatch, value):
    # read by the text format's integer rule, not by int()
    monkeypatch.setenv("SQCHROMA_BUDGET", value)
    with pytest.raises(ValueError) as err:
        exact_clique(random_simple(7, max_n=9, p=0.5))
    assert str(err.value) == (
        f"SQCHROMA_BUDGET must be a decimal integer, got {value!r}")


@pytest.mark.parametrize("value", ["-3", "-1"])
def test_budget_env_var_must_not_be_negative(monkeypatch, value):
    # refused as --budget refuses it, not run as a budget of 0
    monkeypatch.setenv("SQCHROMA_BUDGET", value)
    with pytest.raises(ValueError) as err:
        exact_clique(random_simple(7, max_n=9, p=0.5))
    assert str(err.value) == f"SQCHROMA_BUDGET must be 0 or more, got {value!r}"


def test_budget_env_var_takes_zero_and_minus_zero(monkeypatch):
    for value in ("0", "-0"):
        monkeypatch.setenv("SQCHROMA_BUDGET", value)
        with pytest.raises(BudgetExceeded):
            exact_clique(random_simple(7, max_n=9, p=0.5))


def test_perfect_graphs_have_chi_equal_omega():
    for seed in range(40):
        g = random_simple(seed, max_n=8)
        if is_perfect_small(g):
            stats = exact_stats(g)
            assert stats.chi == stats.omega


# ---------------------------------------------------------------------------
# find_induced_cycles


def test_cycles_c6():
    c6 = cycle_graph(6)
    assert find_induced_cycles(c6, 4, 6) == [(0, 1, 2, 3, 4, 5)]


def test_cycles_chordal_graph_empty():
    # K4 minus nothing is chordal; also a triangle with a pendant
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert find_induced_cycles(g, 4, 4) == []


def test_square_of_not_perfect_contains_the_c5():
    g = gen_named("not_perfect")
    sq = square(g)
    # v1..v5 = A1, A2, A3, B3, B0 in global square indices (n_a = 4)
    expected = canonical_cycle([1, 2, 3, 7, 4])
    cycles = find_induced_cycles(sq, 5, 5)
    assert expected in cycles


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_cycles_match_subset_enumeration(seed):
    g = random_simple(seed, max_n=9, p=0.35)
    got = find_induced_cycles(g, 4, g.n)
    expected = naive_induced_cycles(g, 4, g.n)
    assert got == expected


def test_cycles_of_a_long_cycle_need_no_recursion():
    # the unpruned walk is cubic here and takes minutes at this length
    c3000 = cycle_graph(3000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        cycles = find_induced_cycles(c3000, 4, 3000)
        odd = has_odd_hole(cycle_graph(3001))
    finally:
        sys.setrecursionlimit(limit)
    assert cycles == [tuple(range(3000))]
    assert odd


# (min_len, max_len) windows; None stands for the graph's order
_WINDOWS = [(4, None), (3, 3), (4, 5), (5, 8), (6, 6)]


def _assert_reference_order(h):
    """The same cycles, unsorted, as the unpruned walk in every window."""
    for min_len, max_len in _WINDOWS:
        max_len = h.n if max_len is None else max_len
        got = list(iter_induced_cycles(h, min_len, max_len))
        assert got == list(walk_induced_cycles(h, min_len, max_len)), \
            (min_len, max_len)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 40),
       st.sampled_from([0.05, 0.1, 0.2, 0.3]))
def test_cycles_come_in_the_reference_order(seed, n, p):
    g = gnp(seed, n, p)
    _assert_reference_order(g)
    # the antihole search enumerates on the complement
    _assert_reference_order(complement(g))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(70, 130),
       st.sampled_from([0.5, 1.0, 1.5]))
def test_cycles_come_in_the_reference_order_past_64_vertices(seed, n, degree):
    # neighbour masks of several int digits
    _assert_reference_order(gnp(seed, n, degree / n))


def test_cycles_come_in_the_reference_order_on_squares():
    for g in (gen_lower_bound_H(2), gen_lower_bound_H(4),
              gen_named("complete", 8)):
        _assert_reference_order(square(g))


def test_cycles_canonical_and_unique():
    g = cycle_graph(5)
    cycles = find_induced_cycles(g, 4, 5)
    assert cycles == [(0, 1, 2, 3, 4)]


# ---------------------------------------------------------------------------
# antiholes / perfectness


def test_c5_not_perfect():
    assert not is_perfect_small(cycle_graph(5))


def test_bipartite_graphs_perfect():
    for seed in range(15):
        rng = SplitMix64(seed)
        g = random_bipartite(rng, rng.randint(1, 5), rng.randint(1, 5), 0.5)
        assert is_perfect_small(g.simple)


def test_biconvex_squares_perfect_sample():
    for seed in range(10):
        g = gen_random_biconvex(6, 6, seed)
        assert is_perfect_small(square(g))


def test_antihole_detector_on_c7_complement():
    g = complement(cycle_graph(7))
    assert has_odd_antihole_gt5(g)
    assert not is_perfect_small(g)


def test_even_antihole_not_flagged():
    g = complement(cycle_graph(6))
    assert not has_odd_antihole_gt5(g)


def test_perfectness_by_chi_omega_on_random_graphs():
    # SPGT-based check against the definition chi(H') == omega(H') for
    # every induced subgraph, on tiny graphs
    from itertools import combinations

    from sqchroma.core import induced_subgraph

    for seed in range(12):
        g = random_simple(seed, max_n=6, p=0.5)
        by_definition = True
        for k in range(1, g.n + 1):
            for verts in combinations(range(g.n), k):
                sub, _ = induced_subgraph(g, verts)
                st_ = exact_stats(sub)
                if st_.chi != st_.omega:
                    by_definition = False
                    break
            if not by_definition:
                break
        assert is_perfect_small(g) == by_definition


# ---------------------------------------------------------------------------
# search effort, pinned


def gnp(seed, n, p):
    rng = SplitMix64(seed)
    return SimpleGraph.from_edges(n, [(u, v) for u in range(n)
                                      for v in range(u + 1, n)
                                      if rng.random() < p])


def test_exact_stats_node_count_on_h4_square():
    assert exact_stats(square(gen_lower_bound_H(4))) == ExactStats(12, 11, 264_393)


# (chi, omega, node_budget_used) of each search, recorded before the greedy
# clique was shared between the clique and the chromatic search
_PINNED_GNP = [
    (4, 3, 10), (4, 4, 19), (5, 5, 16), (7, 6, 18), (4, 4, 2), (4, 4, 3),
    (6, 6, 1), (6, 5, 8), (4, 3, 9), (5, 4, 24), (5, 5, 14), (6, 5, 11),
    (4, 4, 2), (5, 5, 2), (6, 5, 17), (6, 6, 1), (4, 4, 1), (6, 5, 26),
    (6, 5, 10), (8, 7, 9), (4, 4, 1), (4, 4, 22), (5, 5, 1), (7, 6, 15)]
_PINNED_CONVEX = [
    (8, 8, 1), (8, 8, 1), (9, 9, 1), (8, 8, 1), (9, 9, 1), (9, 9, 1),
    (8, 8, 2), (7, 7, 20), (7, 7, 20), (11, 11, 1), (7, 7, 1), (8, 8, 2)]


def test_exact_stats_search_effort_is_pinned():
    got = [exact_stats(gnp(s, 16 + s % 5, 0.3 + 0.1 * (s % 4)))
           for s in range(24)]
    assert got == [ExactStats(*t) for t in _PINNED_GNP]
    got = [exact_stats(square(gen_random_convex(12, 12, 6, s)))
           for s in range(12)]
    assert got == [ExactStats(*t) for t in _PINNED_CONVEX]
    assert exact_stats(square(gen_lower_bound_H(2))) == ExactStats(7, 7, 11)


# ---------------------------------------------------------------------------
# the chromatic search walks the tree of the recursive reference


def _outcome(stats, h, budget):
    """(chi, omega, nodes), or what the BudgetExceeded raised carries."""
    try:
        got = stats(h, budget)
    except BudgetExceeded as exc:
        return (str(exc), exc.nodes, exc.lower, exc.upper)
    return (got.chi, got.omega, got.node_budget_used)


def _assert_same_outcome(h, budget):
    assert (_outcome(exact_stats, h, budget)
            == _outcome(reference_exact_stats, h, budget)), budget


def _assert_same_search(h):
    """Same ExactStats as the reference, and the same BudgetExceeded at a
    spread of budgets below the full count."""
    want = reference_exact_stats(h, 10 ** 7)
    assert exact_stats(h) == want
    full = want.node_budget_used
    for budget in sorted({0, 1, full // 3, full // 2, full - 1}):
        if budget < full:
            _assert_same_outcome(h, budget)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 28),
       st.sampled_from([0.2, 0.35, 0.5, 0.65, 0.8]))
def test_chromatic_search_matches_reference(seed, n, p):
    _assert_same_search(gnp(seed, n, p))


# nine vertices on which DSATUR uses four colors although three suffice,
# so the chromatic search runs; vertices 9 on are a path
_GADGET = [(0, 2), (0, 5), (0, 6), (0, 8), (1, 7), (1, 8), (2, 3), (2, 4),
           (3, 7), (3, 8), (5, 6), (5, 7), (6, 7)]


def gadget_and_path(k):
    return SimpleGraph.from_edges(
        9 + k, _GADGET + [(9 + i, 10 + i) for i in range(k - 1)])


def test_chromatic_search_matches_reference_on_corpus():
    for s in range(40):
        _assert_same_search(gnp(s, 14 + s % 15, 0.3 + 0.1 * (s % 5)))
    for s in range(60):
        _assert_same_search(square(gen_random_convex(12, 12, 6, s)))
    _assert_same_search(gadget_and_path(0))
    _assert_same_search(gadget_and_path(30))
    _assert_same_search(square(gen_lower_bound_H(2)))


def circulant(n, jumps):
    return SimpleGraph.from_edges(
        n, {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})


def complete_multipartite(*sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return SimpleGraph.from_edges(n, [(u, v) for u in range(n)
                                      for v in range(u + 1, n)
                                      if part[u] != part[v]])


def cartesian(g, h):
    return SimpleGraph.from_edges(
        g.n * h.n,
        [(a * h.n + b, w * h.n + b) for a in range(g.n) for b in range(h.n)
         for w in g.adj[a]]
        + [(a * h.n + b, a * h.n + w) for a in range(g.n)
           for b in range(h.n) for w in h.adj[b]])


def test_chromatic_search_matches_reference_with_five_saturation_planes():
    # DSATUR uses 17 or more colors here, so saturations take five planes,
    # and a vertex that sees 16 colors carries into the fifth
    for seed, n, p in [(4, 40, 0.8), (0, 40, 0.85), (2, 40, 0.9),
                       (3, 40, 0.9)]:
        g = gnp(seed, n, p)
        assert max(_dsatur_greedy(g).values()) >= 17
        _assert_same_search(g)


def test_chromatic_search_matches_reference_past_64_vertices():
    # the masks span several int digits, and the color masks lie n bits
    # apart in one int
    for seed, n, p in [(0, 70, 0.1), (1, 70, 0.1), (2, 90, 0.1),
                       (0, 90, 0.05), (5, 130, 0.03), (5, 130, 0.08)]:
        _assert_same_search(gnp(seed, n, p))
    _assert_same_search(gadget_and_path(60))


def test_chromatic_search_matches_reference_on_regular_graphs():
    # every vertex has the same degree, so the pick among equally
    # saturated vertices rests on the index alone; a complete multipartite
    # graph alone is colored optimally by DSATUR, so it enters as a factor
    graphs = [cycle_graph(n) for n in (5, 9, 21, 67)]
    graphs += [circulant(n, jumps) for n, jumps in [
        (11, [1, 2]), (13, [1, 2, 4]), (17, [1, 2]), (23, [1, 2]),
        (29, [1, 2, 4]), (13, [1, 3, 5]), (10, [2, 5])]]
    graphs += [complement(cycle_graph(n)) for n in (7, 11)]
    graphs += [cartesian(complete_multipartite(2, 2, 2, 2), cycle_graph(7)),
               cartesian(complete_multipartite(3, 3, 3), circulant(7, [1, 2])),
               cartesian(complete_multipartite(2, 2), circulant(11, [1, 2]))]
    for g in graphs:
        assert len({len(nbrs) for nbrs in g.adj}) == 1
        # DSATUR exceeds omega, so the search runs
        assert max(_dsatur_greedy(g).values()) > exact_stats(g).omega
        _assert_same_search(g)


def test_exact_stats_on_a_long_path_is_pinned():
    # too deep for the recursive reference: 3000 vertices of path after
    # the gadget, one node per vertex
    assert exact_stats(gadget_and_path(3000)) == ExactStats(3, 3, 3008)


def test_chromatic_search_matches_reference_on_h4_square():
    # the full count, 264 393, is pinned above; one node short of it the
    # search stops with the same bounds as the reference
    h = square(gen_lower_bound_H(4))
    for budget in (1000, 50_000, 264_392):
        _assert_same_outcome(h, budget)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 40),
       st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]))
def test_dsatur_greedy_matches_quadratic_reference(seed, n, p):
    g = gnp(seed, n, p)
    got = _dsatur_greedy(g)
    want = quadratic_dsatur_greedy(g)
    # the same vertices in the same order, with the same colors
    assert list(got.items()) == list(want.items())


def test_dsatur_greedy_matches_quadratic_reference_on_squares():
    for g in [gadget_and_path(0), gadget_and_path(30),
              square(gen_lower_bound_H(4))]:
        assert list(_dsatur_greedy(g).items()) == list(
            quadratic_dsatur_greedy(g).items())
    for s in range(30):
        g = square(gen_random_convex(12, 12, 6, s))
        assert list(_dsatur_greedy(g).items()) == list(
            quadratic_dsatur_greedy(g).items())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 40),
       st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]))
def test_greedy_clique_matches_set_reference(seed, n, p):
    # dense draws tie on degree and on neighbours among the candidates
    g = gnp(seed, n, p)
    assert greedy_clique(g) == set_greedy_clique(g)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(70, 130),
       st.sampled_from([0.5, 1.0, 1.5, 3.0]))
def test_greedy_clique_matches_set_reference_past_64_vertices(seed, n, degree):
    # neighbour masks of several int digits
    g = gnp(seed, n, degree / n)
    assert greedy_clique(g) == set_greedy_clique(g)


def test_greedy_clique_matches_set_reference_on_squares():
    graphs = [square(gen_lower_bound_H(2)), square(gen_lower_bound_H(4)),
              square(gen_named("complete", 8))]
    graphs += [square(gen_random_convex(12, 12, 6, s)) for s in range(30)]
    for g in graphs:
        assert greedy_clique(g) == set_greedy_clique(g)


def test_greedy_clique_grows_only_above_the_degree_bound():
    # the gadget's first start, vertex 0 of degree 4, grows a triangle, so
    # only starts of degree 3 or more can give a larger clique; the 3000
    # path vertices have degree 2 or less and are never grown from
    g = gadget_and_path(3000)
    grown = []
    real = oracle._grow_clique

    def counted(bits, start):
        grown.append(start)
        return real(bits, start)

    with mock.patch.object(oracle, "_grow_clique", counted):
        clique = greedy_clique(g)
    assert clique == [0, 5, 6]
    assert grown == [0, 7, 2, 3, 5, 6, 8]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 40),
       st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]))
def test_color_bound_matches_quadratic_reference(seed, n, p):
    g = gnp(seed, n, p)
    rng = SplitMix64(seed ^ 0x5EED)
    cands = [v for v in range(n) if rng.random() < 0.7]
    for i in range(len(cands) - 1, 0, -1):  # any order the search may pass
        j = int(rng.random() * (i + 1))
        cands[i], cands[j] = cands[j], cands[i]
    # the same classes, in the same order, listed the same way
    assert _color_bound(g.bits, cands) == quadratic_color_bound(
        g, cands)


def test_color_bound_matches_quadratic_reference_inside_the_search():
    calls = 0

    def checked(bits, cands):
        nonlocal calls
        calls += 1
        got = real(bits, cands)
        assert got == quadratic_color_bound(h, cands)
        return got

    real = oracle._color_bound
    graphs = [gadget_and_path(30), square(gen_lower_bound_H(2)),
              square(gen_named("not_perfect"))]
    graphs += [square(gen_random_convex(12, 12, 6, s)) for s in range(6)]
    graphs += [gnp(s, 20, 0.5) for s in range(6)]
    with mock.patch.object(oracle, "_color_bound", checked):
        for h in graphs:
            exact_stats(h)
    assert calls > len(graphs)


def test_chromatic_search_needs_no_recursion():
    gadget = gadget_and_path(0)
    assert max(_dsatur_greedy(gadget).values()) == 4
    assert exact_stats(gadget).chi == 3
    g = gadget_and_path(500)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        stats = exact_stats(g)
    finally:
        sys.setrecursionlimit(limit)
    assert (stats.chi, stats.omega) == (3, 3)
