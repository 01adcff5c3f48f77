import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqchroma import oracle, reduction
from sqchroma.convexity import NonConvexWitness, recognize_convex
from sqchroma.core import SimpleGraph, girth, max_degree, square, square_simple
from sqchroma.generators import gen_girth7
from sqchroma.oracle import ExactStats, exact_clique
from sqchroma.reduction import (
    check_halfsquare_iso,
    check_omega_delta_girth,
    check_sandwich,
    has_split_matching,
    split_reduction,
)
from sqchroma.rng import SplitMix64


def path_graph(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return SimpleGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return SimpleGraph.from_edges(10, outer + inner + spokes)


def random_simple(seed, max_n=10, p=0.4):
    rng = SplitMix64(seed)
    n = rng.randint(1, max_n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


def test_split_single_vertex_is_k11():
    b_g, m = split_reduction(SimpleGraph.from_edges(1, []))
    assert (b_g.n_a, b_g.n_b, b_g.m) == (1, 1, 1)
    assert has_split_matching(b_g, m)


def test_split_k2_is_c4():
    b_g, _ = split_reduction(complete_graph(2))
    assert (b_g.n_a, b_g.n_b, b_g.m) == (2, 2, 4)
    sg = SimpleGraph.from_edges(4, [(a, 2 + b) for a, b in b_g.edges()])
    assert girth(sg) == 4


def test_split_c5_halfsquares_are_c5_square():
    g = cycle_graph(5)
    b_g, m = split_reduction(g)
    assert check_halfsquare_iso(g, b_g, m)


def test_iso_check_petersen_and_c7():
    for g in (petersen(), cycle_graph(7)):
        b_g, m = split_reduction(g)
        assert check_halfsquare_iso(g, b_g, m)
        assert has_split_matching(b_g, m)


def test_iso_check_edgeless():
    g = SimpleGraph.from_edges(3, [])
    b_g, m = split_reduction(g)
    assert b_g.m == 3  # just the matching
    assert check_halfsquare_iso(g, b_g, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_iso_check_random_corpus(seed):
    g = random_simple(seed, max_n=12)
    b_g, m = split_reduction(g)
    assert check_halfsquare_iso(g, b_g, m)
    assert has_split_matching(b_g, m)


def test_sandwich_k3_tight_upper():
    g = complete_graph(3)
    b_g, _ = split_reduction(g)
    assert exact_clique(square_simple(g)) == 3
    assert exact_clique(square(b_g)) == 6  # K_{3,3} squared: clique on 6
    assert check_sandwich(g, b_g)


def test_sandwich_p3_and_single_vertex():
    for g in (path_graph(3), SimpleGraph.from_edges(1, [])):
        b_g, _ = split_reduction(g)
        assert check_sandwich(g, b_g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_sandwich_random(seed):
    g = random_simple(seed, max_n=8)
    b_g, _ = split_reduction(g)
    assert check_sandwich(g, b_g)


def test_sandwich_searches_each_square_once(monkeypatch):
    # omega and chi of a square come from one exact_stats call, so each
    # square runs one clique search
    calls = []
    real = oracle._max_clique
    monkeypatch.setattr(oracle, "_max_clique",
                        lambda h, *args: calls.append(h.n) or real(h, *args))
    g = cycle_graph(5)
    b_g, _ = split_reduction(g)
    assert check_sandwich(g, b_g)
    assert calls == [5, 10]


def test_sandwich_bounds_chi_by_twice_chi(monkeypatch):
    # the chromatic chain ends at 2 chi(G^2), not 2 omega(G^2): with
    # chi 3 and omega 2 on G^2, chi 5 on B_G^2 fits and chi 7 does not
    g = cycle_graph(5)
    b_g, _ = split_reduction(g)
    for bg_chi, holds in ((5, True), (7, False)):
        stats = iter([ExactStats(3, 2, 0), ExactStats(bg_chi, 3, 0)])
        monkeypatch.setattr(reduction, "exact_stats",
                            lambda h, budget: next(stats))
        assert check_sandwich(g, b_g) is holds


def test_split_of_bipartite_stays_bipartite_with_sandwich():
    # bipartite input: odd cycles absent before and after splitting
    g = cycle_graph(6)
    b_g, _ = split_reduction(g)
    sg = b_g.simple
    assert girth(sg) % 2 == 0 or girth(sg) == float("inf")
    assert check_sandwich(g, b_g)


def test_most_reductions_not_convex():
    # splitting a 5-cycle yields a non-convex bipartite graph
    b_g, _ = split_reduction(cycle_graph(5))
    assert isinstance(recognize_convex(b_g), NonConvexWitness)


def test_omega_delta_girth_c7():
    assert check_omega_delta_girth(cycle_graph(7))


def test_omega_delta_girth_binary_tree():
    t = gen_girth7("tree", {"branching": 2, "depth": 3})
    assert max_degree(t) == 3
    assert check_omega_delta_girth(t)


def test_omega_delta_girth_heptagon_with_pendants():
    edges = [(i, (i + 1) % 7) for i in range(7)]
    edges += [(i, 7 + i) for i in range(7)]  # one pendant per vertex
    g = SimpleGraph.from_edges(14, edges)
    assert max_degree(g) == 3
    assert exact_clique(square_simple(g)) == 4
    assert check_omega_delta_girth(g)


def test_omega_delta_girth_precondition():
    with pytest.raises(ValueError):
        check_omega_delta_girth(cycle_graph(5))
    with pytest.raises(ValueError):
        check_omega_delta_girth(SimpleGraph.from_edges(3, [(0, 1)]))
