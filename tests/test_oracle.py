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
from sqchroma.oracle import (
    ExactStats,
    exact_chromatic,
    exact_clique,
    exact_stats,
    find_induced_cycles,
    has_odd_antihole_gt5,
    is_perfect_small,
)
from sqchroma.rng import SplitMix64

from helpers import (
    canonical_cycle,
    naive_chromatic,
    naive_induced_cycles,
    naive_max_clique,
    random_bipartite,
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
        sg = SimpleGraph.from_edges(
            g.n_a + g.n_b, [(a, g.n_a + b) for a, b in g.edges()]
        )
        assert is_perfect_small(sg)


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
