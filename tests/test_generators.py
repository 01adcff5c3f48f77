import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqchroma.convexity import (
    ConvexLayout,
    layout_from_order,
    recognize_biconvex,
    recognize_convex,
)
from sqchroma.core import (
    girth,
    half_square,
    read_bipartite_text,
    read_simple_text,
    square,
    write_bipartite_text,
    write_simple_text,
)
from sqchroma.generators import (
    gen_girth7,
    gen_lower_bound_H,
    gen_named,
    gen_random_biconvex,
    gen_random_convex,
)
from sqchroma.oracle import exact_stats, find_induced_cycles, is_perfect_small
from sqchroma.rng import SplitMix64, derive_seed


# ---------------------------------------------------------------------------
# named graphs


def test_named_not_perfect_square_has_c5():
    g = gen_named("not_perfect")
    assert (g.n_a, g.n_b, g.m) == (4, 4, 10)
    sq = square(g)
    assert (1, 2, 3, 7, 4) in find_induced_cycles(sq, 5, 5)
    assert not is_perfect_small(sq)


def test_named_antihole_edges():
    g = gen_named("antihole")
    assert g.adj == ((1, 2, 3), (0, 2), (0, 3), (0, 1))


def test_named_complete():
    g = gen_named("complete", 4)
    assert g.m == 16


def test_named_unknown_raises():
    with pytest.raises(ValueError):
        gen_named("mystery")
    with pytest.raises(ValueError):
        gen_named("complete")  # size required


# ---------------------------------------------------------------------------
# random convex


def test_random_convex_unit_intervals():
    g = gen_random_convex(5, 5, 1, seed=9)
    assert all(len(row) == 1 for row in g.adj)


def test_random_convex_degenerate_sides():
    g = gen_random_convex(0, 3, 2, seed=0)
    assert g.n_a == 0 and g.n_b == 3
    with pytest.raises(ValueError):
        gen_random_convex(3, 0, 1, seed=0)


def test_random_convex_snapshot_and_recognition():
    g = gen_random_convex(8, 8, 8, seed=42)
    # determinism regression: frozen edge list of the seeded instance
    assert g.adj == (
        (1, 2, 3, 4, 5, 6),
        (0, 1, 2),
        (0, 1, 2),
        (2, 3, 4, 5, 6, 7),
        (2, 3, 4, 5, 6, 7),
        (0, 1, 2, 3, 4, 5, 6, 7),
        (1, 2, 3, 4, 5, 6, 7),
        (2, 3, 4, 5, 6),
    )
    assert isinstance(recognize_convex(g), ConvexLayout)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_random_convex_always_recognized(seed):
    rng = SplitMix64(seed)
    g = gen_random_convex(rng.randint(0, 12), rng.randint(1, 12),
                          rng.randint(1, 12), seed)
    assert isinstance(recognize_convex(g), ConvexLayout)


def test_identical_seeds_identical_graphs():
    for seed in (0, 1, 7, 123456789):
        assert gen_random_convex(9, 7, 4, seed) == gen_random_convex(9, 7, 4, seed)
        assert gen_random_biconvex(6, 8, seed) == gen_random_biconvex(6, 8, seed)
    assert derive_seed(3, 1) == derive_seed(3, 1)
    assert derive_seed(3, 1) != derive_seed(3, 2)


# ---------------------------------------------------------------------------
# random biconvex


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_random_biconvex_always_biconvex(seed):
    rng = SplitMix64(seed)
    g = gen_random_biconvex(rng.randint(1, 10), rng.randint(1, 10), seed)
    assert recognize_biconvex(g) is not None


def test_random_biconvex_staircase_small():
    g = gen_random_biconvex(3, 3, seed=4)
    assert recognize_biconvex(g) is not None


def test_random_biconvex_square_c5_free():
    for seed in range(15):
        g = gen_random_biconvex(7, 7, seed)
        assert not find_induced_cycles(square(g), 5, 5)


def test_single_full_row_biconvex():
    g = gen_named("complete", 1)
    assert recognize_biconvex(g) is not None


# ---------------------------------------------------------------------------
# lower-bound family


def test_lower_bound_q2_closed_forms():
    g = gen_lower_bound_H(2)
    stats = exact_stats(square(g))
    assert stats.omega == 7 and stats.chi == 7


def test_lower_bound_q4_closed_forms():
    g = gen_lower_bound_H(4)
    stats = exact_stats(square(g))
    assert stats.omega == 11 and stats.chi == 12
    assert stats.chi >= 5 * stats.omega / 4 - 2


def test_lower_bound_layout_matches_construction():
    g = gen_lower_bound_H(2)
    layout = layout_from_order(g, range(g.n_b))
    assert layout.b_seq == tuple(range(g.n_b))
    assert isinstance(recognize_convex(g), ConvexLayout)


def test_lower_bound_halfsquares_perfect():
    g = gen_lower_bound_H(2)
    assert is_perfect_small(half_square(g, "A"))
    assert is_perfect_small(half_square(g, "B"))


def test_lower_bound_odd_q_rejected():
    for q in (1, 3, 0, -2):
        with pytest.raises(ValueError):
            gen_lower_bound_H(q)


# ---------------------------------------------------------------------------
# girth-7 generators


def test_girth7_long_cycle():
    assert girth(gen_girth7("long_cycle", {"n": 9})) == 9
    with pytest.raises(ValueError):
        gen_girth7("long_cycle", {"n": 5})


def test_girth7_tree_infinite():
    t = gen_girth7("tree", {"branching": 2, "depth": 4})
    assert girth(t) == math.inf


def test_girth7_subdivided_random():
    sg = gen_girth7("subdivided_random", {"n": 8, "p": 0.4}, seed=7)
    assert girth(sg) >= 9


def test_girth7_unknown_kind():
    with pytest.raises(ValueError):
        gen_girth7("moebius", {})


# ---------------------------------------------------------------------------
# text-format round trips


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_generator_outputs_roundtrip(seed):
    rng = SplitMix64(seed)
    g = gen_random_convex(rng.randint(0, 8), rng.randint(1, 8), 4, seed)
    assert read_bipartite_text(write_bipartite_text(g)) == g
    h = gen_girth7("long_cycle", {"n": 7 + seed % 5})
    assert read_simple_text(write_simple_text(h)) == h
