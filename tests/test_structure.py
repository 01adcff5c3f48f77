import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqchroma.convexity import recognize_convex
from sqchroma.core import girth, half_square, max_degree, square, square_simple
from sqchroma.errors import NotInducedCycle
from sqchroma.generators import gen_girth7, gen_named, gen_random_biconvex, gen_random_convex
from sqchroma.oracle import exact_clique, find_induced_cycles
from sqchroma.rng import SplitMix64
from sqchroma.structure import (
    check_partite_count,
    cycle_meets_both_sides,
    cycle_spectrum_check,
    interior_emptiness,
    is_AB_path,
    partite_testable_antihole_check,
    perfectness_partite_tests,
    spectrum_contiguous,
    verify_cycle_structure,
)

from helpers import maximal_cliques, random_bipartite


NP = gen_named("not_perfect")
NP_LAYOUT = recognize_convex(NP)


# ---------------------------------------------------------------------------
# is_AB_path


def test_ab_path_figure_decomposition():
    # the C5 in the square decomposes as path (v1,v2,v3) with private
    # neighbors v5 and v4; globals: v1,v2,v3 = A1,A2,A3; v5 = B0, v4 = B3
    assert is_AB_path(NP, NP_LAYOUT, [1, 2, 3], 4 + 0, 4 + 3)


def test_ab_path_single_vertex_false():
    assert not is_AB_path(NP, NP_LAYOUT, [1], 4 + 0, 4 + 3)


def test_ab_path_shared_endpoint_neighbor_false():
    # b = b' is rejected, and so is a non-private b
    assert not is_AB_path(NP, NP_LAYOUT, [1, 2], 4 + 1, 4 + 1)
    assert not is_AB_path(NP, NP_LAYOUT, [1, 2], 4 + 1, 4 + 2)


def test_ab_path_non_induced_false():
    # A0 is adjacent to everything on the A side
    assert not is_AB_path(NP, NP_LAYOUT, [1, 0, 3], 4 + 0, 4 + 3)


# ---------------------------------------------------------------------------
# verify_cycle_structure


def test_structure_of_figure_c5():
    report = verify_cycle_structure(NP, NP_LAYOUT, (1, 2, 3, 7, 4))
    assert report.ok
    assert report.a_path == (1, 2, 3)
    assert report.b_end_low == 4 and report.b_end_high == 7  # v5, v4
    assert report.private_bs == (5, 6)  # b1, b2
    assert report.common_a == 0  # the vertex a sees all of B
    assert check_partite_count(NP, NP_LAYOUT, (1, 2, 3, 7, 4))
    assert interior_emptiness(NP, NP_LAYOUT, report)


def test_structure_of_biconvex_c4():
    g = gen_named("biconvex")
    layout = recognize_convex(g)
    sq = square(g)
    cycles = find_induced_cycles(sq, 4, 4)
    assert cycles, "the biconvex figure square contains an induced C4"
    for cyc in cycles:
        report = verify_cycle_structure(g, layout, cyc)
        assert report.ok


def test_structure_rejects_triangle_and_chords():
    with pytest.raises(NotInducedCycle):
        verify_cycle_structure(NP, NP_LAYOUT, (0, 1, 4))
    with pytest.raises(NotInducedCycle):
        # chord: 0 adjacent to everything
        verify_cycle_structure(NP, NP_LAYOUT, (0, 1, 2, 3))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_structure_corpus(seed):
    rng = SplitMix64(seed)
    g = gen_random_convex(rng.randint(1, 10), rng.randint(1, 10), 10, seed)
    layout = recognize_convex(g)
    sq = square(g)
    for cyc in find_induced_cycles(sq, 4, sq.n):
        report = verify_cycle_structure(g, layout, cyc)
        assert report.ok
        assert check_partite_count(g, layout, cyc)
        assert interior_emptiness(g, layout, report)
        assert cycle_meets_both_sides(g, layout, cyc)
    assert cycle_spectrum_check(g, layout)


def test_partite_count_forces_k4_on_biconvex():
    # both orientations of a biconvex graph put exactly two cycle
    # vertices on the consecutive side, forcing k = 4
    for seed in range(12):
        g = gen_random_biconvex(6, 6, seed)
        layout = recognize_convex(g)
        sq = square(g)
        for cyc in find_induced_cycles(sq, 4, sq.n):
            assert len(cyc) == 4
            assert check_partite_count(g, layout, cyc)


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_figure_has_4_and_5():
    sq = square(NP)
    lengths = {len(c) for c in find_induced_cycles(sq, 4, sq.n)}
    assert lengths == {4, 5}
    assert cycle_spectrum_check(NP, NP_LAYOUT)


def test_spectrum_chordal_square_vacuous():
    g = gen_named("convex_c4free")
    assert cycle_spectrum_check(g, recognize_convex(g))


@pytest.mark.parametrize("lengths, contiguous", [
    ((), True), ((4,), True), ((4, 5, 4, 6), True), ((5,), False),
    ((4, 6), False), ((5, 6, 7), False), ((4, 5, 7), False)])
def test_spectrum_rule(lengths, contiguous):
    cycles = [tuple(range(k)) for k in lengths]
    assert spectrum_contiguous(cycles) is contiguous


def test_spectrum_rule_agrees_with_the_check():
    for seed in range(20):
        g = gen_random_convex(7, 7, 4, seed)
        sq = square(g)
        assert spectrum_contiguous(find_induced_cycles(sq, 4, sq.n)) is \
            cycle_spectrum_check(g, recognize_convex(g))


# ---------------------------------------------------------------------------
# partite-testable properties


def test_antihole_check_chordal_bipartite():
    # convex bipartite inputs are chordal bipartite, so their squares
    # carry no odd antihole above five
    for seed in range(10):
        g = gen_random_convex(7, 7, 7, seed)
        assert partite_testable_antihole_check(g)


def test_antihole_check_figure_even_case():
    # the antihole figure: half squares are antihole-free, the square has
    # an even 6-antihole, so the odd implication still holds
    g = gen_named("antihole")
    from sqchroma.oracle import has_odd_antihole_gt5

    assert not has_odd_antihole_gt5(half_square(g, "A"))
    assert not has_odd_antihole_gt5(half_square(g, "B"))
    assert partite_testable_antihole_check(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_antihole_check_random_bipartite(seed):
    rng = SplitMix64(seed)
    g = random_bipartite(rng, rng.randint(1, 9), rng.randint(1, 9), 0.4)
    assert partite_testable_antihole_check(g)


def test_antihole_figure_exact_six_antihole():
    # {a2, b2, a3, b3, a4, b4} induce the complement of a six-cycle in
    # exactly that cyclic order
    g = gen_named("antihole")
    sq = square(g)
    ring = [1, 4 + 1, 2, 4 + 2, 3, 4 + 3]
    k = len(ring)
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            assert sq.has_edge(ring[i], ring[j]) == (not consecutive)


def test_perfectness_reports_on_figures():
    rep = perfectness_partite_tests(gen_named("convex_c4free"))
    assert rep.c4_free and rep.chordal and rep.ok
    rep = perfectness_partite_tests(gen_named("biconvex"))
    assert rep.biconvex and rep.c5_free and rep.perfect and not rep.chordal
    assert rep.ok
    rep = perfectness_partite_tests(NP)
    assert not rep.c5_free and not rep.perfect and rep.ok  # vacuous pass


# ---------------------------------------------------------------------------
# clique containment and the girth lemma


def test_halfsquare_cliques_inside_neighborhoods():
    for seed in range(15):
        rng = SplitMix64(seed)
        g = gen_random_convex(rng.randint(1, 8), rng.randint(1, 8), 8, seed)
        ha, hb = half_square(g, "A"), half_square(g, "B")
        for clique in maximal_cliques(ha):
            assert any(clique <= set(g.b_adj[b]) for b in range(g.n_b)) \
                or len(clique) <= 1
        for clique in maximal_cliques(hb):
            assert any(clique <= set(g.adj[a]) for a in range(g.n_a)) \
                or len(clique) <= 1


def test_girth_lemma_on_generator_outputs():
    cases = [
        gen_girth7("long_cycle", {"n": 7}),
        gen_girth7("long_cycle", {"n": 9}),
        gen_girth7("tree", {"branching": 2, "depth": 3}),
        gen_girth7("subdivided_random", {"n": 8, "p": 0.4}, seed=7),
    ]
    for sg in cases:
        delta = max_degree(sg)
        if delta < 2:
            continue
        assert girth(sg) >= 7
        assert exact_clique(square_simple(sg)) == delta + 1
