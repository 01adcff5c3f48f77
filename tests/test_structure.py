import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqchroma import cli, structure
from sqchroma.convexity import recognize_convex
from sqchroma.core import (
    build_bipartite,
    girth,
    half_square,
    max_degree,
    square,
    square_simple,
    write_bipartite_text,
)
from sqchroma.errors import (
    AlgorithmInvariantViolation,
    LayoutMismatch,
    NotInducedCycle,
)
from sqchroma.generators import (
    gen_girth7,
    gen_lower_bound_H,
    gen_named,
    gen_random_biconvex,
    gen_random_convex,
)
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

from helpers import maximal_cliques, random_bipartite, rotation_verify_cycle_structure


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
    assert check_partite_count(NP, NP_LAYOUT, report)
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


def test_structure_no_labeling_raises():
    # with <_A reversed, the C5's A-path rises as (3, 2, 1), but then its
    # first vertex owns the <_B-later B-end, so no labeling passes P1.
    # A layout derives <_A from its graph, so the reversed ranks are set
    # on the instance, as a cached value
    reversed_a = recognize_convex(NP)
    rank = reversed_a.a_rank
    reversed_a.__dict__["a_rank"] = tuple(len(rank) - 1 - r for r in rank)
    with pytest.raises(AlgorithmInvariantViolation,
                       match="no labeling of cycle"):
        verify_cycle_structure(NP, reversed_a, (1, 2, 3, 7, 4))
    with pytest.raises(AlgorithmInvariantViolation,
                       match="no labeling of cycle"):
        rotation_verify_cycle_structure(NP, reversed_a, (1, 2, 3, 7, 4))


def _relabelled_b(g, perm):
    """``g`` with B-vertex b renamed perm[b]."""
    return build_bipartite(g.n_a, g.n_b,
                           [(a, perm[b]) for a, b in g.edges()])


def test_structure_checks_refuse_a_layout_of_another_graph():
    # g2 is g1 with B relabelled, still convex; g1's layout paired with g2
    # is the caller's mistake, not a failed theorem
    g1 = gen_random_convex(6, 6, 4, 0)
    g2 = _relabelled_b(g1, [4, 2, 1, 0, 5, 3])
    layout1, layout2 = recognize_convex(g1), recognize_convex(g2)
    cycle = (0, 4, 11, 8)
    report = verify_cycle_structure(g2, layout2, cycle)
    assert report.ok
    message = "^the layout is of another graph$"
    for check in (lambda: verify_cycle_structure(g2, layout1, cycle),
                  lambda: is_AB_path(g2, layout1, [0, 4], 6, 11),
                  lambda: check_partite_count(g2, layout1, report),
                  lambda: interior_emptiness(g2, layout1, report),
                  lambda: cycle_spectrum_check(g2, layout1),
                  lambda: cycle_meets_both_sides(g2, layout1, cycle)):
        with pytest.raises(LayoutMismatch, match=message):
            check()
    # a layout of an equal graph, built apart, is a layout of g2
    twin = _relabelled_b(g1, [4, 2, 1, 0, 5, 3])
    assert twin is not g2
    assert verify_cycle_structure(twin, layout2, cycle) == report


@pytest.mark.parametrize("q", [2, 4])
def test_structure_matches_rotation_search_on_lower_bound_family(q):
    g = gen_lower_bound_H(q)
    layout = recognize_convex(g)
    sq = square(g)
    for cyc in find_induced_cycles(sq, 4, sq.n):
        assert verify_cycle_structure(g, layout, cyc) == \
            rotation_verify_cycle_structure(g, layout, cyc), cyc


def _count_calls(monkeypatch, module, name):
    counts = [0]
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return counts


def test_structure_run_checks_each_cycle_once(tmp_path, monkeypatch, capsys):
    # one labeling per cycle: each of H(4)'s 1152 holes is checked for
    # inducedness once and goes through P1's ownership tests and P2/P3
    # once; the induced cycle already makes its A-path induced, so the
    # path's adjacency is not tested again through is_AB_path
    path = tmp_path / "h4.bip"
    path.write_text(write_bipartite_text(gen_lower_bound_H(4)))
    counts = {name: _count_calls(monkeypatch, structure, name)
              for name in ("_check_induced_cycle", "is_AB_path",
                           "_owns_ends", "_verify_p2_p3")}
    assert cli.run(["structure", str(path), "--summary"]) == 0
    assert capsys.readouterr().out == \
        "cycles=1152 passed=1152 spectrum_contiguous=True\n"
    assert {name: c[0] for name, c in counts.items()} == {
        "_check_induced_cycle": 1152, "is_AB_path": 0, "_owns_ends": 1152,
        "_verify_p2_p3": 1152}


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
        assert report == rotation_verify_cycle_structure(g, layout, cyc)
        assert check_partite_count(g, layout, report)
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
            report = verify_cycle_structure(g, layout, cyc)
            assert check_partite_count(g, layout, report)


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
