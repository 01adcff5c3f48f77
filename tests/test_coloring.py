import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqchroma import coloring as coloring_module
from sqchroma.coloring import (
    Coloring,
    ExtensionState,
    clique_number_square,
    color_square_convex,
    find_pivot,
    greedy_interval_coloring,
    kempe_swap,
    partner_color,
    verify_coloring,
)
from sqchroma.convexity import recognize_convex
from sqchroma.core import SimpleGraph, build_bipartite, half_square, max_degree, square
from sqchroma.errors import AlgorithmInvariantViolation
from sqchroma.generators import (
    gen_lower_bound_H,
    gen_named,
    gen_random_convex,
    lower_bound_layout,
)
from sqchroma.oracle import exact_clique, exact_stats
from sqchroma.rng import SplitMix64


# ---------------------------------------------------------------------------
# Phase I


def test_greedy_disjoint_intervals_one_color():
    c = greedy_interval_coloring([(0, 1), (2, 3), (4, 5)])
    assert c.palette == 1


def test_greedy_pairwise_overlapping_needs_k():
    c = greedy_interval_coloring([(0, 5), (1, 5), (2, 5), (3, 5)])
    assert c.palette == 4
    assert sorted(c.colors.values()) == [1, 2, 3, 4]


def test_greedy_figure_intervals_three_colors():
    g = gen_named("not_perfect")
    layout = recognize_convex(g)
    # omega(G^2[A]) = 3 by the exact clique oracle
    assert exact_clique(half_square(g, "A")) == 3
    c = greedy_interval_coloring(layout.intervals)
    assert c.palette == 3


def test_greedy_isolated_gets_color_one():
    c = greedy_interval_coloring([None, (0, 0), None])
    assert c.colors[0] == 1 and c.colors[2] == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_greedy_uses_exactly_interval_clique_number(seed):
    g = gen_random_convex(1 + seed % 10, 1 + (seed * 3) % 10, 10, seed)
    layout = recognize_convex(g)
    c = greedy_interval_coloring(layout.intervals)
    ha = half_square(g, "A")
    want = exact_clique(ha) if ha.n else 0
    assert c.palette == max(want, 1 if g.n_a else 0)


# ---------------------------------------------------------------------------
# clique_number_square


def test_clique_number_knn():
    for n in range(1, 6):
        g = gen_named("complete", n)
        assert clique_number_square(g, recognize_convex(g)) == 2 * n


def test_clique_number_lower_bound_family():
    for q in (2, 4, 6, 8):
        g = gen_lower_bound_H(q)
        assert clique_number_square(g, lower_bound_layout(g)) == 2 * q + 3
        assert clique_number_square(g, recognize_convex(g)) == 2 * q + 3


def test_clique_number_single_edge():
    g = build_bipartite(1, 1, [(0, 0)])
    assert clique_number_square(g, recognize_convex(g)) == 2


@pytest.mark.parametrize("n_a,n_b,want", [(0, 0, 0), (3, 0, 1), (0, 3, 1),
                                          (2, 3, 1)])
def test_clique_number_empty_and_edgeless(n_a, n_b, want):
    g = build_bipartite(n_a, n_b, [])
    assert clique_number_square(g, recognize_convex(g)) == want


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_clique_number_matches_exact_oracle(seed):
    # sizes from 0 cover the empty graph, n_b = 0 and (with n_a = 0 or
    # every row dropped) edgeless graphs; dropped rows leave isolated A
    rng = SplitMix64(seed)
    n_a, n_b = rng.randint(0, 10), rng.randint(0, 10)
    if n_b == 0:
        g = build_bipartite(n_a, 0, [])
    else:
        full = gen_random_convex(n_a, n_b, rng.randint(1, n_b), seed)
        keep = {a for a in range(n_a) if rng.random() >= 0.2}
        g = build_bipartite(n_a, n_b, [e for e in full.edges() if e[0] in keep])
    assert clique_number_square(g, recognize_convex(g)) == exact_clique(square(g))


def test_coloring_module_does_not_import_the_oracles():
    # the exact oracles are the checks on the pipeline, so they stay off it
    tree = ast.parse(Path(coloring_module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any(n == "oracle" or n.endswith(".oracle") for n in names)


# ---------------------------------------------------------------------------
# color_square_convex, default rule


def _color(g, rule="lowest", trace=None):
    layout = recognize_convex(g)
    omega = clique_number_square(g, layout)
    coloring = color_square_convex(
        g, layout, trace=trace, free_color_rule=rule,
    )
    return layout, omega, coloring


def test_color_k44_uses_exactly_eight():
    g = gen_named("complete", 4)
    _, omega, coloring = _color(g)
    assert omega == 8 and coloring.palette == 8
    assert verify_coloring(square(g), coloring)


def test_color_lower_bound_q2_within_bound():
    g = gen_lower_bound_H(2)
    _, omega, coloring = _color(g)
    assert verify_coloring(square(g), coloring)
    assert coloring.palette <= (3 * omega) // 2 == 10


def test_color_figure_not_perfect_ratio():
    g = gen_named("not_perfect")
    _, omega, coloring = _color(g)
    assert verify_coloring(square(g), coloring)
    assert coloring.palette <= (3 * omega) // 2
    chi = exact_stats(square(g)).chi
    assert coloring.palette / chi <= 1.5


def test_color_empty_and_edgeless():
    g = build_bipartite(0, 0, [])
    _, _, coloring = _color(g)
    assert coloring.colors == {}
    g = build_bipartite(2, 3, [])
    layout = recognize_convex(g)
    coloring = color_square_convex(g, layout)
    assert set(coloring.colors.values()) == {1}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_color_random_corpus_bound_and_proper(seed):
    rng = SplitMix64(seed)
    g = gen_random_convex(rng.randint(1, 10), rng.randint(1, 10), 10, seed)
    _, omega, coloring = _color(g)
    assert verify_coloring(square(g), coloring)
    assert coloring.palette <= (3 * omega) // 2
    assert coloring.palette <= 2 * max_degree(g) or g.m == 0


def test_color_deterministic():
    g = gen_random_convex(9, 9, 9, seed=5)
    layout = recognize_convex(g)
    c1 = color_square_convex(g, layout)
    c2 = color_square_convex(g, layout)
    assert c1 == c2


# ---------------------------------------------------------------------------
# the extension machinery under the highest-free rule (the bound is
# choice-independent, and this rule actually reaches the pivot path on
# the corpus)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_color_highest_rule_still_within_bound(seed):
    rng = SplitMix64(seed)
    g = gen_random_convex(rng.randint(4, 24), rng.randint(3, 12), 10, seed)
    layout = recognize_convex(g)
    omega = clique_number_square(g, layout)
    trace = []
    coloring = color_square_convex(
        g, layout, trace=trace, free_color_rule="highest",
    )
    assert verify_coloring(square(g), coloring)
    assert coloring.palette <= (3 * omega) // 2


def test_pivot_path_reached_under_default_rule():
    # regression: this seeded instance drives the default lowest-free run
    # into the pivot + recolor step (step 2 fails, step 3.1 succeeds)
    g = gen_random_convex(10, 10, 4, seed=1282)
    layout = recognize_convex(g)
    trace = []
    coloring = color_square_convex(g, layout, trace=trace)
    assert verify_coloring(square(g), coloring)
    kinds = [e[0] for e in trace]
    assert "pivot" in kinds and "pivot_recolor" in kinds


def test_pivot_events_on_instrumented_corpus():
    # dense mixtures push the highest-free run into step 3; every
    # occurrence is covered by the runtime claims (pivot exists, partner
    # absent from the pivot's shield, strict descent), which raise
    # AlgorithmInvariantViolation on any failure
    events = {"pivot": 0, "pivot_recolor": 0, "swap": 0}
    for seed in range(200):
        rng = SplitMix64(seed * 131 + 5)
        nb = rng.randint(4, 10)
        na = rng.randint(2 * nb, 4 * nb)
        g = gen_random_convex(na, nb, nb, seed)
        layout = recognize_convex(g)
        omega = clique_number_square(g, layout)
        trace = []
        coloring = color_square_convex(
            g, layout, trace=trace, free_color_rule="highest",
        )
        assert verify_coloring(square(g), coloring)
        assert coloring.palette <= (3 * omega) // 2
        for e in trace:
            if e[0] in events:
                events[e[0]] += 1
        for e in trace:
            if e[0] == "partner":
                _, _, y, _a_prime, shielded = e
                assert y not in shielded
    assert events["pivot"] > 0, "corpus never reached the pivot step"


# ---------------------------------------------------------------------------
# find_pivot / partner_color / kempe_swap on constructed states

# Shared gadget: A-vertices with intervals over five B-positions.
#   a0=[0,4] a1=[0,1] a2=[1,2] a3=[2,3] a4=[3,4]
_GADGET = build_bipartite(5, 5, [
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 0), (1, 1),
    (2, 1), (2, 2),
    (3, 2), (3, 3),
    (4, 3), (4, 4),
])


def _gadget_state(colors, j, palette):
    layout = recognize_convex(_GADGET)
    return ExtensionState(
        graph=_GADGET, layout=layout, sq=square(_GADGET),
        palette=palette, colors=dict(colors), j=j,
    )


def test_find_pivot_unique_color_forced():
    # position j=0; N(b_0) = {a0, a1} + B-neighbors b1..b4 (all share a0).
    # give a1 the only unique color among A-neighbors
    state = _gadget_state(
        {0: 2, 1: 1, 2: 3, 3: 4, 4: 2, 5 + 1: 2, 5 + 2: 3, 5 + 3: 4, 5 + 4: 5},
        j=0, palette=5,
    )
    # colors in N(b_0): a0=2, a1=1, b1=2, b2=3, b3=4, b4=5 -> unique A colors: 1
    assert find_pivot(state) == 1


def test_find_pivot_minimality_between_two_uniques():
    # both a1 (color 1) and a0 (color 6) unique: a1 is <_A-smaller
    state = _gadget_state(
        {0: 6, 1: 1, 2: 3, 3: 4, 4: 2, 6: 2, 7: 3, 8: 4, 9: 5},
        j=0, palette=6,
    )
    assert find_pivot(state) == 1


def test_find_pivot_absent_raises():
    # duplicate every A-color among the B-neighbors
    state = _gadget_state(
        {0: 2, 1: 3, 2: 1, 3: 4, 4: 5, 6: 2, 7: 3, 8: 4, 9: 5},
        j=0, palette=5,
    )
    with pytest.raises(AlgorithmInvariantViolation):
        find_pivot(state)


def test_partner_color_lowest_qualifying():
    # pivot a2 (middle interval); earlier neighbor a1 carries color 1,
    # which is absent from a2's B-neighbors and later A-neighbors
    state = _gadget_state(
        {0: 5, 1: 1, 2: 2, 3: 3, 4: 4, 7: 6, 8: 7},
        j=1, palette=9,
    )
    state.pivot, state.pivot_color = 2, 2
    assert partner_color(state) == 1


def test_partner_color_shield_excludes():
    # color 1 now sits on a later A-neighbor (a3) as well, so the lowest
    # qualifying backward color is a1's 3
    state = _gadget_state(
        {0: 5, 1: 3, 2: 2, 3: 1, 4: 4, 7: 6, 8: 7},
        j=1, palette=9,
    )
    state.pivot, state.pivot_color = 2, 2
    assert partner_color(state) == 3


def test_partner_color_pivot_without_b_neighbors():
    # at j=4 the pivot a2=[1,2] has no B-neighbors left in H_5, so the
    # shield is just its later A-neighbors; backward colors qualify
    state = _gadget_state(
        {0: 6, 1: 1, 2: 2, 3: 3, 4: 4},
        j=4, palette=9,
    )
    state.pivot, state.pivot_color = 2, 2
    # shield: a0 (rank above a2, color 6) and a3 (color 3); backward: a1
    assert partner_color(state) == 1


def test_partner_color_empty_shield_gives_lowest():
    # pivot a4 at j=4 is <_A-maximal with no B-reach left, so the shield
    # is empty and the lowest non-pivot color on a backward neighbor wins
    state = _gadget_state(
        {0: 2, 1: 4, 2: 5, 3: 3, 4: 1},
        j=4, palette=6,
    )
    state.pivot, state.pivot_color = 4, 1
    assert partner_color(state) == 2


def test_partner_color_no_backward_holder_raises():
    # a <_A-minimal pivot has no earlier neighbors at all, so no color
    # can qualify
    state = _gadget_state(
        {0: 4, 1: 3, 2: 1, 3: 2, 4: 5},
        j=4, palette=6,
    )
    state.pivot, state.pivot_color = 1, 3
    with pytest.raises(AlgorithmInvariantViolation):
        partner_color(state)


def test_kempe_swap_singleton_component():
    # pivot a4 colored 1; partner color 6 appears nowhere adjacent
    state = _gadget_state(
        {0: 5, 1: 2, 2: 3, 3: 4, 4: 1, 9: 2},
        j=3, palette=6,
    )
    state.pivot, state.pivot_color, state.partner = 4, 1, 6
    swapped = kempe_swap(state)
    assert state.kempe_component == frozenset({4})
    assert swapped.colors[4] == 6
    assert all(swapped.colors[v] == state.colors[v]
               for v in state.colors if v != 4)


def test_kempe_swap_distant_component_untouched():
    # a1 and a4 both colored 1, but they are square-independent: a 1-2
    # swap through pivot a1 must leave a4 alone
    state = _gadget_state(
        {0: 5, 1: 1, 2: 2, 3: 3, 4: 1, 9: 4},
        j=4, palette=6,
    )
    state.pivot, state.pivot_color, state.partner = 1, 1, 2
    swapped = kempe_swap(state)
    assert 4 not in state.kempe_component
    assert swapped.colors[4] == 1
    assert swapped.colors[1] == 2 and swapped.colors[2] == 1


def test_full_step32_sequence_on_constructed_state():
    # drive pivot -> partner -> swap by hand on a legal mid-run state and
    # check the claims: component inside A, swap keeps properness, and
    # the new pivot (the old partner holder) is strictly <_A-smaller
    g = _GADGET
    layout = recognize_convex(g)
    sq = square(g)
    # proper on H_{j+1} for j=0 (all of A plus b1..b4)
    colors = {0: 5, 1: 1, 2: 2, 3: 3, 4: 4, 6: 3, 7: 4, 8: 6, 9: 2}
    for u in range(sq.n):
        for v in sq.adj[u]:
            if u in colors and v in colors:
                assert colors[u] != colors[v]
    state = ExtensionState(graph=g, layout=layout, sq=sq, palette=6,
                           colors=dict(colors), j=0)
    a_c = 2  # pretend pivot mid-loop (color 2 unique in its round)
    state.pivot, state.pivot_color = a_c, colors[a_c]
    y = partner_color(state)
    assert y == 1  # a1's color: absent from a2's shield
    state.partner = y
    rank = layout.a_rank
    holders = [w for w in state.neighbors_next(a_c)
               if w < g.n_a and rank[w] < rank[a_c]
               and state.colors[w] == y]
    a_prime = min(holders, key=lambda w: rank[w])
    assert rank[a_prime] < rank[a_c]
    swapped = kempe_swap(state)
    assert all(v < g.n_a for v in state.kempe_component)
    assert swapped.colors[a_c] == y and swapped.colors[a_prime] == state.pivot_color
    for u in range(sq.n):
        for v in sq.adj[u]:
            if u in swapped.colors and v in swapped.colors:
                assert swapped.colors[u] != swapped.colors[v]


# ---------------------------------------------------------------------------
# verify_coloring


def test_verify_proper_c4():
    c4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert verify_coloring(c4, Coloring({0: 1, 1: 2, 2: 1, 3: 2}, 2))


def test_verify_rejects_monochromatic_edge():
    g = SimpleGraph.from_edges(2, [(0, 1)])
    assert not verify_coloring(g, Coloring({0: 1, 1: 1}, 2))


def test_verify_rejects_partial_or_overflow():
    g = SimpleGraph.from_edges(2, [(0, 1)])
    assert not verify_coloring(g, Coloring({0: 1}, 2))
    assert not verify_coloring(g, Coloring({0: 1, 1: 3}, 2))
