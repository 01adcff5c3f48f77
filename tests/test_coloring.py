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
    verify_square_coloring,
)
from sqchroma.convexity import ConvexLayout, recognize_convex
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

from helpers import quadratic_interval_coloring, random_bipartite


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


_interval = st.tuples(st.integers(0, 12), st.integers(0, 6)).map(
    lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.none() | _interval, max_size=25))
def test_greedy_heaps_match_quadratic_reference(intervals):
    c = greedy_interval_coloring(intervals)
    want = quadratic_interval_coloring(intervals)
    assert c.colors == want
    assert c.palette == max(want.values(), default=0)


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
        graph=_GADGET, layout=layout, palette=palette,
        colors=dict(colors), j=j,
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
    state = ExtensionState(graph=g, layout=layout, palette=6,
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
# the square read off the layout


@st.composite
def convex_graphs(draw):
    """Convex graphs with shuffled B labels; an A-vertex without an
    interval is isolated, and positions no interval covers are isolated
    B-vertices."""
    n_a, n_b = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    perm = draw(st.permutations(range(n_b)))
    edges = []
    for a in range(n_a):
        if n_b and draw(st.booleans()):
            left = draw(st.integers(0, n_b - 1))
            right = draw(st.integers(left, n_b - 1))
            edges += [(a, perm[p]) for p in range(left, right + 1)]
    return build_bipartite(n_a, n_b, edges)


def _assert_neighborhoods_match_square(g, layout):
    sq = square(g)
    state = ExtensionState(graph=g, layout=layout, palette=0, colors={}, j=0)
    for min_pos in range(g.n_b + 1):
        for v in range(sq.n):
            got = state._filtered_neighbors(v, min_pos)
            want = {w for w in sq.adj[v]
                    if w < g.n_a or layout.b_pos[w - g.n_a] >= min_pos}
            assert len(got) == len(want) and set(got) == want, (v, min_pos)


@settings(max_examples=300, deadline=None)
@given(convex_graphs())
def test_implicit_neighborhoods_match_square(g):
    _assert_neighborhoods_match_square(g, recognize_convex(g))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_implicit_neighborhoods_match_square_random_convex(seed):
    rng = SplitMix64(seed)
    g = gen_random_convex(rng.randint(1, 14), rng.randint(1, 14), 8, seed)
    _assert_neighborhoods_match_square(g, recognize_convex(g))


def test_implicit_neighborhoods_match_square_lower_bound_family():
    for q in (2, 4, 6):
        g = gen_lower_bound_H(q)
        _assert_neighborhoods_match_square(g, recognize_convex(g))
        _assert_neighborhoods_match_square(g, lower_bound_layout(g))


def _corpus():
    # the antihole figure is not convex
    graphs = [gen_named(name) for name in
              ("not_perfect", "biconvex", "convex_c4free")]
    graphs += [gen_named("complete", n) for n in range(1, 6)]
    graphs += [gen_lower_bound_H(q) for q in (2, 4, 6, 8)]
    graphs += [gen_random_convex(30, 30, 8, seed) for seed in range(20)]
    graphs += [build_bipartite(0, 0, []), build_bipartite(3, 4, [])]
    return graphs


def test_color_never_builds_the_square(monkeypatch):
    import sqchroma.core

    def refuse(g):
        raise AssertionError("square(g) built on the coloring pipeline")

    graphs = _corpus()
    with monkeypatch.context() as m:
        m.setattr(sqchroma.core, "square", refuse)
        m.setattr(coloring_module, "square", refuse)
        # the square cached on the graph is built by this function
        m.setattr(sqchroma.core.BipartiteGraph.__dict__["square"], "func",
                  refuse)
        colorings = [color_square_convex(g, recognize_convex(g))
                     for g in graphs]
    for g, c in zip(graphs, colorings):
        assert verify_coloring(square(g), c)


# ---------------------------------------------------------------------------
# the position arrays and the clique claims of Phase II


@settings(max_examples=300, deadline=None)
@given(convex_graphs())
def test_position_arrays_match_their_definition(g):
    layout = recognize_convex(g)
    state = ExtensionState(graph=g, layout=layout, palette=0, colors={}, j=0)
    for p, b in enumerate(layout.b_seq):
        through = [layout.intervals[a] for a in g.b_adj[b]]
        assert state._minleft[p] == min((l for l, _ in through), default=p)
        assert state._maxright[p] == max((r for _, r in through), default=p)


# On the gadget at j = 1: A_1 = {a0, a1, a2} and B_1 = positions 2..4, all
# under a0 = [0, 4]; omega(G^2) = 6 passes every claim.
def _claims_state(layout=None):
    layout = layout or recognize_convex(_GADGET)
    return ExtensionState(graph=_GADGET, layout=layout, palette=9,
                          colors={}, j=1)


def test_clique_claims_hold_on_the_gadget():
    for j in range(_GADGET.n_b):
        state = _claims_state()
        state.j = j
        coloring_module._assert_bj_cliques(state, 6)


def _violation(state, omega):
    with pytest.raises(AlgorithmInvariantViolation) as err:
        coloring_module._assert_bj_cliques(state, omega)
    return str(err.value)


def test_clique_claim_a_side_bound():
    assert _violation(_claims_state(), 3) == (
        "|A_j| = 3 exceeds omega-1 at position 1")


def test_clique_claim_b_side_bound():
    assert _violation(_claims_state(), 4) == (
        "|B_j| = 3 exceeds omega-2 at position 1")


def test_clique_claim_interval_misses_j():
    # a layout that puts a1 at [0, 0], although b_1 is its neighbor
    good = recognize_convex(_GADGET)
    ivs = list(good.intervals)
    ivs[1] = (0, 0)
    bad = ConvexLayout(good.b_pos, tuple(ivs), good.a_order)
    assert _violation(_claims_state(bad), 9) == (
        "N(b_j) side group not a clique at position 1")


def test_clique_claim_no_interval_covers_b_j():
    # drop a0, the only A-neighbor of b_1 reaching position 4
    state = _claims_state()
    state._a_at[1] = [1, 2]
    assert _violation(state, 9) == (
        "no A-neighbor covers B_j + b_j at position 1")


# ---------------------------------------------------------------------------
# verify_coloring and verify_square_coloring


def _square_greedy(g):
    sq = square(g)
    colors = {}
    for v in range(sq.n):
        used = {colors[w] for w in sq.adj[v] if w in colors}
        colors[v] = min(set(range(1, len(used) + 2)) - used)
    return Coloring(colors, max(colors.values(), default=0))


def _corruptions(g, c):
    """Proper ``c`` and copies with a recolored conflict, a missing vertex
    and a color above the palette."""
    yield c
    n = g.n_a + g.n_b
    for u, v in square(g).edges():
        yield Coloring({**c.colors, v: c.colors[u]}, c.palette)
        break
    for v in range(n):
        yield Coloring({w: col for w, col in c.colors.items() if w != v},
                       c.palette)
        yield Coloring({**c.colors, v: c.palette + 1}, c.palette)


@settings(max_examples=150, deadline=None)
@given(convex_graphs())
def test_closed_neighborhood_check_agrees_with_square(g):
    c = color_square_convex(g, recognize_convex(g))
    for cc in _corruptions(g, c):
        assert verify_square_coloring(g, cc) == verify_coloring(square(g), cc)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_closed_neighborhood_check_agrees_on_any_graph(seed):
    # the check needs no layout: non-convex graphs and random colorings too
    rng = SplitMix64(seed)
    g = random_bipartite(rng, rng.randint(0, 7), rng.randint(0, 7), 0.4)
    c = _square_greedy(g)
    for cc in _corruptions(g, c):
        assert verify_square_coloring(g, cc) == verify_coloring(square(g), cc)
    k = rng.randint(1, 6)
    n = g.n_a + g.n_b
    rc = Coloring({v: rng.randint(1, k) for v in range(n)}, k)
    assert verify_square_coloring(g, rc) == verify_coloring(square(g), rc)




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
