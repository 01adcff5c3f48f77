import ast
import contextlib
from collections import Counter, defaultdict
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
from sqchroma.convexity import ConvexLayout, layout_from_order, recognize_convex
from sqchroma.core import (
    SimpleGraph,
    build_bipartite,
    half_square,
    inverse,
    max_degree,
    square,
    write_bipartite_text,
)
from sqchroma.errors import AlgorithmInvariantViolation, LayoutMismatch
from sqchroma.generators import (
    gen_lower_bound_H,
    gen_named,
    gen_random_convex,
)
from sqchroma.oracle import exact_clique, exact_stats
from sqchroma.rng import SplitMix64

from helpers import (
    heap_interval_coloring,
    highest_free_color,
    outer_first_nesting,
    per_position_bj_cliques,
    pick_highest_free,
    quadratic_interval_coloring,
    random_bipartite,
    set_color_square_convex,
    sweep_omega,
    unpruned_omega,
)


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


# few positions, so that left ends, right ends and whole intervals tie;
# some lie below 0, which the bucket version shifts away first
_tied_interval = st.tuples(st.integers(-3, 6), st.integers(0, 3)).map(
    lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.none() | _tied_interval, max_size=30))
def test_greedy_buckets_match_the_heap_reference(intervals):
    got = greedy_interval_coloring(intervals)
    want = heap_interval_coloring(intervals)
    assert list(got.colors.items()) == list(want.colors.items())
    assert got.palette == want.palette


@settings(max_examples=500, deadline=None)
@given(st.lists(st.none() | _tied_interval, max_size=30))
def test_omega_skip_matches_the_unpruned_sweep(intervals):
    # the intervals, shifted up by 3, are positions 0 .. 12 of the layout
    intervals = [iv and (iv[0] + 3, iv[1] + 3) for iv in intervals]
    g = build_bipartite(len(intervals), 13, [
        (a, b) for a, iv in enumerate(intervals) if iv
        for b in range(iv[0], iv[1] + 1)])
    layout = ConvexLayout(g, tuple(range(13)))
    assert layout.intervals == tuple(intervals)
    assert layout.omega == unpruned_omega(layout) == sweep_omega(layout)


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
        construction = layout_from_order(g, range(g.n_b))
        assert clique_number_square(g, construction) == 2 * q + 3
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
# color_square_convex


def _color(g, trace=None):
    layout = recognize_convex(g)
    omega = clique_number_square(g, layout)
    coloring = color_square_convex(g, layout, trace=trace)
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
# the extension machinery under the highest free color (the bound is
# choice-independent, and this order reaches the pivot path more often)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_color_highest_rule_still_within_bound(seed):
    rng = SplitMix64(seed)
    g = gen_random_convex(rng.randint(4, 24), rng.randint(3, 12), 10, seed)
    layout = recognize_convex(g)
    omega = clique_number_square(g, layout)
    with highest_free_color():
        coloring = color_square_convex(g, layout)
    assert verify_coloring(square(g), coloring)
    assert coloring.palette <= (3 * omega) // 2


# the arrays that only the pivot steps read, built on first use
_PIVOT_ARRAYS = ("_a_at", "_minleft", "_starts")


def _count_builds(monkeypatch):
    """Count how often each pivot array is built while the context of
    ``monkeypatch`` is open."""
    built = dict.fromkeys(_PIVOT_ARRAYS, 0)

    def counting(name, real):
        def build(state):
            built[name] += 1
            return real(state)
        return build

    for name in _PIVOT_ARRAYS:
        prop = ExtensionState.__dict__[name]
        monkeypatch.setattr(prop, "func", counting(name, prop.func))
    return built


def test_pivot_path_reached_under_default_rule(monkeypatch):
    # regression: this seeded instance drives the default lowest-free run
    # into the pivot + recolor step (step 1 fails, step 2 succeeds).  The
    # pivot reads A_j off the transpose and its recolor reads an
    # A-vertex's neighbors, so minleft, which only B-neighborhoods need,
    # is never built
    g = gen_random_convex(10, 10, 4, seed=1282)
    layout = recognize_convex(g)
    trace = []
    with monkeypatch.context() as m:
        built = _count_builds(m)
        coloring = color_square_convex(g, layout, trace=trace)
    assert verify_coloring(square(g), coloring)
    kinds = [e[0] for e in trace]
    assert "pivot" in kinds and "pivot_recolor" in kinds
    assert built == {"_a_at": 1, "_minleft": 0, "_starts": 1}


def test_pivot_events_on_instrumented_corpus():
    # dense mixtures under the highest free color: one position pivots
    # and its pivot recolor settles it, with no partner or swap step.
    # Every step is covered by the runtime claims (pivot exists, strict
    # descent), which raise AlgorithmInvariantViolation on any failure
    events = dict.fromkeys(
        ("assign", "pivot", "pivot_recolor", "partner", "swap"), 0)
    for seed in range(200):
        rng = SplitMix64(seed * 131 + 5)
        nb = rng.randint(4, 10)
        na = rng.randint(2 * nb, 4 * nb)
        g = gen_random_convex(na, nb, nb, seed)
        layout = recognize_convex(g)
        omega = clique_number_square(g, layout)
        trace = []
        with highest_free_color():
            coloring = color_square_convex(g, layout, trace=trace)
        assert verify_coloring(square(g), coloring)
        assert coloring.palette <= (3 * omega) // 2
        for e in trace:
            if e[0] in events:
                events[e[0]] += 1
    assert events == {"assign": 1407, "pivot": 1, "pivot_recolor": 1,
                      "partner": 0, "swap": 0}


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
    # shield: a0 (5), a3 (3) and b2 (6)
    assert partner_color(state, 2) == (1, 1, frozenset({3, 5, 6}))


def test_partner_color_shield_excludes():
    # color 1 now sits on a later A-neighbor (a3) as well, so the lowest
    # qualifying backward color is a1's 3
    state = _gadget_state(
        {0: 5, 1: 3, 2: 2, 3: 1, 4: 4, 7: 6, 8: 7},
        j=1, palette=9,
    )
    assert partner_color(state, 2) == (3, 1, frozenset({1, 5, 6}))


def test_partner_color_pivot_without_b_neighbors():
    # at j=4 the pivot a2=[1,2] has no B-neighbors left in H_5, so the
    # shield is just its later A-neighbors; backward colors qualify
    state = _gadget_state(
        {0: 6, 1: 1, 2: 2, 3: 3, 4: 4},
        j=4, palette=9,
    )
    # shield: a0 (rank above a2, color 6) and a3 (color 3); backward: a1
    assert partner_color(state, 2) == (1, 1, frozenset({3, 6}))


def test_partner_color_empty_shield_gives_lowest():
    # pivot a4 at j=4 is <_A-maximal with no B-reach left, so the shield
    # is empty and the lowest non-pivot color on a backward neighbor wins
    state = _gadget_state(
        {0: 2, 1: 4, 2: 5, 3: 3, 4: 1},
        j=4, palette=6,
    )
    assert partner_color(state, 4) == (2, 0, frozenset())


def test_partner_color_least_earlier_holder():
    # a1 and a3 both hold color 1 and both come before the pivot a0
    # (<_A is a1, a2, a3, a0, a4); a1 is the <_A-least of them
    state = _gadget_state(
        {0: 2, 1: 1, 2: 3, 3: 1, 4: 4},
        j=4, palette=6,
    )
    assert partner_color(state, 0) == (1, 1, frozenset({4}))


def test_partner_color_no_backward_holder_raises():
    # a <_A-minimal pivot has no earlier neighbors at all, so no color
    # can qualify
    state = _gadget_state(
        {0: 4, 1: 3, 2: 1, 3: 2, 4: 5},
        j=4, palette=6,
    )
    with pytest.raises(AlgorithmInvariantViolation):
        partner_color(state, 1)


def test_kempe_swap_singleton_component():
    # pivot a4 colored 1; partner color 6 appears nowhere adjacent
    before = {0: 5, 1: 2, 2: 3, 3: 4, 4: 1, 9: 2}
    state = _gadget_state(before, j=3, palette=6)
    assert kempe_swap(state, 4, 6) == frozenset({4})
    assert state.colors == {**before, 4: 6}


def test_kempe_swap_distant_component_untouched():
    # a1 and a4 both colored 1, but they are square-independent: a 1-2
    # swap through pivot a1 must leave a4 alone
    state = _gadget_state(
        {0: 5, 1: 1, 2: 2, 3: 3, 4: 1, 9: 4},
        j=4, palette=6,
    )
    comp = kempe_swap(state, 1, 2)
    assert 4 not in comp
    assert state.colors[4] == 1
    assert state.colors[1] == 2 and state.colors[2] == 1


def _proper_where_colored(sq, colors):
    return all(colors[u] != colors[v] for u, v in sq.edges()
               if u in colors and v in colors)


def test_full_step32_sequence_on_constructed_state():
    # drive pivot -> partner -> swap by hand on a legal mid-run state and
    # check the claims: component inside A, swap keeps properness, and
    # the new pivot (the old partner holder) is strictly <_A-smaller
    g = _GADGET
    layout = recognize_convex(g)
    sq = square(g)
    # proper on H_{j+1} for j=0 (all of A plus b1..b4)
    colors = {0: 5, 1: 1, 2: 2, 3: 3, 4: 4, 6: 3, 7: 4, 8: 6, 9: 2}
    assert _proper_where_colored(sq, colors)
    state = ExtensionState(graph=g, layout=layout, palette=6,
                           colors=dict(colors), j=0)
    a_c = 2  # pretend pivot mid-loop (color 2 unique in its round)
    y, a_prime, _shielded = partner_color(state, a_c)
    assert y == 1  # a1's color: absent from a2's shield
    assert a_prime == 1 and layout.a_rank[a_prime] < layout.a_rank[a_c]
    comp = kempe_swap(state, a_c, y)
    assert all(v < g.n_a for v in comp)
    coloring_module._assert_kempe_shape(state, a_c, comp)
    assert state.colors[a_c] == y and state.colors[a_prime] == colors[a_c]
    assert _proper_where_colored(sq, state.colors)


def _kempe_violation(j, pivot, comp):
    state = _gadget_state({}, j=j, palette=6)
    with pytest.raises(AlgorithmInvariantViolation) as err:
        coloring_module._assert_kempe_shape(state, pivot, frozenset(comp))
    return str(err.value)


def test_kempe_shape_component_leaves_a():
    # b2 (global 7) in the component of pivot a2
    assert _kempe_violation(1, 2, {2, 7}) == (
        "Kempe component leaves A at position 1: [7]")


def test_kempe_shape_layer_order():
    # a2 is a neighbor of the pivot a1, so one layer farther out, but it
    # comes after a1 in <_A
    assert _kempe_violation(1, 1, {1, 2}) == (
        "Kempe layer order violated: farther vertex not <_A-smaller "
        "at position 1")


def test_kempe_shape_far_vertex_with_b_neighbor():
    # a1 is at distance 2 from the pivot a4 (through a0) and keeps b0 and
    # b1 in H_0
    assert _kempe_violation(0, 4, {4, 1}) == (
        "Kempe vertex at distance >= 2 keeps a B-neighbor in H_j "
        "at position 0")


def _drive_step3(monkeypatch, pivots):
    """Make every free-color lookup fail and step 3 succeed trivially, so
    the pivot loop runs on the pivots given, one per round."""
    monkeypatch.setattr(coloring_module, "_free_color", lambda *args: None)
    monkeypatch.setattr(coloring_module, "find_pivot",
                        lambda state, it=iter(pivots): next(it))
    monkeypatch.setattr(coloring_module, "partner_color",
                        lambda state, pivot: (1, pivot, frozenset()))
    monkeypatch.setattr(coloring_module, "kempe_swap",
                        lambda state, pivot, y: frozenset({pivot}))
    monkeypatch.setattr(coloring_module, "_assert_kempe_shape",
                        lambda state, pivot, comp: None)
    with pytest.raises(AlgorithmInvariantViolation) as err:
        color_square_convex(_GADGET, recognize_convex(_GADGET))
    return str(err.value)


def test_pivot_rank_must_decrease(monkeypatch):
    # the first position is 4; a0 twice in a row does not descend
    assert _drive_step3(monkeypatch, [0, 0]) == (
        "pivot rank failed to decrease at position 4")


def test_step1_rereads_the_colors_after_a_swap(monkeypatch):
    # Phase I gives a0..a4 the colors 2, 1, 3, 1, 3.  Failing the first
    # two free-color lookups at position 4 sends the pivot a0 through a
    # real partner step and Kempe swap, which recolors a0 to 1 and a1, a3
    # to 2.  N(b_4) = {a0, a4} then holds 1 and 3, so b_4 must take 2; the
    # colors read before the swap would give it a0's new color 1.
    # Only the Kempe check reads B-neighborhoods other than N(b_j), so
    # the one swap builds minleft once.
    real = coloring_module._free_color
    calls = iter(range(2))
    monkeypatch.setattr(
        coloring_module, "_free_color",
        lambda *args: None if next(calls, None) is not None else real(*args))
    built = _count_builds(monkeypatch)
    trace = []
    c = color_square_convex(_GADGET, recognize_convex(_GADGET), trace=trace)
    assert [e[0] for e in trace[:5]] == [
        "phase1", "pivot", "partner", "swap", "assign"]
    assert trace[3] == ("swap", 4, 2, 1, 3)
    assert trace[4] == ("assign", 4, 4, 2)
    assert built["_minleft"] == 1
    assert verify_coloring(square(_GADGET), c)


def test_pivot_loop_bounded(monkeypatch):
    # N(b_4) in H_4 is {a0, a4}, so the loop allows 2 + 2 rounds; four
    # descending pivots (<_A is a1, a2, a3, a0, a4) use them all up
    assert _drive_step3(monkeypatch, [4, 0, 3, 2, 1]) == (
        "pivot loop failed to terminate at position 4")


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
        _assert_neighborhoods_match_square(
            g, layout_from_order(g, range(g.n_b)))


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


def test_color_and_verify_never_build_the_transpose(monkeypatch, tmp_path):
    # step 1, the clique claims and the final check read G through its
    # A-rows, so without a pivot round g.b_adj is never built, in process
    # or through the CLI's color and verify
    import sqchroma.core
    from sqchroma.cli import run

    b_adj = sqchroma.core.BipartiteGraph.__dict__["b_adj"]
    built = Counter()

    def refuse(g):
        raise AssertionError("g.b_adj built without a pivot round")

    def counting(g, real=b_adj.func):
        built[g] += 1
        return real(g)

    graphs = _corpus()
    graph_file, coloring_file = tmp_path / "g.bip", tmp_path / "c.txt"
    graph_file.write_text(write_bipartite_text(gen_lower_bound_H(4)))
    with monkeypatch.context() as m:
        m.setattr(b_adj, "func", refuse)
        colorings = [color_square_convex(g, recognize_convex(g))
                     for g in graphs]
        assert run(["color", str(graph_file), "-o", str(coloring_file)]) == 0
        assert run(["verify", str(graph_file), str(coloring_file)]) == 0
    for g, c in zip(graphs, colorings):
        assert verify_coloring(square(g), c)
    # the staircase still reaches the partner and swap steps, which build
    # the transpose once
    g = _staircase(12, 4)
    trace = []
    with monkeypatch.context() as m:
        m.setattr(b_adj, "func", counting)
        c = color_square_convex(g, recognize_convex(g), trace=trace)
    kinds = Counter(e[0] for e in trace)
    assert kinds["partner"] == kinds["swap"] >= 1
    assert built == {g: 1}
    assert verify_coloring(square(g), c)


def test_color_never_builds_the_pivot_arrays(monkeypatch):
    # with the default rule the corpus never pivots, so the arrays that
    # only steps 2 and 3 read are never built, nor the ranks of <_A
    def refuse(state):
        raise AssertionError("pivot array built without a pivot")

    graphs = _corpus()
    with monkeypatch.context() as m:
        for name in _PIVOT_ARRAYS:
            m.setattr(ExtensionState.__dict__[name], "func", refuse)
        m.setattr(ConvexLayout.__dict__["a_rank"], "func", refuse)
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
        assert state._a_at[p] == g.b_adj[b]
    lefts = [iv[0] for iv in layout.intervals if iv is not None]
    assert state._starts == [sum(l < p for l in lefts)
                             for p in range(g.n_b + 1)]
    for p in range(g.n_b + 1):
        assert all(layout.intervals[a][0] < p
                   for a in layout.by_left[:state._starts[p]])


@settings(max_examples=300, deadline=None)
@given(convex_graphs())
def test_by_left_matches_its_definition(g):
    # the A-vertices with an interval, by left end, index on ties
    layout = recognize_convex(g)
    assert layout.by_left == tuple(a for _, a in sorted(
        (iv[0], a) for a, iv in enumerate(layout.intervals) if iv is not None))


@settings(max_examples=300, deadline=None)
@given(convex_graphs())
def test_a_order_matches_its_definition(g):
    # isolated A-vertices first, then by right end, left end and index
    layout = recognize_convex(g)
    ivs = layout.intervals
    assert layout.a_order == tuple(
        [a for a, iv in enumerate(ivs) if iv is None]
        + [a for _, _, a in sorted((iv[1], iv[0], a)
                                   for a, iv in enumerate(ivs) if iv is not None)])


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


def _mismatch(state):
    with pytest.raises(LayoutMismatch) as err:
        coloring_module._assert_bj_cliques(state, 9)
    return str(err.value)


_OTHER_GRAPH = "the layout is of another graph"


def _gadget_toggled(*edges):
    # the gadget with each of ``edges`` removed if present, added if not
    return build_bipartite(5, 5, sorted(set(_GADGET.edges()) ^ set(edges)))


def test_clique_claim_interval_misses_j():
    # the B-order b_1, b_2, b_0, b_3, b_4 puts b_2, no neighbor of a1,
    # between a1's neighbors b_1 and b_0: the layout is refused when it is
    # made, naming a1 (a0 sees all of B)
    with pytest.raises(LayoutMismatch) as err:
        ConvexLayout(_GADGET, tuple(inverse((1, 2, 0, 3, 4))))
    assert str(err.value) == (
        "neighborhood of A1 is not consecutive under the order")


def test_clique_claim_no_interval_misses_j():
    # a layout of the graph in which a1 lost its neighbors: a1 has no
    # interval there, and the layout is of another graph
    assert _mismatch(_claims_state(recognize_convex(
        _gadget_toggled((1, 0), (1, 1))))) == _OTHER_GRAPH
    g = build_bipartite(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
    dropped = build_bipartite(3, 3, [(0, 0), (0, 1), (2, 2)])
    assert _color_mismatch(g, recognize_convex(dropped)) == _OTHER_GRAPH


def test_clique_claim_no_interval_covers_b_j():
    # b_1 loses a0, the only A-neighbor of b_1 reaching position 4: the
    # gadget's layout no longer describes the graph
    state = _claims_state()
    state.graph = _gadget_toggled((0, 1))
    assert _mismatch(state) == _OTHER_GRAPH


def test_clique_claim_cover_short_by_one():
    # b_2 loses a0, the only A-neighbor of b_2 reaching position 4
    state = _claims_state()
    state.j = 2
    state.graph = _gadget_toggled((0, 2))
    assert _mismatch(state) == _OTHER_GRAPH


def _claims_outcome(claims, state, omega):
    try:
        return claims(state, omega)
    except AlgorithmInvariantViolation as exc:
        return str(exc)


@st.composite
def corrupted_claim_states(draw):
    """States whose graph may not be their layout's: a layout of a convex
    graph under any B-order that keeps its rows consecutive, edges
    toggled in the state's graph, any first position, and an omega up to
    the layout's plus one or one above every side."""
    g = draw(convex_graphs().filter(lambda g: g.n_b > 0))
    try:
        layout = layout_from_order(g, draw(st.permutations(range(g.n_b))))
    except LayoutMismatch:
        layout = recognize_convex(g)
    pairs = [(a, b) for a in range(g.n_a) for b in range(g.n_b)]
    flips = set(draw(st.lists(st.sampled_from(pairs), max_size=3))
                if pairs else [])
    graph = build_bipartite(g.n_a, g.n_b, sorted(set(g.edges()) ^ flips))
    state = ExtensionState(graph=graph, layout=layout, palette=0, colors={},
                           j=draw(st.integers(0, g.n_b - 1)))
    # an omega no side outgrows half the time, so the later claims run
    return state, draw(st.integers(1, layout.omega + 1)
                       | st.just(g.n_a + g.n_b + 2))


@settings(max_examples=1000, deadline=None)
@given(corrupted_claim_states())
def test_clique_claims_match_the_per_position_reference(case):
    # a layout of another graph raises LayoutMismatch; on its own graph,
    # counting |A_p| off the intervals names the same first failing bound
    # and position as reading A_j off the transpose at every position, and
    # when every claim holds it counts |A_p| as the transpose does
    state, omega = case
    if state.graph != state.layout.graph:
        assert _mismatch(state) == _OTHER_GRAPH
        return
    assert (_claims_outcome(coloring_module._assert_bj_cliques, state, omega)
            == _claims_outcome(per_position_bj_cliques, state, omega))


def _color_violation(layout):
    with pytest.raises(AlgorithmInvariantViolation) as err:
        color_square_convex(_GADGET, layout)
    return str(err.value)


def _color_mismatch(g, layout):
    # the layout is refused before any color is assigned
    trace = []
    with pytest.raises(LayoutMismatch) as err:
        color_square_convex(g, layout, trace=trace)
    assert trace == []
    return str(err.value)


def _cached_omega_layout(omega):
    # a gadget layout whose cached omega is smaller than omega(G^2) = 6
    layout = recognize_convex(_GADGET)
    layout.__dict__["omega"] = omega
    return layout


# a0, a1 and a2 see one position each, and a3 sees 3..7, so omega(G^2) is 6
_SPOKES = build_bipartite(4, 8, [(0, 0), (1, 1), (2, 2)]
                          + [(3, b) for b in range(3, 8)])


def test_clique_claims_fail_closed_on_a_corrupted_layout():
    # the two bounds, raised through color_square_convex; a layout of the
    # gadget without a1's edge to b_1, or of the spokes with a0 widened to
    # b_0 .. b_2, is the caller's layout of another graph
    assert _color_violation(_cached_omega_layout(3)) == (
        "|A_j| = 3 exceeds omega-1 at position 3")
    assert _color_violation(_cached_omega_layout(4)) == (
        "|B_j| = 3 exceeds omega-2 at position 1")
    assert _color_mismatch(_GADGET, recognize_convex(
        _gadget_toggled((1, 1)))) == _OTHER_GRAPH
    widened = build_bipartite(4, 8, _SPOKES.edges() + [(0, 1), (0, 2)])
    assert _color_mismatch(_SPOKES, recognize_convex(widened)) == (
        _OTHER_GRAPH)


@pytest.mark.parametrize("omega, message", [
    (3, "|A_j| = 3 exceeds omega-1 at position 3"),
    (4, "|B_j| = 3 exceeds omega-2 at position 1"),
])
def test_clique_claims_fail_closed_on_a_small_cached_omega(omega, message):
    # omega(G^2) is 6; a layout whose cached omega is smaller is caught
    # at the first position where a side outgrows it
    assert _color_violation(_cached_omega_layout(omega)) == message


def test_window_fails_closed_on_an_interval_b_j_does_not_see():
    # a layout of the gadget with a1 widened to b_0 .. b_2, although b_2 is
    # not a1's neighbor: refused before the window could count a0..a3 at
    # j = 2
    assert _color_mismatch(_GADGET, recognize_convex(
        _gadget_toggled((1, 2)))) == _OTHER_GRAPH


def test_layout_check_refuses_a_missing_interval():
    # a layout of the gadget without its last A-vertex
    fewer = build_bipartite(4, 5, [e for e in _GADGET.edges() if e[0] < 4])
    assert _color_mismatch(_GADGET, recognize_convex(fewer)) == _OTHER_GRAPH


@pytest.mark.parametrize("b_pos", [(0, 1, 0), (0, 1, 5), (0, 1, -1),
                                   (0, 1), (0, 1, 2, 3)])
def test_layout_check_refuses_a_b_pos_that_is_no_permutation(b_pos):
    # B0 and B2 both at position 0 would pass every row's check, since B2
    # is isolated; a position out of range would index past the arrays,
    # and so would one position too few or too many
    g = build_bipartite(3, 3, [(0, 0), (1, 0), (2, 1)])
    with pytest.raises(LayoutMismatch) as err:
        ConvexLayout(g, b_pos)
    assert str(err.value) == "b_pos is not a permutation of the B side"


def test_color_refuses_a_layout_of_a_relabelled_graph():
    # g2 is g1 with B relabelled, still convex: g1's layout is no layout
    # of g2.  A layout of a graph equal to g2, built apart, is g2's
    g1 = gen_random_convex(6, 6, 4, 0)
    perm = [4, 2, 1, 0, 5, 3]
    g2, twin = (build_bipartite(6, 6, [(a, perm[b]) for a, b in g1.edges()])
                for _ in range(2))
    assert _color_mismatch(g2, recognize_convex(g1)) == _OTHER_GRAPH
    assert color_square_convex(g2, recognize_convex(twin)) == (
        color_square_convex(g2, recognize_convex(g2)))


def test_layout_check_refuses_a_row_that_lost_an_edge():
    # the gadget without (0, 2) under the gadget's layout
    assert _color_mismatch(_gadget_toggled((0, 2)),
                           recognize_convex(_GADGET)) == _OTHER_GRAPH


def _cached_a_order_layout(g, a_order):
    # a layout of g whose cached <_A is ``a_order``, not the one its
    # intervals give: a fault inside the library, not a caller's layout
    layout = recognize_convex(g)
    layout.__dict__["a_order"] = tuple(a_order)
    return layout


def test_window_fails_closed_on_a_reversed_a_order():
    # with <_A reversed the window enters a1 first, at its right end 1, so
    # at j = 4 it holds no A-vertex where A_4 = {a0, a4}
    layout = _cached_a_order_layout(_GADGET, (4, 0, 3, 2, 1))
    assert _color_violation(layout) == (
        "window holds 0 A-vertices, |A_j| = 2 at position 4")


def test_layout_check_refuses_every_adjacent_swap_in_a_order():
    # a layout derives <_A from its intervals, so no caller can give it out
    # of order; should the cached <_A be wrong, the window's count of A_j,
    # or a Kempe step, fails closed on each of the 306 staircase layouts
    # of k = 4..15 rows and width 3..5 with two adjacent entries swapped
    swapped = 0
    for k in range(4, 16):
        for width in (3, 4, 5):
            g = _staircase(k, width)
            order = list(recognize_convex(g).a_order)
            for i in range(k - 1):
                a_order = order[:i] + [order[i + 1], order[i]] + order[i + 2:]
                with pytest.raises(AlgorithmInvariantViolation):
                    color_square_convex(g, _cached_a_order_layout(g, a_order))
                swapped += 1
    assert swapped == 306


# ---------------------------------------------------------------------------
# step 1's sliding window and the omega sweep against their references


def _rows_graph(rows):
    rows = [list(r) for r in rows]
    n_b = max((r[-1] + 1 for r in rows if r), default=0)
    return build_bipartite(len(rows), n_b,
                           [(a, b) for a, r in enumerate(rows) for b in r])


def _staircase(k, width):
    return _rows_graph([range(j, j + width) for j in range(k)])


def _reference_families():
    graphs = [gen_lower_bound_H(q) for q in range(2, 17, 2)]
    for k in range(1, 25):
        graphs.append(_rows_graph([range(j + 1) for j in range(k)]))  # tower
        graphs += [_staircase(k, width) for width in (2, 3, 4, 5)]
    graphs += [_rows_graph(outer_first_nesting(w)) for w in range(3, 40)]
    return graphs


def _assert_window_matches_reference(g, events=None):
    """Same colors, trace and omega as the references, under the default
    free color and the highest; ``events`` counts the trace's kinds per
    order."""
    layout = recognize_convex(g)
    for order in (contextlib.nullcontext, highest_free_color):
        got, want = [], []
        with order():
            c = color_square_convex(g, layout, trace=got)
            assert c == set_color_square_convex(g, layout, trace=want)
        assert got == want
        if events is not None:
            events[order.__name__].update(e[0] for e in got)
    assert layout.omega == sweep_omega(layout)


@settings(max_examples=300, deadline=None)
@given(convex_graphs())
def test_window_matches_set_reference(g):
    _assert_window_matches_reference(g)


def test_window_matches_set_reference_on_families():
    # staircases reach pivot, partner and swap rounds under either order,
    # so the recount after a pivot round runs too
    events = defaultdict(Counter)
    for g in _reference_families():
        _assert_window_matches_reference(g, events)
    for order in ("nullcontext", "highest_free_color"):
        assert all(events[order][kind] > 0 for kind in (
            "pivot", "pivot_recolor", "partner", "swap")), order


def _free_color_masks(monkeypatch, color, g, layout, pick):
    """The masks ``color`` hands to ``coloring._free_color``, in order, with
    ``pick`` taking the free color, and the trace of the run."""
    masks, trace = [], []

    def record(free):
        masks.append(free)
        return pick(free)

    with monkeypatch.context() as m:
        m.setattr(coloring_module, "_free_color", record)
        color(g, layout, trace=trace)
    return masks, trace


@pytest.mark.parametrize("g", [_staircase(12, 4),
                               gen_random_convex(10, 10, 4, seed=1282)],
                         ids=["staircase-12-4", "seed-1282"])
def test_window_masks_are_the_colors_of_n_bj(monkeypatch, g):
    # step 1 looks up full & ~(on_a | on_b) at every position and again
    # after each pivot round; the set reference builds the colors of
    # N(b_j) as a set at the same points, so the two must hand over the
    # same masks.  Both inputs take pivot rounds under either free color
    layout = recognize_convex(g)
    for pick in (coloring_module._free_color, pick_highest_free):
        got, trace = _free_color_masks(monkeypatch, color_square_convex, g,
                                       layout, pick)
        want, _ = _free_color_masks(monkeypatch, set_color_square_convex, g,
                                    layout, pick)
        assert got == want
        kinds = Counter(e[0] for e in trace)
        assert kinds["pivot"] > 0 and kinds["assign"] == g.n_b
        assert len(got) >= g.n_b + kinds["pivot"]


def test_staircase_reaches_step3_unpatched():
    # 12 rows of width 4 over 15 positions, omega = 5, palette 7: under
    # the default free color, one position takes a partner step and a
    # Kempe swap, with no seam patched
    g = _staircase(12, 4)
    trace = []
    c = color_square_convex(g, recognize_convex(g), trace=trace)
    kinds = Counter(e[0] for e in trace)
    assert kinds["partner"] == kinds["swap"] >= 1
    assert verify_coloring(square(g), c)


def _counter_pivot(state):
    """find_pivot with the colors of N(b_j) counted afresh in a Counter."""
    j, colors = state.j, state.colors
    a_j, hi = state._a_at[j], state._maxright[j]
    counts = Counter(colors[v] for v in a_j)
    counts.update(colors[v] for v in state._b_glob[j + 1:hi + 1])
    rank = state.layout.a_rank
    return min((v for v in a_j if counts[colors[v]] == 1),
               key=lambda v: rank[v])


def test_find_pivot_matches_counter_reference(monkeypatch):
    # find_pivot counts the colors of N(b_j) itself; at every pivot round
    # of the seeded pivot instance and of the width-4 staircases, under
    # either free color, it must give the pivot a Counter gives
    real = coloring_module.find_pivot
    calls = Counter()

    def checked(state):
        calls[order.__name__] += 1
        pivot = real(state)
        assert pivot == _counter_pivot(state)
        return pivot

    monkeypatch.setattr(coloring_module, "find_pivot", checked)
    graphs = [gen_random_convex(10, 10, 4, seed=1282)]
    graphs += [_staircase(k, 4) for k in range(1, 25)]
    for order in (contextlib.nullcontext, highest_free_color):
        for g in graphs:
            with order():
                c = color_square_convex(g, recognize_convex(g))
            assert verify_coloring(square(g), c)
    assert calls["nullcontext"] > 0 and calls["highest_free_color"] > 0


@settings(max_examples=300, deadline=None)
@given(convex_graphs().filter(lambda g: g.n_a + g.n_b <= 12))
def test_omega_matches_exact_oracle_on_small_graphs(g):
    assert recognize_convex(g).omega == exact_clique(square(g))


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
    """Proper ``c`` and copies with a recolored conflict, two A-vertices of
    one color sharing a B-neighbor, a missing vertex, a color above the
    palette and the color 0 below it."""
    yield c
    n = g.n_a + g.n_b
    for u, v in square(g).edges():
        yield Coloring({**c.colors, v: c.colors[u]}, c.palette)
        break
    for a_b in g.b_adj:
        for u, v in zip(a_b, a_b[1:]):
            yield Coloring({**c.colors, v: c.colors[u]}, c.palette)
    for v in range(n):
        yield Coloring({w: col for w, col in c.colors.items() if w != v},
                       c.palette)
        yield Coloring({**c.colors, v: c.palette + 1}, c.palette)
        yield Coloring({**c.colors, v: 0}, c.palette)


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
