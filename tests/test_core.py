import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqchroma.core import (
    BipartiteGraph,
    SimpleGraph,
    VertexRef,
    build_bipartite,
    complement,
    girth,
    half_square,
    induced_subgraph,
    max_degree,
    read_bipartite_text,
    read_graph_text,
    read_simple_text,
    relabel_b,
    square,
    square_simple,
    vertex_names,
    write_bipartite_text,
    write_simple_text,
)
from sqchroma.generators import gen_named

from helpers import naive_girth, random_bipartite
from sqchroma.rng import SplitMix64


def bipartite_graphs(max_side=6):
    @st.composite
    def build(draw):
        n_a = draw(st.integers(0, max_side))
        n_b = draw(st.integers(0, max_side))
        edges = draw(st.lists(
            st.tuples(st.integers(0, max(n_a - 1, 0)), st.integers(0, max(n_b - 1, 0))),
            max_size=n_a * n_b,
        )) if n_a and n_b else []
        return build_bipartite(n_a, n_b, edges)

    return build()


def test_build_bipartite_single_edge():
    g = build_bipartite(1, 1, [(0, 0)])
    assert g.m == 1
    assert g.adj == ((0,),)


def test_build_bipartite_figure_not_perfect():
    g = gen_named("not_perfect")
    assert (g.n_a, g.n_b, g.m) == (4, 4, 10)


def test_build_bipartite_dedups():
    g = build_bipartite(2, 2, [(0, 0), (0, 0)])
    assert g.m == 1


def test_build_bipartite_range_check():
    with pytest.raises(IndexError):
        build_bipartite(2, 2, [(2, 0)])
    with pytest.raises(IndexError):
        build_bipartite(2, 2, [(0, 5)])


def test_vertex_ref_roundtrip():
    r = VertexRef("B", 2)
    assert r.to_global(3) == 5
    assert VertexRef.from_global(5, 3) == r
    assert str(r) == "B2"
    with pytest.raises(ValueError):
        VertexRef("C", 0)


@pytest.mark.parametrize("n_a, n_b", [(0, 0), (0, 2), (3, 0), (4, 4), (2, 5)])
def test_vertex_names_follow_the_global_order(n_a, n_b):
    names = vertex_names(n_a, n_b)
    assert names == [str(VertexRef.from_global(v, n_a))
                     for v in range(n_a + n_b)]


def test_square_k11_is_k2():
    g = build_bipartite(1, 1, [(0, 0)])
    s = square(g)
    assert s.n == 2 and s.m == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_square_complete_bipartite_is_clique(n):
    g = gen_named("complete", n)
    s = square(g)
    assert s.m == (2 * n) * (2 * n - 1) // 2


@pytest.mark.parametrize("g", [gen_named("not_perfect"), gen_named("complete", 3),
                               build_bipartite(0, 0, []), build_bipartite(3, 4, [])])
def test_square_is_built_once_per_graph(g):
    first = square(g)
    assert square(g) is first
    # the cached object equals a fresh build, on this graph and on an
    # equal graph built anew
    assert first == BipartiteGraph.__dict__["square"].func(g)
    again = build_bipartite(g.n_a, g.n_b, g.edges())
    assert again == g and square(again) == first and square(again) is not first


def test_square_path_is_triangle():
    # a0 - b0 - a1: the A-vertices are at distance two
    g = build_bipartite(2, 1, [(0, 0), (1, 0)])
    s = square(g)
    assert sorted(s.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_half_square_star_is_clique():
    g = build_bipartite(1, 4, [(0, b) for b in range(4)])
    h = half_square(g, "B")
    assert h.n == 4 and h.m == 6


def test_half_square_empty_side():
    g = build_bipartite(0, 3, [])
    h = half_square(g, "B")
    assert h.n == 3 and h.m == 0


def test_half_square_matches_figure():
    g = gen_named("not_perfect")
    h = half_square(g, "A")
    # left column of the square in the figure: a adjacent to v1,v2,v3;
    # v1-v2 and v2-v3 adjacent; v1-v3 not.
    assert sorted(h.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
    assert 3 not in h.adj[1]


@settings(max_examples=60)
@given(bipartite_graphs())
def test_square_restricted_to_A_equals_half_square(g):
    s = square(g)
    h = half_square(g, "A")
    a_edges = {(u, v) for u, v in s.edges() if u < g.n_a and v < g.n_a}
    assert a_edges == set(h.edges())


@settings(max_examples=60)
@given(bipartite_graphs())
def test_square_cross_edges_are_graph_edges(g):
    s = square(g)
    cross = {
        (u, v - g.n_a) for u, v in s.edges() if u < g.n_a <= v
    }
    assert cross == set(g.edges())


@settings(max_examples=40)
@given(bipartite_graphs(max_side=5), st.randoms(use_true_random=False))
def test_square_invariant_under_relabeling(g, pyrandom):
    perm = list(range(g.n_b))
    pyrandom.shuffle(perm)
    s1 = square(g)
    s2 = square(relabel_b(g, perm))

    def to2(v):  # global index in the relabeled square
        return v if v < g.n_a else g.n_a + perm[v - g.n_a]

    assert s2.m == s1.m
    for u, v in s1.edges():
        assert s2.has_edge(to2(u), to2(v))


def test_girth_c7():
    c7 = SimpleGraph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    assert girth(c7) == 7


def test_girth_tree_infinite():
    t = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    assert girth(t) == math.inf


def test_girth_figure_not_perfect():
    g = gen_named("not_perfect")
    sg = SimpleGraph.from_edges(
        g.n_a + g.n_b, [(a, g.n_a + b) for a, b in g.edges()]
    )
    expected = naive_girth(sg)  # exhaustive cycle enumeration oracle
    assert expected == 4
    assert girth(sg) == 4


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32))
def test_girth_matches_naive_enumeration(seed):
    rng = SplitMix64(seed)
    g = random_bipartite(rng, rng.randint(1, 4), rng.randint(1, 4), 0.5)
    sg = SimpleGraph.from_edges(
        g.n_a + g.n_b, [(a, g.n_a + b) for a, b in g.edges()]
    )
    assert girth(sg) == naive_girth(sg)


def test_max_degree_k33():
    assert max_degree(gen_named("complete", 3)) == 3


def test_max_degree_simple_and_empty():
    assert max_degree(SimpleGraph.from_edges(3, [(0, 1)])) == 1
    assert max_degree(build_bipartite(0, 0, [])) == 0


def test_induced_subgraph_k4_pair():
    k4 = SimpleGraph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    sub, labels = induced_subgraph(k4, [0, 1])
    assert sub.m == 1 and labels == (0, 1)


def test_induced_subgraph_c5_minus_vertex_is_path():
    c5 = SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    sub, labels = induced_subgraph(c5, [0, 1, 2, 3])
    assert sub.m == 3  # P_4
    degs = sorted(len(s) for s in sub.adj)
    assert degs == [1, 1, 2, 2]


def test_square_simple_path():
    p4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    s = square_simple(p4)
    assert set(s.edges()) == {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}


def test_complement_involution():
    g = SimpleGraph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    assert complement(complement(g)) == g


def test_bipartite_text_roundtrip():
    g = gen_named("not_perfect")
    text = write_bipartite_text(g)
    assert text.splitlines()[0] == "p bip 4 4 10"
    assert read_bipartite_text(text) == g


def test_simple_text_roundtrip():
    g = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert read_simple_text(write_simple_text(g)) == g


def test_text_format_comments_and_errors():
    assert read_bipartite_text("c hi\np bip 1 1 1\ne 0 0\n").m == 1
    with pytest.raises(ValueError):
        read_bipartite_text("e 0 0\n")
    with pytest.raises(ValueError):
        read_bipartite_text("p gen 3 0\n")
    with pytest.raises(ValueError):
        read_simple_text("p gen 2 1\nq 0 1\n")
    with pytest.raises(ValueError, match="m = 7"):
        read_bipartite_text("p bip 2 2 7\ne 0 0\n")
    with pytest.raises(ValueError, match="m = 0"):
        read_simple_text("p gen 2 0\ne 0 1\n")


def test_read_graph_text_returns_the_header_kind():
    bip = write_bipartite_text(gen_named("not_perfect"))
    gen = "c c5\np gen 5 5\n" + "".join(f"e {i} {(i + 1) % 5}\n"
                                       for i in range(5))
    assert read_graph_text(bip) == read_bipartite_text(bip)
    assert read_graph_text(gen) == read_simple_text(gen)
    for text, message in [("p bip 2 2\n", "'p bip <n_a> <n_b> <m>'"),
                          ("p gen 3\n", "'p gen <n> <m>'"),
                          ("p gen 3 1\n", "m = 1"),
                          ("", "missing problem line")]:
        with pytest.raises(ValueError, match=message):
            read_graph_text(text)


# int() alone takes the first five and refuses the rest without a line number
_BAD_ENDPOINTS = ["x", "1_0", "+1", "\u0661", "\uff11", "0x1", "1.0"]


@pytest.mark.parametrize("token", _BAD_ENDPOINTS)
def test_edge_endpoint_must_be_a_decimal_integer(token):
    for text in (f"p bip 2 20 2\ne 0 0\ne 1 {token}\n",
                 f"c \u00e9t\u00e9 +_\np bip 2 20 2\ne 0 0\ne {token} 1\n",
                 f"p bip 2 20 2\nc +_\ne {token} 1\ne 0 0\n"):
        line = 4 if text.startswith("c") else 3
        with pytest.raises(ValueError, match=f"^line {line}: edge endpoints "
                                             "must be decimal integers"):
            read_bipartite_text(text)
    with pytest.raises(ValueError, match="^line 2: edge endpoints"):
        read_simple_text(f"p gen 20 1\ne {token} 0\n")


@settings(max_examples=300, deadline=None)
@given(token=st.text(alphabet="0123456789-+_x\u0661\uff11\u00e9", min_size=1,
                     max_size=4),
       comment=st.sampled_from(["", "c +\n", "c \u00e9\n"]),
       comment_first=st.booleans())
def test_reader_takes_exactly_the_documented_endpoints(token, comment,
                                                       comment_first):
    head, edge = "p bip 1 100 1\n", f"e 0 {token}\n"
    text = comment + head + edge if comment_first else head + comment + edge
    try:
        g = read_bipartite_text(text)
    except ValueError as exc:
        if str(exc).startswith("line "):
            assert not re.fullmatch("-?[0-9]+", token)
        else:
            assert re.fullmatch("-?[0-9]+", token) and not 0 <= int(token) < 100
    else:
        assert re.fullmatch("-?[0-9]+", token) and g.adj == ((int(token),),)


@pytest.mark.parametrize("sizes", ["1_0 1 0", "+1 1 0", "\u0661 1 0"])
def test_problem_line_sizes_must_be_decimal_integers(sizes):
    with pytest.raises(ValueError, match="^line 1: bad problem line"):
        read_bipartite_text(f"p bip {sizes}\n")


def test_plain_endpoints_read_beside_any_comment():
    # "+", "_" and non-ASCII text outside the endpoints change nothing
    plain = read_bipartite_text("p bip 2 11 2\ne 0 10\ne 1 -0\n")
    assert plain.adj == ((10,), (0,))
    for text in ("c +_\u00e9\np bip 2 11 2\ne 0 010\ne 1 -0\n",
                 "p bip 2 11 2\ne 0 010\nc +_\u00e9\ne 1 -0\n",
                 "c p bip 2 11 2 +\np bip 2 11 2\ne 0 10\ne 1 0\n"):
        assert read_bipartite_text(text) == plain
    with pytest.raises(ValueError, match="^A-endpoint -1 out of range"):
        read_bipartite_text("c +\np bip 2 11 1\ne -1 0\n")
