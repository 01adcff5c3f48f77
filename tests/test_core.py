import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqchroma import core as core_module
from sqchroma.core import (
    MAX_VERTICES,
    BipartiteGraph,
    SimpleGraph,
    _build_graph,
    _parse_graph_lines,
    _read_canonical_bipartite,
    bitmask,
    build_bipartite,
    complement,
    girth,
    half_square,
    induced_subgraph,
    inverse,
    max_degree,
    read_bipartite_text,
    read_graph_text,
    read_simple_text,
    square,
    square_simple,
    vertex_names,
    write_bipartite_text,
    write_simple_text,
)
from sqchroma.generators import gen_named, gen_random_convex

from helpers import (VertexRef, distance_two_pairs, naive_girth,
                     random_bipartite, relabel_b)
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


def _cross_edges(g):
    return [(a, g.n_a + b) for a, b in g.edges()]


@settings(max_examples=60)
@given(bipartite_graphs())
def test_simple_is_the_graph_on_the_global_order(g):
    assert g.simple == SimpleGraph.from_edges(g.n_a + g.n_b, _cross_edges(g))


@settings(max_examples=60)
@given(bipartite_graphs())
def test_square_and_half_squares_match_the_reference(g):
    # equal graphs, so neither side holds a self-loop or a one-way edge
    n_a, n = g.n_a, g.n_a + g.n_b
    pairs = distance_two_pairs(n, _cross_edges(g))
    assert square(g) == SimpleGraph.from_edges(n, pairs)
    assert half_square(g, "A") == SimpleGraph.from_edges(
        n_a, [(u, v) for u, v in pairs if v < n_a])
    assert half_square(g, "B") == SimpleGraph.from_edges(
        g.n_b, [(u - n_a, v - n_a) for u, v in pairs if u >= n_a])


@st.composite
def simple_graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=n * n)) if n else []
    return SimpleGraph.from_edges(n, edges)


@settings(max_examples=60)
@given(simple_graphs())
def test_square_simple_matches_the_reference(h):
    assert square_simple(h) == SimpleGraph.from_edges(
        h.n, distance_two_pairs(h.n, h.edges()))


@settings(max_examples=60)
@given(simple_graphs(max_n=40))
def test_bits_are_the_neighbor_sets(h):
    assert [{w for w in range(h.n) if b >> w & 1} for b in h.bits] == [
        set(nbrs) for nbrs in h.adj]
    assert h.bits is h.bits  # built once per graph


def test_girth_c7():
    c7 = SimpleGraph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    assert girth(c7) == 7


def test_girth_tree_infinite():
    t = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    assert girth(t) == math.inf


def test_girth_figure_not_perfect():
    sg = gen_named("not_perfect").simple
    expected = naive_girth(sg)  # exhaustive cycle enumeration oracle
    assert expected == 4
    assert girth(sg) == 4


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32))
def test_girth_matches_naive_enumeration(seed):
    rng = SplitMix64(seed)
    g = random_bipartite(rng, rng.randint(1, 4), rng.randint(1, 4), 0.5)
    sg = g.simple
    assert girth(sg) == naive_girth(sg)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 10),
       st.sampled_from([0.15, 0.25, 0.4, 0.6]))
def test_capped_girth_matches_naive_enumeration(seed, n, p):
    rng = SplitMix64(seed)
    sg = SimpleGraph.from_edges(n, [(u, v) for u in range(n)
                                    for v in range(u + 1, n)
                                    if rng.random() < p])
    want = naive_girth(sg)
    for cap in (3, 4, 5, 6, 7, 8, math.inf):
        assert girth(sg, cap) == min(want, cap), cap


def test_capped_girth_on_cycles_and_trees():
    for n in range(3, 12):
        cycle = SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        for cap in (3, 6, 7, 8, 12, math.inf):
            assert girth(cycle, cap) == min(n, cap), (n, cap)
    t = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    assert girth(t, 7) == 7
    c3000 = SimpleGraph.from_edges(3000, [(i, (i + 1) % 3000)
                                          for i in range(3000)])
    assert girth(c3000, 7) == 7


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


# ---------------------------------------------------------------------------
# The bulk reader of the canonical form against the line reader


def _outcome(read, text):
    """The graph ``read`` returns for ``text``, or the message it raises."""
    try:
        return read(text)
    except ValueError as exc:
        return str(exc)


def _line_bipartite(text):
    return _build_graph("bip", *_parse_graph_lines(text))


def _line_graph(text):
    kind, sizes, edges = _parse_graph_lines(text)
    return _build_graph(kind, kind, sizes, edges)


def _assert_readers_agree(text):
    """The bulk path returns the line reader's graph or defers to it, and
    the public readers give the line reader's graph or message."""
    want = _outcome(_line_bipartite, text)
    bulk = _read_canonical_bipartite(text)
    if bulk is not None:
        assert bulk == want
    assert _outcome(read_bipartite_text, text) == want
    assert _outcome(read_graph_text, text) == _outcome(_line_graph, text)
    return bulk


# every line break str.splitlines knows besides "\n"
_SEPARATORS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]


@st.composite
def bip_texts(draw):
    """Canonical ``p bip`` texts, some edited a few characters at a time."""
    n_a, n_b = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    edges = draw(st.lists(st.tuples(st.integers(0, max(n_a - 1, 0)),
                                    st.integers(0, max(n_b - 1, 0))),
                          max_size=8))
    if draw(st.integers(0, 4)) == 0:  # an endpoint may equal the side size
        edges.append((draw(st.integers(0, n_a)), draw(st.integers(0, n_b))))
    comments = draw(st.lists(st.sampled_from(
        ["c", "c x", "c p bip 1 1 0", "c e 0 0", "c \u00e9 +_", "cat"]),
        max_size=2))
    if draw(st.booleans()):
        edges = sorted(set(edges))  # as the writer lists them
    m = len(edges) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    lines = comments + [f"p bip {n_a} {n_b} {m}"]
    lines += [f"e {a} {b}" for a, b in edges]
    text = "".join(line + "\n" for line in lines)
    inserts = st.sampled_from(list("0- \tcepx\n+_") + ["\u0661"] + _SEPARATORS)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + draw(inserts) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return text


@settings(max_examples=500, deadline=None)
@given(bip_texts())
def test_bulk_reader_agrees_with_the_line_reader(text):
    _assert_readers_agree(text)


def test_bulk_reader_takes_the_canonical_form():
    for g in [gen_named("not_perfect"), gen_random_convex(40, 30, 6, seed=3),
              build_bipartite(3, 0, []), build_bipartite(0, 0, [])]:
        text = write_bipartite_text(g)
        for prefix in ("", "c\n", "c name\nc \u00e9 +_ p bip 9 9 9\n"):
            assert _assert_readers_agree(prefix + text) == g


@pytest.mark.parametrize("sep", _SEPARATORS)
def test_bulk_reader_defers_at_every_line_break(sep):
    for text in (f"c a{sep}p bip 1 1 0\np bip 1 1 0\n",
                 f"c a{sep}e 0 0\np bip 1 1 1\ne 0 0\n",
                 f"c a{sep}\np bip 1 1 1\ne 0 0\n",
                 f"{sep}c a\np bip 1 1 1\ne 0 0\n",
                 f"c a\n{sep}p bip 1 1 1\ne 0 0\n",
                 f"c a\np bip 1 1 1{sep}e 0 0\n",
                 f"p bip 1 1 1\ne 0 0{sep}"):
        assert _assert_readers_agree(text) is None


def test_comment_with_a_hidden_line_break_keeps_its_error():
    # "\x1c" ends a line for str.splitlines, so this is a comment and two
    # problem lines; a comment screen up to "\n" would read a graph
    text = "c a\x1cp bip 1 1 0\np bip 1 1 0\n"
    with pytest.raises(ValueError, match="^line 3: repeated problem line$"):
        read_bipartite_text(text)
    _assert_readers_agree(text)


@pytest.mark.parametrize("text", [
    "p bip 2 2 1\n\ne 0 1\n",            # a blank line
    "p bip 2 2 1\ne\t0 1\n",             # a tab
    "\tp bip 2 2 1\ne 0 1\n",
    "p bip 2 2 1\ne 0 1 \n",              # a trailing space
    "p bip 2 2 1\ne 0  1\n",
    "p bip 2 2 1\ne -0 1\n",
    "p bip 2 2 1\ne 0 1",                 # no final newline
    "p bip 9 9 1\ne  5\n7",               # an endpoint after the last line
    "p bip 9 9 1\n5e 5 7\n",
    "p bip 9 9 1\ne5 5 7\n",
    "p bip 2 2 1\ne 0 1\nc late\n",       # a comment after the header
    "p gen 2 1\ne 0 1\n",
])
def test_bulk_reader_defers_outside_the_canonical_form(text):
    assert _assert_readers_agree(text) is None


def test_bulk_reader_edge_cases():
    # a leading zero misses the table and is read by int(), as in the
    # line reader
    assert _assert_readers_agree("p bip 8 8 1\ne 007 0\n").adj[7] == (0,)
    # repeated or unsorted edges go to the line reader, which collapses
    # them into sorted rows
    for text in ("p bip 2 3 4\ne 1 2\ne 0 1\ne 1 0\ne 1 2\n",
                 "p bip 2 3 3\ne 0 1\ne 1 0\ne 1 0\n",
                 "p bip 2 3 2\ne 1 0\ne 0 1\n"):
        assert _assert_readers_agree(text) is None
    assert read_bipartite_text("p bip 2 3 4\ne 1 2\ne 0 1\ne 1 0\ne 1 2\n"
                               ).adj == ((1,), (0, 2))
    # a vertex beyond the token count also misses the table
    g = _assert_readers_agree("p bip 1000 1000 1\ne 999 998\n")
    assert g.adj[999] == (998,) and g.m == 1
    for text, message in [
            ("p bip 2 2 1\ne 2 0\n", "A-endpoint 2 out of range (n_a=2)"),
            ("p bip 2 2 1\ne 0 2\n", "B-endpoint 2 out of range (n_b=2)"),
            ("p bip 2 0 1\ne 0 0\n", "B-endpoint 0 out of range (n_b=0)"),
            ("p bip 2 2 2\ne 0 0\n",
             "problem line says m = 2, but the file has 1 'e' lines"),
            ("p bip 2 2 0\ne 0 0\n",
             "problem line says m = 0, but the file has 1 'e' lines")]:
        assert _assert_readers_agree(text) is None
        with pytest.raises(ValueError) as exc:
            read_bipartite_text(text)
        assert str(exc.value) == message


def test_bulk_reader_table_is_bounded_by_the_input():
    # a million B-vertices, one edge: the table holds at most three entries
    text = "p bip 1 1000000 1\ne 0 999999\n"
    tracemalloc.start()
    try:
        g = _read_canonical_bipartite(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.adj == ((999999,),)
    assert peak < 100_000


# With a chunk of one character each edge line is a chunk of its own, and
# with eight or thirteen the lines "e <a> <b>" below go two to a chunk.
@pytest.mark.parametrize("size", [1, 8, 13])
@pytest.mark.parametrize("text, adj", [
    # a row that spans a seam
    ("p bip 2 3 4\ne 0 0\ne 0 1\ne 0 2\ne 1 1\n", ((0, 1, 2), (1,))),
    # rows out of order across a seam
    ("p bip 2 2 3\ne 1 0\ne 1 1\ne 0 1\n", None),
    # an edge repeated across a seam, in a row and as a row of its own
    ("p bip 2 2 3\ne 0 0\ne 0 1\ne 0 1\n", None),
    ("p bip 2 2 3\ne 0 1\ne 1 0\ne 1 0\n", None),
    # one line too many, or too few, in the last chunk
    ("p bip 2 2 2\ne 0 0\ne 0 1\ne 1 0\n", None),
    ("p bip 200 200 4\ne 100 100\ne 100 101\ne 101 100\n", None),
    # a leading zero at a seam: as a row's first A-token and as a B-token
    # it is read by int(); as the same A-vertex spelt anew the row looks
    # like a second row of that vertex, and the line reader takes it
    ("p bip 8 8 2\ne 6 0\ne 007 1\n", ((), (), (), (), (), (), (0,), (1,))),
    ("p bip 1 8 2\ne 0 006\ne 0 007\n", ((6, 7),)),
    ("p bip 8 8 2\ne 7 0\ne 007 1\n", None),
    # an empty body with m > 0
    ("p bip 2 2 1\n", None),
    ("c\np bip 2 2 3\n", None),
])
def test_bulk_reader_across_chunk_seams(monkeypatch, size, text, adj):
    monkeypatch.setattr(core_module, "_CHUNK", size)
    bulk = _assert_readers_agree(text)
    assert (bulk if bulk is None else bulk.adj) == adj


@settings(max_examples=500, deadline=None)
@given(bip_texts(), st.integers(1, 12))
def test_bulk_reader_agrees_with_the_line_reader_in_tiny_chunks(text, size):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core_module, "_CHUNK", size)
        _assert_readers_agree(text)


@st.composite
def row_texts(draw):
    """``p bip`` texts in canonical row order whose rows mix runs of labels,
    runs with one label left out, other sorted rows and rows out of order,
    of 1 to 12 labels, some B-tokens spelt with a leading zero."""
    n_a, n_b = draw(st.integers(1, 8)), draw(st.integers(1, 30))
    # short rows, long rows, or both
    sizes = draw(st.sampled_from([[1, 2, 3], [4, 5, 7, 9, 12],
                                  [1, 2, 3, 4, 5, 7, 9, 12]]))
    lines = []
    for a in sorted(draw(st.sets(st.integers(0, n_a - 1), min_size=1))):
        k = draw(st.sampled_from(sizes))
        # now and then a label reaches n_b
        top = max(n_b - k, 0) + (draw(st.integers(0, 3)) == 0)
        lo = draw(st.integers(0, top))
        kind = draw(st.sampled_from(["run", "run", "gap", "any"]))
        if kind == "run":
            labels = list(range(lo, lo + k))
        elif kind == "gap":
            # an interior label goes, when there is one
            labels = list(range(lo, lo + k + 1))
            del labels[draw(st.integers(1, max(k - 1, 1)))]
        else:
            labels = draw(st.lists(st.integers(0, n_b), min_size=1,
                                   max_size=k))
            if draw(st.booleans()):
                labels = sorted(set(labels))
        for b in labels:
            zero = "0" * (draw(st.integers(0, 7)) == 0)
            lines.append(f"e {a} {zero}{b}\n")
    return f"p bip {n_a} {n_b} {len(lines)}\n" + "".join(lines)


@settings(max_examples=800, deadline=None)
@given(row_texts(), st.sampled_from([1, 20, 60, 120, 250, 1 << 18]))
def test_bulk_reader_reads_run_rows_as_the_line_reader(text, size):
    # the chunks cut rows at their seams and hold short and long rows, so
    # both ways of reading a chunk meet every kind of row
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core_module, "_CHUNK", size)
        _assert_readers_agree(text)


def test_chunk_of_long_run_rows_converts_no_token(monkeypatch):
    # rows of _RUN_ROWS labels or more on average are compared with the
    # table's names, so a text of runs never reaches _converted; a row out
    # of place is converted on its own, and a chunk of shorter rows is
    # converted whole
    calls = []
    real = core_module._converted

    def converted(tokens, table, n_b):
        calls.append(list(tokens))
        return real(tokens, table, n_b)

    monkeypatch.setattr(core_module, "_converted", converted)
    runs = gen_random_convex(60, 50, 12, seed=5)
    assert runs.m >= core_module._RUN_ROWS * sum(map(bool, runs.adj))
    assert _read_canonical_bipartite(write_bipartite_text(runs)) == runs
    assert calls == []
    rows = ["e 0 3\ne 0 4\ne 0 5\ne 0 6\n", "e 1 2\ne 1 4\ne 1 5\ne 1 6\n",
            "e 2 0\ne 2 1\ne 2 2\ne 2 3\n"]
    g = _read_canonical_bipartite("p bip 3 7 12\n" + "".join(rows))
    assert g.adj == ((3, 4, 5, 6), (2, 4, 5, 6), (0, 1, 2, 3))
    assert calls == [["2", "4", "5", "6"]]
    calls.clear()
    g = _read_canonical_bipartite("p bip 3 7 4\ne 0 1\ne 1 2\ne 2 3\ne 2 4\n")
    assert g.adj == ((1,), (2,), (3, 4))
    assert calls == [["1", "2", "3", "4"]]


def test_bulk_reader_peak_is_a_small_multiple_of_the_graph():
    # the text of random_convex(10^5, 10^5, 30) at seed 0, written with
    # string operations from the same draws: 1.55 M edge lines, 21 MB
    n, rng = 100_000, SplitMix64(0)
    labels = list(map(str, range(n)))
    rows, m = [], 0
    for a in range(n):
        length = rng.randint(1, 30)
        left = rng.randint(0, n - length)
        rows.append(f"e {a} " + f"\ne {a} ".join(labels[left:left + length])
                    + "\n")
        m += length
    text = f"p bip {n} {n} {m}\n" + "".join(rows)
    del rows, labels
    tracemalloc.start()
    try:
        g = _read_canonical_bipartite(text)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_a == g.n_b == n and g.m == m
    # what is traced after the read is the graph it returns
    assert peak < 3 * size


@pytest.mark.parametrize("text, read", [
    ("p bip {big} 1 0\n", read_bipartite_text),
    ("p bip 1 {big} 0\n", read_bipartite_text),
    ("c a comment\np bip {big} {big} 0\n", read_graph_text),
    ("p bip {big} 1 0", read_graph_text),  # no final line break
    ("p gen {big} 0\n", read_simple_text),
    ("p gen {big} 0\n", read_graph_text),
])
def test_header_sizes_over_the_cap_are_one_error(text, read):
    # a vertex count above the cap is refused at its line, before a row is
    # allocated; the bulk reader leaves it to the line reader
    big = MAX_VERTICES + 1
    text = text.format(big=big)
    assert _read_canonical_bipartite(text) is None
    lineno = 1 + text.startswith("c")
    with pytest.raises(ValueError) as exc:
        read(text)
    assert str(exc.value) == (f"line {lineno}: vertex count {big} exceeds "
                              f"the limit {MAX_VERTICES}")


def test_header_sizes_at_the_cap_are_read():
    # the cap itself is allowed; the edge count is not capped
    assert MAX_VERTICES == 2 ** 24
    text = f"p bip 1 {MAX_VERTICES} 1\ne 0 {MAX_VERTICES - 1}\n"
    assert _assert_readers_agree(text).adj == ((MAX_VERTICES - 1,),)
    with pytest.raises(ValueError, match="^problem line says m = "):
        read_simple_text(f"p gen 3 {MAX_VERTICES + 1}\ne 0 1\n")


def test_inverse_and_bitmask_of_nothing():
    assert inverse([]) == [] and inverse(range(0)) == []
    assert bitmask([]) == 0 and bitmask(frozenset()) == 0


@given(st.integers(0, 40).flatmap(lambda n: st.permutations(range(n))))
def test_inverse_round_trips(order):
    pos = inverse(order)
    assert all(order[pos[x]] == x for x in range(len(order)))
    assert inverse(pos) == list(order)


@given(st.frozensets(st.integers(0, 300)))
def test_bitmask_sets_one_bit_per_member(members):
    assert bitmask(members) == sum(1 << x for x in members)
    assert bitmask(sorted(members)) == bitmask(members)
