"""Graph model, squares and half squares, and elementary metrics.

Two immutable graph values underpin everything else:

* ``BipartiteGraph`` stores cross edges only, as a sorted B-neighbor list
  per A-vertex.  Vertices are addressed per side, ``(side, index)``.
* ``SimpleGraph`` is a plain symmetric adjacency structure used for
  squares, half squares and oracle inputs.

The square of a bipartite graph lives on the fixed global order
A0..A_{n_a-1}, B0..B_{n_b-1}: global index ``i < n_a`` is A-vertex ``i``
and ``n_a + j`` is B-vertex ``j``.  In a bipartite graph no two vertices
on opposite sides are at distance exactly two, so every cross edge of the
square is an edge of the original graph; squaring only adds same-side
edges between vertices with a common neighbor.  ``square_simple`` is the
one squaring routine: ``square(g)`` is ``square_simple(g.simple)``, where
``g.simple`` is ``g`` itself on the global order, and the half squares
G^2[A] and G^2[B] are its two sides, cut out by ``induced_subgraph``.
``square(g)`` builds the square once per graph and caches it on the
frozen ``BipartiteGraph``, as ``b_adj`` is cached, so the structure
checkers and oracles can ask for it per cycle without rebuilding it.  The
coloring pipeline never asks.

The module also owns the text interchange format used by the CLI:
``p bip <n_a> <n_b> <m>`` followed by ``m`` lines ``e <a> <b>`` (0-based)
for bipartite graphs, and ``p gen <n> <m>`` with ``e <u> <v>`` lines for
general graphs.  Lines starting with ``c`` are comments.  A problem line
may give each side (or a general graph) at most ``MAX_VERTICES`` = 2**24
vertices; a larger size is an error at that line, not a request for
memory.

The format has two readers.  The line reader (``_parse_graph_lines`` and
``_build_graph``) is its one definition: it reads every text the format
allows and raises every error message.  ``read_bipartite_text`` and
``read_graph_text`` first try a bulk pass over the canonical form of a
``p bip`` file, the one ``write_bipartite_text`` writes: comment lines,
the problem line, then exactly ``m`` edge lines of plain ASCII decimals,
sorted by (a, b) without repeats, each line ended by "\\n".  The pass
screens the comment lines and the problem line with one regex.  It reads
the edge lines a chunk of about 2**18 characters at a time: one split
and one deletion of the digits screen a chunk, and a row ends where the
A-token changes, so the read holds little beyond the graph it returns.
A chunk whose rows hold four labels or more on average is read row by
row: a row whose B-tokens are the decimal strings of a run of labels is
that run, found by one list comparison and taken as one slice, and only
any other row is converted and checked label by label.  A chunk of
shorter rows, where the run test costs more per row than it saves per
label, converts all its B-tokens through one table and checks their
order edge by edge.  Either way the pass is O(1) per label and per row.
It returns None for any other text, and for every text the line reader
would reject, so such text goes to the line reader unchanged and the
errors all come from there.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import lt, ne, or_
from typing import Iterable, Iterator, Sequence

SIDE_A = "A"
SIDE_B = "B"


def vertex_names(n_a: int, n_b: int) -> list[str]:
    """Names of the vertices on the global order: A0.., then B0.. ."""
    return ([f"{SIDE_A}{i}" for i in range(n_a)]
            + [f"{SIDE_B}{j}" for j in range(n_b)])


def inverse(order: Sequence[int]) -> list[int]:
    """The position of each element of ``order``, a permutation of 0..n-1."""
    pos = [0] * len(order)
    for p, x in enumerate(order):
        pos[x] = p
    return pos


def bitmask(members: Iterable[int]) -> int:
    """The int with bit x set for each x of ``members``, distinct ints >= 0."""
    return sum(map((1).__lshift__, members))


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with ``n_a`` A-vertices, ``n_b`` B-vertices and
    cross edges stored as sorted, duplicate-free B-neighbor tuples."""

    n_a: int
    n_b: int
    adj: tuple[tuple[int, ...], ...]

    @cached_property
    def b_adj(self) -> tuple[tuple[int, ...], ...]:
        """A-neighbors of every B-vertex, derived from ``adj``."""
        nbrs: list[list[int]] = [[] for _ in range(self.n_b)]
        for a, row in enumerate(self.adj):
            for b in row:
                nbrs[b].append(a)
        return tuple(tuple(row) for row in nbrs)

    @property
    def simple(self) -> "SimpleGraph":
        """``g`` itself as a SimpleGraph on the global order A0.., B0.."""
        n_a = self.n_a
        return SimpleGraph(n_a + self.n_b, tuple(
            [frozenset([n_a + b for b in row]) for row in self.adj]
            + [frozenset(row) for row in self.b_adj]))

    @cached_property
    def square(self) -> "SimpleGraph":
        """The square on the global order A0.., B0..; read it through
        ``core.square(g)``.  Built once per graph: the graph is frozen."""
        return square_simple(self.simple)

    @property
    def m(self) -> int:
        return sum(len(row) for row in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a, row in enumerate(self.adj) for b in row]


@dataclass(frozen=True)
class SimpleGraph:
    """Simple undirected graph: symmetric, irreflexive neighbor sets."""

    n: int
    adj: tuple[frozenset[int], ...]

    @cached_property
    def bits(self) -> tuple[int, ...]:
        """Neighbor bitmasks, by ``bitmask``: bit w of ``bits[u]`` is set
        when uw is an edge.  Built once per graph, as ``b_adj`` is."""
        return tuple(map(bitmask, self.adj))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                continue
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(frozenset(s) for s in nbrs))

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]


def build_bipartite(n_a: int, n_b: int,
                    edges: Iterable[tuple[int, int]]) -> BipartiteGraph:
    """Build a BipartiteGraph from (a-index, b-index) pairs.

    Duplicate edges are collapsed; endpoints out of range raise IndexError.
    """
    if n_a < 0 or n_b < 0:
        raise ValueError("side sizes must be non-negative")
    nbrs: list[set[int]] = [set() for _ in range(n_a)]
    for a, b in edges:
        if not 0 <= a < n_a:
            raise IndexError(f"A-endpoint {a} out of range (n_a={n_a})")
        if not 0 <= b < n_b:
            raise IndexError(f"B-endpoint {b} out of range (n_b={n_b})")
        nbrs[a].add(b)
    return BipartiteGraph(n_a, n_b, tuple(tuple(sorted(s)) for s in nbrs))


def square(g: BipartiteGraph) -> SimpleGraph:
    """Square of a bipartite graph on the global order A0.., B0..

    Same-side vertices become adjacent when they share a neighbor; cross
    pairs are adjacent exactly when they are edges of ``g``.  The square
    is built on the first call for ``g`` and cached on it
    (``BipartiteGraph.square``), so later calls return the same object.
    """
    return g.square


def half_square(g: BipartiteGraph, side: str) -> SimpleGraph:
    """The square induced on one side, G^2[A] or G^2[B], re-indexed from 0:
    two vertices are adjacent iff they share a G-neighbor."""
    if side == SIDE_A:
        vertices = range(g.n_a)
    elif side == SIDE_B:
        vertices = range(g.n_a, g.n_a + g.n_b)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return induced_subgraph(square(g), vertices)[0]


def square_simple(g: SimpleGraph) -> SimpleGraph:
    """Square of a general graph: join vertices at distance one or two."""
    nbrs: list[set[int]] = [set(s) for s in g.adj]
    # the neighbours of each vertex are pairwise at distance at most two
    for around in g.adj:
        for u in around:
            nbrs[u] |= around
    for u, s in enumerate(nbrs):
        s.discard(u)
    return SimpleGraph(g.n, tuple(frozenset(s) for s in nbrs))


def complement(g: SimpleGraph) -> SimpleGraph:
    full = frozenset(range(g.n))
    return SimpleGraph(
        g.n,
        tuple((full - g.adj[v]) - {v} for v in range(g.n)),
    )


def girth(g: SimpleGraph, cap: int | float = math.inf) -> int | float:
    """Exact girth via BFS from every vertex; ``math.inf`` for forests.

    With ``cap``, the smaller of the girth and ``cap``: each BFS stops
    before a depth that could only close a cycle of length ``cap`` or
    more, so ``girth(g, 7) < 7`` asks whether the girth is below seven
    and searches to depth three from each vertex.
    """
    best: int | float = cap
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier and 2 * dist[frontier[0]] + 1 < best:
            nxt = []
            for u in frontier:
                for v in g.adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
                    elif parent[u] != v:
                        # Non-tree edge closes a cycle through the root of
                        # length at most dist[u] + dist[v] + 1.
                        cyc = dist[u] + dist[v] + 1
                        if cyc < best:
                            best = cyc
            frontier = nxt
    return best


def max_degree(g: BipartiteGraph | SimpleGraph) -> int:
    if isinstance(g, BipartiteGraph):
        degs = [len(r) for r in g.adj] + [len(r) for r in g.b_adj]
        return max(degs, default=0)
    return max((len(s) for s in g.adj), default=0)


def induced_subgraph(g: SimpleGraph,
                     vertices: Iterable[int]) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Induced subgraph plus the mapping new index -> original label."""
    keep = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(keep)}
    adj = tuple(
        frozenset(pos[w] for w in g.adj[v] if w in pos) for v in keep
    )
    return SimpleGraph(len(keep), adj), tuple(keep)


# ---------------------------------------------------------------------------
# Text interchange format


def write_bipartite_text(g: BipartiteGraph) -> str:
    lines = [f"p bip {g.n_a} {g.n_b} {g.m}"]
    lines.extend(f"e {a} {b}" for a, b in g.edges())
    return "\n".join(lines) + "\n"


def write_simple_text(g: SimpleGraph) -> str:
    lines = [f"p gen {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# The only integer form the format has.  ``int()`` also reads "+1", "1_0"
# and non-ASCII digits, but not from ASCII text without "+" or "_": there
# it accepts exactly the split tokens this matches.
_INTEGER = re.compile(r"-?[0-9]+")


# The largest vertex count a problem line may give one side of a ``p bip``
# graph, or a ``p gen`` graph.
MAX_VERTICES = 1 << 24


def _decimal(token: str) -> int:
    """``int(token)`` for a token of the documented form, else ValueError."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def _parse_graph_lines(text: str) -> tuple[str, list[int], list[tuple[int, int]]]:
    header: tuple[str, list[int]] | None = None
    edges: list[tuple[int, int]] = []
    # becomes int at the problem line if no text from there on holds what
    # int() reads beyond the format; every edge line comes after it
    to_int = _decimal
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        head = parts[0]
        if head == "e":
            if header is None:
                raise ValueError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                edges.append((to_int(parts[1]), to_int(parts[2])))
            except ValueError:
                raise ValueError(f"line {lineno}: edge endpoints must be "
                                 f"decimal integers, got 'e {parts[1]} "
                                 f"{parts[2]}'") from None
        elif head[0] == "c":
            continue
        elif head == "p":
            if header is not None:
                raise ValueError(f"line {lineno}: repeated problem line")
            if len(parts) < 2 or parts[1] not in ("bip", "gen"):
                raise ValueError(f"line {lineno}: expected 'p bip' or 'p gen'")
            # the first occurrence of this line is at or before it
            rest = text[text.find(line):]
            if rest.isascii() and "+" not in rest and "_" not in rest:
                to_int = int
            try:
                header = (parts[1], [to_int(x) for x in parts[2:]])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad problem line") from exc
            for n in header[1][:_HEADERS[parts[1]][1] - 1]:
                if n > MAX_VERTICES:
                    raise ValueError(f"line {lineno}: vertex count {n} "
                                     f"exceeds the limit {MAX_VERTICES}")
        else:
            raise ValueError(f"line {lineno}: unknown record {head!r}")
    if header is None:
        raise ValueError("missing problem line")
    return header[0], header[1], edges


# problem line kind -> (its documented form, the number of sizes it holds)
_HEADERS = {"bip": ("p bip <n_a> <n_b> <m>", 3), "gen": ("p gen <n> <m>", 2)}


def _build_graph(want: str, kind: str, sizes: list[int],
                 edges: list[tuple[int, int]]) -> BipartiteGraph | SimpleGraph:
    """The graph of a parsed file whose problem line must read ``want``."""
    form, count = _HEADERS[want]
    if kind != want or len(sizes) != count:
        raise ValueError(f"expected header '{form}'")
    *dims, m = sizes
    if m != len(edges):
        raise ValueError(f"problem line says m = {m}, "
                         f"but the file has {len(edges)} 'e' lines")
    # an endpoint out of range is bad input here, not a caller's slip
    try:
        if want == "bip":
            return build_bipartite(*dims, edges)
        return SimpleGraph.from_edges(*dims, edges)
    except IndexError as exc:
        raise ValueError(str(exc)) from exc


# The comment lines and the problem line of a ``p bip`` file in canonical
# form.  A comment holds none of the line breaks ``str.splitlines`` knows
# besides "\n", so both readers see the same lines.
_CANONICAL_HEAD = re.compile(
    "(?:c[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*\n)*"
    "p bip ([0-9]+) ([0-9]+) ([0-9]+)\n")
_NO_DIGITS = dict.fromkeys(map(ord, "0123456789"))


# The edge lines of a canonical text are screened, split and converted
# this many characters at a time, cut after a line break.
_CHUNK = 1 << 18


def _edge_chunks(text: str, start: int
                 ) -> Iterator[tuple[list[str], list[str]] | None]:
    """The A- and B-tokens of the edge lines of ``text`` from ``start`` on,
    chunk by chunk; None last if a chunk is not lines "e <a> <b>\\n" of
    ASCII decimals."""
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        chunk = text[start:end]
        start = end
        tokens = chunk.split()
        n = len(tokens) // 3
        # Without its ASCII digits the chunk is n lines "e  " and nothing
        # else, and 3n tokens every third of which is "e" leave two digit
        # runs after each "e", none empty and none touching it, if no
        # digits follow the last line break to stand in for an empty run.
        if (len(tokens) != 3 * n or tokens[0::3].count("e") != n
                or chunk.translate(_NO_DIGITS) != "e  \n" * n
                or chunk[-1] != "\n"):
            yield None
            return
        yield tokens[1::3], tokens[2::3]


# A chunk whose rows hold this many edge lines or more on average is read
# row by row, each row tested as a run of labels; a chunk of shorter rows
# converts and checks every B-token.
_RUN_ROWS = 4


def _converted(tokens: list[str], table: dict[str, int],
               n_b: int) -> tuple[int, ...] | None:
    """The B-tokens as ints, by ``table`` or by ``int()`` where it misses;
    None if one is n_b or more."""
    try:
        return tuple(map(table.__getitem__, tokens))
    except KeyError:
        values = tuple(map(int, tokens))
        return None if max(values) >= n_b else values


def _read_canonical_bipartite(text: str) -> BipartiteGraph | None:
    """The graph of a ``p bip`` text in canonical form, read in bulk; None
    for any other text, and for every text the line reader would reject.

    The edge lines are read in chunks of about ``_CHUNK`` characters
    (``_edge_chunks``), so their tokens and the copies that screen them
    exist for one chunk at a time.  Beyond the graph it returns, the read
    holds one chunk's worth of those, the list of rows and a ``str -> int``
    table for the B-tokens whose size is bounded by the input; ``int()``
    reads a token the table misses (a leading zero, or more B-vertices
    than tokens).  A row ends where the A-token changes, so only the first
    A-token of each row is converted.

    A chunk is read one of two ways, chosen by its mean row length.  Rows
    of ``_RUN_ROWS`` labels or more on average are read row by row: a row
    whose B-tokens equal the table's own decimal strings ``names[lo:lo +
    k]``, for lo the table's value of its first token, is the run lo ..
    lo + k - 1 (one list comparison, and one slice of the table's values),
    with no ``int`` per token and no order check per edge; any other row
    is converted and checked on its own.  Shorter rows cost more per row
    that way than the per-edge work they save, so a chunk of them
    converts all its B-tokens at once and checks that B rises along each
    row edge by edge.  Both ways cost O(1) per label and O(1) per row.
    The run test trades a conversion and two comparisons per label for
    one string comparison per label and a few slices per row.  Timed on
    CPython 3.11 over 2000 rows, it breaks even near four labels a row
    and reads rows of 30 labels about a fifth faster than conversion,
    while rows of one or two labels read that way take a third or more
    longer; so short rows keep the per-edge way.
    """
    head = _CANONICAL_HEAD.match(text)
    if head is None:
        return None
    n_a, n_b, m = map(int, head.groups())
    start = head.end()
    # each edge line "e <a> <b>\n" takes at least six characters, so this
    # bounds the table by the input
    if max(n_a, n_b) > MAX_VERTICES or 6 * m > len(text) - start:
        return None
    k = min(n_b, 3 * m)
    table = dict(zip(map(str, range(k)), range(k)))
    names: list[str] = []  # the table's keys and values, once a chunk
    ints: tuple[int, ...] = ()  # of long rows needs them
    rows: list[tuple[int, ...]] = [()] * n_a
    # the row read last may go on in the next chunk: its A-token and vertex
    last, a = "", -1
    lines = 0
    for chunk in _edge_chunks(text, start):
        if chunk is None:
            return None
        a_tokens, b_tokens = chunk
        n = len(a_tokens)
        lines += n
        # True where a row ends
        ends = [*map(ne, a_tokens, islice(a_tokens, 1, None)), True]
        runs = n >= _RUN_ROWS * ends.count(True)
        if runs:
            if not names:
                names, ints = list(table), tuple(table.values())
        else:
            b_list = _converted(b_tokens, table, n_b)
            # B rises along each row: sorted by (a, b), no edge repeated
            if b_list is None or not all(map(
                    or_, ends, map(lt, b_list, islice(b_list, 1, None)))):
                return None
        s = 0
        while s < n:
            e = ends.index(True, s) + 1
            if runs:
                part = b_tokens[s:e]
                lo = table.get(part[0], k)  # a miss gives an empty slice
                if part == names[lo:lo + e - s]:
                    row = ints[lo:lo + e - s]
                else:
                    row = _converted(part, table, n_b)
                    if row is None or not all(map(
                            lt, row, islice(row, 1, None))):
                        return None
            else:
                row = b_list[s:e]
            if not s and a_tokens[0] == last:  # the open row goes on
                if rows[a][-1] >= row[0]:
                    return None
                rows[a] += row
            else:
                h = int(a_tokens[s])
                if not a < h < n_a:
                    return None  # rows out of order, or out of range
                rows[h], a = row, h
            s = e
        last = a_tokens[-1]
    if lines != m:
        return None
    return BipartiteGraph(n_a, n_b, tuple(rows))


def read_graph_text(text: str) -> BipartiteGraph | SimpleGraph:
    """Read either format: ``p bip`` gives a BipartiteGraph, ``p gen`` a
    SimpleGraph."""
    g = _read_canonical_bipartite(text)
    if g is not None:
        return g
    kind, sizes, edges = _parse_graph_lines(text)
    return _build_graph(kind, kind, sizes, edges)


def read_bipartite_text(text: str) -> BipartiteGraph:
    g = _read_canonical_bipartite(text)
    if g is not None:
        return g
    return _build_graph("bip", *_parse_graph_lines(text))


def read_simple_text(text: str) -> SimpleGraph:
    return _build_graph("gen", *_parse_graph_lines(text))

