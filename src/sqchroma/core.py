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
edges between vertices with a common neighbor.  ``square(g)`` builds the
square once per graph and caches it on the frozen ``BipartiteGraph``, as
``b_adj`` is cached, so the structure checkers and oracles can ask for it
per cycle without rebuilding it.  The coloring pipeline never asks.

The module also owns the text interchange format used by the CLI:
``p bip <n_a> <n_b> <m>`` followed by ``m`` lines ``e <a> <b>`` (0-based)
for bipartite graphs, and ``p gen <n> <m>`` with ``e <u> <v>`` lines for
general graphs.  Lines starting with ``c`` are comments.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

SIDE_A = "A"
SIDE_B = "B"


@dataclass(frozen=True)
class VertexRef:
    """Uniform address of a vertex of a bipartite graph or its square."""

    side: str
    index: int

    def __post_init__(self):
        if self.side not in (SIDE_A, SIDE_B):
            raise ValueError(f"side must be 'A' or 'B', got {self.side!r}")
        if self.index < 0:
            raise IndexError(f"negative vertex index {self.index}")

    def to_global(self, n_a: int) -> int:
        return self.index if self.side == SIDE_A else n_a + self.index

    @classmethod
    def from_global(cls, v: int, n_a: int) -> "VertexRef":
        if v < n_a:
            return cls(SIDE_A, v)
        return cls(SIDE_B, v - n_a)

    def __str__(self) -> str:
        return f"{self.side}{self.index}"


def vertex_names(n_a: int, n_b: int) -> list[str]:
    """Names of the vertices on the global order: A0.., then B0.. ."""
    return ([f"{SIDE_A}{i}" for i in range(n_a)]
            + [f"{SIDE_B}{j}" for j in range(n_b)])


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

    @cached_property
    def square(self) -> "SimpleGraph":
        """The square on the global order A0.., B0..; read it through
        ``core.square(g)``.  Built once per graph: the graph is frozen."""
        n_a = self.n_a
        nbrs: list[set[int]] = [set() for _ in range(n_a + self.n_b)]
        for a, row in enumerate(self.adj):
            for b in row:
                nbrs[a].add(n_a + b)
                nbrs[n_a + b].add(a)
        # A-A edges: A-neighborhood of each b is a clique; likewise B-B via each a.
        for bs in self.adj:
            for i, b1 in enumerate(bs):
                for b2 in bs[i + 1:]:
                    nbrs[n_a + b1].add(n_a + b2)
                    nbrs[n_a + b2].add(n_a + b1)
        for as_ in self.b_adj:
            for i, a1 in enumerate(as_):
                for a2 in as_[i + 1:]:
                    nbrs[a1].add(a2)
                    nbrs[a2].add(a1)
        return SimpleGraph(n_a + self.n_b, tuple(frozenset(s) for s in nbrs))

    @property
    def m(self) -> int:
        return sum(len(row) for row in self.adj)

    def degree(self, ref: VertexRef) -> int:
        if ref.side == SIDE_A:
            return len(self.adj[ref.index])
        return len(self.b_adj[ref.index])

    def edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a, row in enumerate(self.adj) for b in row]


@dataclass(frozen=True)
class SimpleGraph:
    """Simple undirected graph: symmetric, irreflexive neighbor sets."""

    n: int
    adj: tuple[frozenset[int], ...]

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
    """Graph on one side; two vertices adjacent iff they share a G-neighbor."""
    if side == SIDE_A:
        n, hyper = g.n_a, g.b_adj
    elif side == SIDE_B:
        n, hyper = g.n_b, g.adj
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for members in hyper:
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                nbrs[u].add(v)
                nbrs[v].add(u)
    return SimpleGraph(n, tuple(frozenset(s) for s in nbrs))


def square_simple(g: SimpleGraph) -> SimpleGraph:
    """Square of a general graph: join vertices at distance one or two."""
    nbrs: list[set[int]] = [set(s) for s in g.adj]
    for w in range(g.n):
        around = sorted(g.adj[w])
        for i, u in enumerate(around):
            for v in around[i + 1:]:
                nbrs[u].add(v)
                nbrs[v].add(u)
    return SimpleGraph(g.n, tuple(frozenset(s) for s in nbrs))


def complement(g: SimpleGraph) -> SimpleGraph:
    full = frozenset(range(g.n))
    return SimpleGraph(
        g.n,
        tuple((full - g.adj[v]) - {v} for v in range(g.n)),
    )


def girth(g: SimpleGraph) -> int | float:
    """Exact girth via BFS from every vertex; ``math.inf`` for forests."""
    best: int | float = math.inf
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


def read_graph_text(text: str) -> BipartiteGraph | SimpleGraph:
    """Read either format: ``p bip`` gives a BipartiteGraph, ``p gen`` a
    SimpleGraph."""
    kind, sizes, edges = _parse_graph_lines(text)
    return _build_graph(kind, kind, sizes, edges)


def read_bipartite_text(text: str) -> BipartiteGraph:
    return _build_graph("bip", *_parse_graph_lines(text))


def read_simple_text(text: str) -> SimpleGraph:
    return _build_graph("gen", *_parse_graph_lines(text))


def relabel_b(g: BipartiteGraph, perm: Sequence[int]) -> BipartiteGraph:
    """Rename B-vertices: vertex ``b`` becomes ``perm[b]``.  Test utility for
    checking that squaring commutes with relabeling."""
    if sorted(perm) != list(range(g.n_b)):
        raise ValueError("perm is not a permutation of the B side")
    return build_bipartite(
        g.n_a, g.n_b,
        [(a, perm[b]) for a, b in g.edges()],
    )
