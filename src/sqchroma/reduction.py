"""Vertex-splitting reduction from general graphs to bipartite graphs.

Splitting every vertex u of a graph G into an A-copy u' and a B-copy u''
with edges u'v'' whenever u = v or uv is an edge of G yields a bipartite
graph whose half squares are both isomorphic to G^2, via the copy maps
themselves.  The checks here verify that isomorphism by direct adjacency
comparison through the maps (never by isomorphism search), the clique
and chromatic sandwich between G^2 and the square of the split graph,
and the girth-based identity omega(G^2) = max degree + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BipartiteGraph, SimpleGraph, girth, half_square, max_degree, square, square_simple
from .oracle import exact_clique, exact_stats


@dataclass(frozen=True)
class SplitMap:
    """Bijections from V(G) onto the two sides of the split graph.

    Copies inherit the original index on both sides, so the maps are
    identities; the type records the correspondence explicitly for the
    isomorphism checks.
    """

    to_prime: tuple[int, ...]
    to_double_prime: tuple[int, ...]


def split_reduction(g: SimpleGraph) -> tuple[BipartiteGraph, SplitMap]:
    """The split graph of ``g``: u' adjacent to v'' iff u = v or uv edge."""
    b_g = BipartiteGraph(
        n_a=g.n,
        n_b=g.n,
        adj=tuple(tuple(sorted({u} | g.adj[u])) for u in range(g.n)),
    )
    ident = tuple(range(g.n))
    return b_g, SplitMap(to_prime=ident, to_double_prime=ident)


def check_halfsquare_iso(g: SimpleGraph, b_g: BipartiteGraph,
                         split_map: SplitMap) -> bool:
    """Both half squares of the split graph equal G^2 through the copy
    maps: uv in E(G^2) iff u'v' in the A half square iff u''v'' in the B
    half square."""
    g2 = square_simple(g)
    ha = half_square(b_g, "A")
    hb = half_square(b_g, "B")
    prime, dprime = split_map.to_prime, split_map.to_double_prime
    for u in range(g.n):
        for v in range(u + 1, g.n):
            want = g2.has_edge(u, v)
            if ha.has_edge(prime[u], prime[v]) != want:
                return False
            if hb.has_edge(dprime[u], dprime[v]) != want:
                return False
    return True


def check_sandwich(g: SimpleGraph, b_g: BipartiteGraph,
                   budget: int | None = None) -> bool:
    """omega(G^2) <= omega(B_G^2) <= 2 omega(G^2), and the same chain for
    the chromatic numbers, with oracle-exact values.  ``budget`` bounds
    the search on each square."""
    s = exact_stats(square_simple(g), budget)
    bg = exact_stats(square(b_g), budget)
    return (s.omega <= bg.omega <= 2 * s.omega
            and s.chi <= bg.chi <= 2 * s.chi)


def check_omega_delta_girth(g: SimpleGraph, budget: int | None = None) -> bool:
    """For girth >= 7 and max degree >= 2: omega(G^2) = max degree + 1."""
    delta = max_degree(g)
    if girth(g, 7) < 7:
        raise ValueError("precondition failed: girth below seven")
    if delta < 2:
        raise ValueError("precondition failed: max degree below two")
    return exact_clique(square_simple(g), budget) == delta + 1


def has_split_matching(b_g: BipartiteGraph, split_map: SplitMap) -> bool:
    """The u = v edges of the reduction form a perfect matching."""
    return all(
        split_map.to_double_prime[u] in b_g.adj[split_map.to_prime[u]]
        for u in range(b_g.n_a)
    )
