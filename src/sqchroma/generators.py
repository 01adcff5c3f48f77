"""Deterministic constructions: named example graphs, seeded random convex
and biconvex families, the lower-bound family, and girth-7 graphs.

All randomness flows through SplitMix64 (see ``rng``), so a (family,
parameters, seed) triple pins the output bit for bit.

The lower-bound family H(q) consists of five groups Q1..Q5 of q vertices
each plus three hubs z1, z2, z3.  Sides and edges:

    A = Q1 | Q5 | Q4 | {z1}          B = Q2 | {z2, z3} | Q3
    z1 - all of B                    Q1 - Q2 complete, Q1 - z2
    Q5 - z2, Q5 - z3                 Q4 - z3, Q4 - Q3 complete

Under the B-order Q2 < z2 < z3 < Q3 every A-neighborhood is consecutive,
so H(q) is convex by construction.  B together with z1 is a clique of
size 2q + 3 in the square, the five groups induce the blow-up of a
5-cycle, and for even q the square needs exactly 5q/2 + 2 colors, which
pushes the chromatic number above 5/4 of the clique number.
"""

from __future__ import annotations

from .convexity import ConvexLayout, layout_from_order
from .core import BipartiteGraph, SimpleGraph, build_bipartite, girth
from .errors import RetryExhausted
from .rng import SplitMix64

NAMED_GRAPHS = ("not_perfect", "antihole", "biconvex", "convex_c4free", "complete")


def gen_named(name: str, size: int | None = None) -> BipartiteGraph:
    """One of the worked example graphs, transcribed edge by edge.

    ``complete`` takes the side size as ``size``; the other names take no
    parameter.  Unknown names raise ValueError.
    """
    if name == "not_perfect":
        # A = [a, v1, v2, v3], B = [v5, b1, b2, v4]
        return build_bipartite(4, 4, [
            (0, 0), (0, 1), (0, 2), (0, 3),
            (1, 0), (1, 1),
            (2, 1), (2, 2),
            (3, 2), (3, 3),
        ])
    if name == "antihole":
        # A = [a1..a4], B = [b1..b4]; square has an even 6-antihole
        return build_bipartite(4, 4, [
            (0, 1), (0, 2), (0, 3),
            (1, 0), (1, 2),
            (2, 0), (2, 3),
            (3, 0), (3, 1),
        ])
    if name == "biconvex":
        # A = [v1, a, v2], B = [v4, b, v3]
        return build_bipartite(3, 3, [
            (0, 0), (0, 1),
            (1, 0), (1, 1), (1, 2),
            (2, 1), (2, 2),
        ])
    if name == "convex_c4free":
        # A = [a, a1, a2, a3], B = [b1, b2, b3]
        return build_bipartite(4, 3, [
            (0, 0), (0, 1), (0, 2),
            (1, 0), (2, 1), (3, 2),
        ])
    if name == "complete":
        if size is None or size < 1:
            raise ValueError("complete requires a side size >= 1")
        return build_bipartite(size, size, [
            (a, b) for a in range(size) for b in range(size)
        ])
    raise ValueError(f"unknown graph name {name!r}; known: {NAMED_GRAPHS}")


def gen_random_convex(n_a: int, n_b: int, max_interval_len: int,
                      seed: int) -> BipartiteGraph:
    """Random convex instance: every A-vertex gets a uniform interval of
    length 1..max_interval_len over the B positions (convexity holds by
    construction, with the identity B-order)."""
    if n_b < 1:
        raise ValueError("n_b must be at least 1")
    if max_interval_len < 1:
        raise ValueError("max_interval_len must be at least 1")
    rng = SplitMix64(seed)
    edges = []
    for a in range(n_a):
        length = rng.randint(1, min(max_interval_len, n_b))
        left = rng.randint(0, n_b - length)
        edges.extend((a, b) for b in range(left, left + length))
    return build_bipartite(n_a, n_b, edges)


def gen_random_biconvex(n_a: int, n_b: int, seed: int) -> BipartiteGraph:
    """Random biconvex instance via a monotone staircase.

    Interval left and right endpoints are both non-decreasing along A, so
    each B-column's support is a prefix intersected with a suffix of the
    rows, i.e. consecutive: both orientations of the consecutive property
    hold at once.
    """
    if n_a < 1 or n_b < 1:
        raise ValueError("both sides must be non-empty")
    rng = SplitMix64(seed)
    lefts = sorted(rng.randint(0, n_b - 1) for _ in range(n_a))
    edges = []
    prev_right = 0
    for a in range(n_a):
        right = max(rng.randint(lefts[a], n_b - 1), prev_right, lefts[a])
        prev_right = right
        edges.extend((a, b) for b in range(lefts[a], right + 1))
    return build_bipartite(n_a, n_b, edges)


def gen_lower_bound_H(q: int) -> BipartiteGraph:
    """The lower-bound family H(q); see the module docstring.

    Only even q >= 2 is accepted: the closed form 5q/2 + 2 for the
    chromatic number of the square presumes the even blow-up.
    """
    if q < 2 or q % 2 != 0:
        raise ValueError("q must be an even integer >= 2")
    # A-side indices: Q1 = 0..q-1, Q5 = q..2q-1, Q4 = 2q..3q-1, z1 = 3q
    # B-side positions: Q2 = 0..q-1, z2 = q, z3 = q+1, Q3 = q+2..2q+1
    q1 = range(0, q)
    q5 = range(q, 2 * q)
    q4 = range(2 * q, 3 * q)
    z1 = 3 * q
    b_q2 = range(0, q)
    b_z2, b_z3 = q, q + 1
    b_q3 = range(q + 2, 2 * q + 2)
    edges = [(z1, b) for b in range(2 * q + 2)]
    edges += [(a, b) for a in q1 for b in b_q2]
    edges += [(a, b_z2) for a in q1]
    edges += [(a, b_z2) for a in q5]
    edges += [(a, b_z3) for a in q5]
    edges += [(a, b_z3) for a in q4]
    edges += [(a, b) for a in q4 for b in b_q3]
    return build_bipartite(3 * q + 1, 2 * q + 2, edges)


def lower_bound_layout(g: BipartiteGraph) -> ConvexLayout:
    """Layout of gen_lower_bound_H under its construction order."""
    return layout_from_order(g, list(range(g.n_b)))


def gen_girth7(kind: str, params: dict, seed: int = 0) -> SimpleGraph:
    """High-girth general graphs for the clique-degree lemma.

    kinds: ``long_cycle`` (params: n >= 7), ``tree`` (params: branching,
    depth), ``subdivided_random`` (params: n, p; every edge of a random
    graph is subdivided twice, tripling the girth to at least 9).
    The girth is re-verified after construction.
    """
    if kind == "long_cycle":
        n = params["n"]
        if n < 7:
            raise ValueError("long_cycle needs n >= 7")
        g = SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    elif kind == "tree":
        branching, depth = params["branching"], params["depth"]
        if branching < 1 or depth < 1:
            raise ValueError("tree needs branching >= 1 and depth >= 1")
        edges = []
        nodes = [0]
        next_id = 1
        for _ in range(depth):
            frontier = []
            for u in nodes:
                for _ in range(branching):
                    edges.append((u, next_id))
                    frontier.append(next_id)
                    next_id += 1
            nodes = frontier
        g = SimpleGraph.from_edges(next_id, edges)
    elif kind == "subdivided_random":
        n, p = params["n"], params["p"]
        rng = SplitMix64(seed)
        for _attempt in range(64):
            base = [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < p
            ]
            if base:
                break
        else:
            raise RetryExhausted("random graph stayed edgeless")
        edges = []
        next_id = n
        for u, v in base:  # u - x - y - v
            edges += [(u, next_id), (next_id, next_id + 1), (next_id + 1, v)]
            next_id += 2
        g = SimpleGraph.from_edges(next_id, edges)
    else:
        raise ValueError(f"unknown girth7 kind {kind!r}")
    if girth(g) < 7:
        raise RetryExhausted(f"{kind} output has girth below 7")
    return g

