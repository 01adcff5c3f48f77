"""Independent brute-force oracles used to validate the package's algorithms.

Everything here is deliberately naive (factorial / exponential) and kept
free of the code paths it checks.
"""

from __future__ import annotations

from itertools import combinations, permutations

from sqchroma.core import BipartiteGraph, SimpleGraph


def brute_force_c1p(n_cols: int, rows) -> list[int] | None:
    """Try every column order; return the first making all rows consecutive."""
    rowsets = [frozenset(r) for r in rows]
    for perm in permutations(range(n_cols)):
        pos = {c: i for i, c in enumerate(perm)}
        ok = True
        for r in rowsets:
            ps = sorted(pos[c] for c in r)
            if ps and ps[-1] - ps[0] + 1 != len(ps):
                ok = False
                break
        if ok:
            return list(perm)
    return None


def naive_girth(g: SimpleGraph) -> float:
    """Shortest cycle by DFS enumeration of simple paths from each vertex."""
    best = float("inf")

    def extend(path: list[int], on_path: set[int]):
        nonlocal best
        last = path[-1]
        for w in sorted(g.adj[last]):
            if w == path[0] and len(path) >= 3:
                best = min(best, len(path))
            elif w not in on_path and w > path[0] and len(path) < best:
                path.append(w)
                on_path.add(w)
                extend(path, on_path)
                on_path.remove(w)
                path.pop()

    for s in range(g.n):
        extend([s], {s})
    return best


def naive_induced_cycles(g: SimpleGraph, min_len: int, max_len: int):
    """All induced cycles via subset enumeration, canonically rotated."""
    out = set()
    for k in range(min_len, min(max_len, g.n) + 1):
        for subset in combinations(range(g.n), k):
            sub = set(subset)
            degs = [len(g.adj[v] & sub) for v in subset]
            if any(d != 2 for d in degs):
                continue
            # connected 2-regular on k vertices == a single induced k-cycle
            order = [subset[0]]
            seen = {subset[0]}
            while len(order) < k:
                nxt = [w for w in g.adj[order[-1]] & sub if w not in seen]
                if not nxt:
                    break
                order.append(nxt[0])
                seen.add(nxt[0])
            if len(order) == k and order[0] in g.adj[order[-1]]:
                out.add(canonical_cycle(order))
    return sorted(out)


def canonical_cycle(cyc) -> tuple[int, ...]:
    """Lexicographically least rotation/reflection of a cycle sequence."""
    cyc = list(cyc)
    k = len(cyc)
    best = None
    for seq in (cyc, cyc[::-1]):
        for s in range(k):
            rot = tuple(seq[(s + i) % k] for i in range(k))
            if best is None or rot < best:
                best = rot
    return best


def naive_max_clique(g: SimpleGraph) -> int:
    best = 1 if g.n else 0
    for k in range(g.n, best, -1):
        for subset in combinations(range(g.n), k):
            if all(v in g.adj[u] for u, v in combinations(subset, 2)):
                return k
    return best


def naive_chromatic(g: SimpleGraph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if _colorable(g, k):
            return k
    raise AssertionError("unreachable")


def _colorable(g: SimpleGraph, k: int) -> bool:
    colors: dict[int, int] = {}

    def rec(v: int) -> bool:
        if v == g.n:
            return True
        used = {colors[w] for w in g.adj[v] if w in colors}
        for c in range(min(k, v + 1)):  # symmetry break: color <= index
            if c not in used:
                colors[v] = c
                if rec(v + 1):
                    return True
                del colors[v]
        return False

    return rec(0)


def maximal_cliques(g: SimpleGraph):
    """Bron-Kerbosch without pivoting; fine for the small test graphs."""
    out: list[frozenset[int]] = []

    def bk(r: set[int], p: set[int], x: set[int]):
        if not p and not x:
            out.append(frozenset(r))
            return
        for v in sorted(p):
            bk(r | {v}, p & g.adj[v], x & g.adj[v])
            p.remove(v)
            x.add(v)

    bk(set(), set(range(g.n)), set())
    return out


def random_bipartite(rng, n_a: int, n_b: int, p: float) -> BipartiteGraph:
    from sqchroma.core import build_bipartite

    edges = [
        (a, b)
        for a in range(n_a)
        for b in range(n_b)
        if rng.random() < p
    ]
    return build_bipartite(n_a, n_b, edges)


def is_proper(g: SimpleGraph, colors: dict[int, int]) -> bool:
    return all(colors[u] != colors[v] for u, v in g.edges())


def quadratic_interval_coloring(intervals) -> dict[int, int]:
    """Greedy interval coloring by rescanning every colored interval: left
    endpoint order, lowest color no meeting interval holds, color 1 for
    ``None``.  The reference for the heap version in ``coloring``."""
    colors: dict[int, int] = {}
    order = sorted(
        (i for i, iv in enumerate(intervals) if iv is not None),
        key=lambda i: (intervals[i][0], intervals[i][1], i),
    )
    for i in order:
        li, ri = intervals[i]
        used = {
            colors[j]
            for j in colors
            if intervals[j][0] <= ri and li <= intervals[j][1]
        }
        c = 1
        while c in used:
            c += 1
        colors[i] = c
    for i, iv in enumerate(intervals):
        if iv is None:
            colors[i] = 1
    return colors
