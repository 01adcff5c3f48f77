"""Independent brute-force oracles used to validate the package's algorithms.

Everything here is deliberately naive (factorial / exponential) and kept
free of the code paths it checks.
"""

from __future__ import annotations

import sys
from bisect import bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, groupby, permutations
from operator import itemgetter, sub
from typing import Sequence
from unittest import mock

from sqchroma import coloring
from sqchroma.coloring import (
    Coloring,
    ExtensionState,
    greedy_interval_coloring,
    verify_square_coloring,
)
from sqchroma.convexity import ConvexLayout, _Cells
from sqchroma.core import (
    SIDE_A,
    SIDE_B,
    BipartiteGraph,
    SimpleGraph,
    build_bipartite,
    square,
)
from sqchroma.errors import AlgorithmInvariantViolation, BudgetExceeded
from sqchroma.oracle import (
    ExactStats,
    _Counter,
    _max_clique,
    greedy_clique,
)
from sqchroma.structure import (
    StructureReport,
    _check_induced_cycle,
    _verify_p2_p3,
    is_AB_path,
)


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


def relabel_b(g: BipartiteGraph, perm: Sequence[int]) -> BipartiteGraph:
    """Rename B-vertices: vertex ``b`` becomes ``perm[b]``, for checking
    that squaring commutes with relabeling."""
    if sorted(perm) != list(range(g.n_b)):
        raise ValueError("perm is not a permutation of the B side")
    return build_bipartite(
        g.n_a, g.n_b,
        [(a, perm[b]) for a, b in g.edges()],
    )


def distance_two_pairs(n: int, edges) -> set[tuple[int, int]]:
    """Pairs ``(u, v)``, ``u < v``, at distance one or two in the graph on
    ``range(n)`` with ``edges``: each pair and each middle vertex tried."""
    edge_set = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    return {(u, v) for u, v in combinations(range(n), 2)
            if (u, v) in edge_set
            or any((u, w) in edge_set and (w, v) in edge_set
                   for w in range(n))}


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


def walk_induced_cycles(h: SimpleGraph, min_len: int, max_len: int):
    """Induced cycles by a DFS over sorted neighbour sets that extends
    every induced path, with no prune: the reference for the bitmask
    ``oracle.iter_induced_cycles``, which must yield the same cycles in
    the same order.  Cubic on a long cycle."""
    if max_len < max(min_len, 3):
        return
    adj = h.adj
    for s in range(h.n):
        path = [s]
        on_path = {s}
        # one sorted-neighbor iterator per path vertex; the last one is
        # the vertex being extended, and exhausting it backtracks
        frames = [iter(sorted(adj[s]))]
        while frames:
            inner = path[1:-1]
            for w in frames[-1]:
                if w <= s or w in on_path:
                    continue
                # chordlessness: w may touch only the path's last vertex,
                # except for the anchor when closing the cycle
                if not adj[w].isdisjoint(inner):
                    continue
                if len(path) >= 2 and s in adj[w]:
                    length = len(path) + 1
                    if length >= min_len and path[1] < w:
                        yield tuple(path) + (w,)
                    continue  # any extension past w would leave a chord to s
                if len(path) + 1 < max_len:
                    path.append(w)
                    on_path.add(w)
                    frames.append(iter(sorted(adj[w])))
                    break
            else:
                frames.pop()
                on_path.remove(path.pop())


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
    ``None``.  The reference for ``coloring.greedy_interval_coloring``."""
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


def stack_depth() -> int:
    """Frames on the calling thread's stack, the caller's included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def quadratic_dsatur_greedy(g: SimpleGraph) -> dict[int, int]:
    """Greedy coloring in saturation order, rescanning every uncolored
    vertex for the maximum ``(len(sat), degree, -u)`` at each step: the
    reference for the heap version in ``oracle``."""
    colors: dict[int, int] = {}
    sat: list[set[int]] = [set() for _ in range(g.n)]
    for _ in range(g.n):
        v = max(
            (u for u in range(g.n) if u not in colors),
            key=lambda u: (len(sat[u]), len(g.adj[u]), -u),
        )
        c = 1
        while c in sat[v]:
            c += 1
        colors[v] = c
        for w in g.adj[v]:
            sat[w].add(c)
    return colors


def set_greedy_clique(g: SimpleGraph) -> list[int]:
    """Maximal clique grown greedily from every vertex in degree order, on
    neighbor sets: the next vertex is the candidate with the most
    neighbors among the candidates, the lowest index on ties.  The
    reference for ``oracle.greedy_clique``, which grows on bitmasks and
    stops at the degree bound."""
    best: list[int] = []
    for start in sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v)):
        clique = [start]
        cands = set(g.adj[start])
        while cands:
            v = min(cands, key=lambda u: (-len(g.adj[u] & cands), u))
            clique.append(v)
            cands &= g.adj[v]
        if len(clique) > len(best):
            best = clique
    return best


def recursive_chromatic(g: SimpleGraph, omega: int, counter: _Counter,
                        clique: list[int]) -> int:
    """The saturation-order branch and bound as one recursive call per
    node, on per-vertex saturation sets: the reference for the stack-based
    ``oracle._chromatic``, which must walk the same tree.  ``clique`` is
    ``greedy_clique(g)``; its vertices are pre-colored."""
    if g.m == 0:
        return 1 if g.n else 0
    lower = max(omega, len(clique))
    greedy = quadratic_dsatur_greedy(g)
    best = max(greedy.values())
    if lower >= best:
        return best

    sat: list[set[int]] = [set() for _ in range(g.n)]
    for c, v in enumerate(clique, start=1):
        for w in g.adj[v]:
            sat[w].add(c)
    precolored = set(clique)
    uncolored = [v for v in range(g.n) if v not in precolored]

    def rec(used: int) -> None:
        nonlocal best
        if not counter.tick():
            raise BudgetExceeded(
                "chromatic search exceeded its node budget",
                lower=lower, upper=best, nodes=counter.nodes,
            )
        if not uncolored:
            if used < best:
                best = used
            return
        v = max(uncolored, key=lambda u: (len(sat[u]), len(g.adj[u]), -u))
        uncolored.remove(v)
        cap = min(best - 1, used + 1)
        for c in range(1, cap + 1):
            if c in sat[v]:
                continue
            touched = [w for w in g.adj[v] if c not in sat[w]]
            for w in touched:
                sat[w].add(c)
            rec(max(used, c))
            for w in touched:
                sat[w].discard(c)
            if best <= lower:
                break
        uncolored.append(v)

    rec(len(clique))
    return best


def reference_exact_stats(h: SimpleGraph, budget: int) -> ExactStats:
    """``oracle.exact_stats`` with ``recursive_chromatic`` as the chromatic
    search; the clique search and the seeds are the oracle's own."""
    if h.n == 0:
        return ExactStats(0, 0, 0)
    counter = _Counter(budget)
    clique = greedy_clique(h)
    omega = _max_clique(h, counter, len(clique))
    chi = recursive_chromatic(h, omega, counter, clique)
    return ExactStats(chi, omega, counter.nodes)


def rotation_verify_cycle_structure(g: BipartiteGraph, layout: ConvexLayout,
                                    cycle: Sequence[int]) -> StructureReport:
    """Reference for ``verify_cycle_structure``: try all 2k rotations and
    reflections of the cycle as P1 labelings and return the first that
    passes P1, P2 and P3.  It shares the per-labeling checks and differs
    only in how the labeling is chosen."""
    sq = square(g)
    _check_induced_cycle(sq, cycle)
    k = len(cycle)
    n_a = g.n_a

    rotations = []
    cyc = list(cycle)
    for start in range(k):
        rot = cyc[start:] + cyc[:start]
        rotations.append(rot)
        rotations.append([rot[0]] + rot[1:][::-1])

    for lab in rotations:
        a_path = lab[: k - 2]
        v_k1, v_k = lab[k - 2], lab[k - 1]
        if v_k < n_a or v_k1 < n_a:
            continue
        if not is_AB_path(g, layout, a_path, v_k, v_k1):
            continue
        report = _verify_p2_p3(g, layout, lab, a_path, v_k, v_k1)
        if report is not None:
            return report
    raise AlgorithmInvariantViolation(
        f"no labeling of cycle {tuple(cycle)} satisfies the structure "
        "theorem; the input should make this impossible"
    )


def quadratic_color_bound(g: SimpleGraph,
                          cands: list[int]) -> list[tuple[int, int]]:
    """The clique search's greedy bound, testing each candidate against
    every member of every earlier class: the reference for the bitmask
    version in ``oracle``."""
    classes: list[list[int]] = []
    for v in cands:
        for cls in classes:
            if all(v not in g.adj[u] for u in cls):
                cls.append(v)
                break
        else:
            classes.append([v])
    out = []
    for i, cls in enumerate(classes, start=1):
        out.extend((v, i) for v in cls)
    return out


class CountingCells(_Cells):
    """``_Cells`` whose ``place`` counts the row's columns per touched cell
    with a ``Counter`` and tests fullness by comparing counts with cell
    sizes: the reference for the set-based ``place``, which must refine
    the partition the same way."""

    def place(self, row: frozenset) -> bool:
        members, prev, nxt = self.members, self.prev, self.next
        hit = Counter(map(self.cell_of.get, row))  # cell -> columns of row
        has_new = hit.pop(None, 0) > 0
        p = q = next(iter(hit))
        while prev[p] in hit:
            p = prev[p]
        while nxt[q] in hit:
            q = nxt[q]
        run = [p]
        while run[-1] != q:
            run.append(nxt[run[-1]])
        if len(run) != len(hit):
            return False
        if any(hit[c] != len(members[c]) for c in run[1:-1]):
            return False
        full_p = hit[p] == len(members[p])
        full_q = hit[q] == len(members[q])
        if not has_new:
            if p == q:
                return full_p
            if not full_p:
                self._split(p, row, right=True)
            if not full_q:
                self._split(q, row, right=False)
            return True
        new = set(row.difference(self.cell_of))
        if q == self.tail and (p == q or full_q):
            if not full_p:
                self._split(p, row, right=True)
            self._new_cell(new, self.tail, -1)
            return True
        if p == self.head and (p == q or full_p):
            if not full_q:
                self._split(q, row, right=False)
            self._new_cell(new, -1, self.head)
            return True
        return False


def pick_highest_free(free: int) -> int | None:
    """The highest color whose bit is set in ``free``, or None."""
    return free.bit_length() - 1 if free else None


def highest_free_color():
    """Context manager under which Phase II takes the highest free color
    instead of the lowest.  The palette bound holds for any choice, and
    this order reaches the pivot steps far more often, so tests use it to
    drive them on real inputs."""
    return mock.patch.object(coloring, "_free_color", pick_highest_free)


def outer_first_nesting(width: int) -> list:
    """Rows {L-1, L} and [L, R) for L = 1, 3, 5, ... and R = width,
    width-1, ...: each two-row class lies in the big cell of the one before
    it, and starts, at its 2-element row, before the classes nested in it."""
    rows = []
    left, right = 1, width
    while right - left >= 2:
        rows += [[left - 1, left], range(left, right)]
        left, right = left + 2, right - 1
    return rows


def mirrored(width: int, rows) -> list:
    """``rows`` with each column x relabelled width-1-x.  Mirrored, the
    outer-first nesting family nests about width/3 classes whose engine
    order lists their cells backwards."""
    return [[width - 1 - x for x in row] for row in rows]


def sweep_omega(layout: ConvexLayout) -> int:
    """omega(G^2) by the interval sweep that re-filters and re-sorts the
    right ends through each left endpoint: the reference for
    ``ConvexLayout.omega``, which keeps them in one sorted list."""
    if not layout.intervals and not layout.b_pos:
        return 0
    best = 1
    rights: list[int] = []  # right endpoints of the intervals through l
    by_left = sorted(iv for iv in layout.intervals if iv is not None)
    for left, starting in groupby(by_left, key=itemgetter(0)):
        rights = [r for r in rights if r >= left] + [r for _, r in starting]
        rights.sort(reverse=True)
        best = max(best,
                   max(k + r for k, r in enumerate(rights, 1)) - left + 1)
    return best


def unpruned_omega(layout: ConvexLayout) -> int:
    """omega(G^2) by the sorted-list sweep that takes max(k + r_k) at
    every left endpoint: the reference for ``ConvexLayout.omega``, which
    skips a left endpoint whose bound cannot beat the best so far."""
    if not layout.intervals and not layout.b_pos:
        return 0
    best = 1
    nr: list[int] = []  # negated right ends of the intervals through l
    for left, starting in groupby(map(layout.intervals.__getitem__,
                                      layout.by_left), key=itemgetter(0)):
        del nr[bisect_right(nr, -left):]
        for _, r in starting:
            insort(nr, -r)
        best = max(best,
                   max(map(sub, range(1, len(nr) + 1), nr)) - left + 1)
    return best


def heap_interval_coloring(intervals) -> Coloring:
    """Greedy interval coloring with the intervals through the current
    left end in a heap by right end and the released colors in a heap of
    their own: the reference for ``coloring.greedy_interval_coloring``,
    which releases colors from buckets into a bitmask.  Same colors, in
    the same insertion order, and the same palette."""
    colors: dict[int, int] = {}
    order = sorted((*iv, i) for i, iv in enumerate(intervals)
                   if iv is not None)
    active: list[tuple[int, int]] = []  # (right end, color)
    freed: list[int] = []
    top = 0
    for li, ri, i in order:
        while active and active[0][0] < li:
            heappush(freed, heappop(active)[1])
        if freed:
            c = heappop(freed)
        else:
            top += 1
            c = top
        colors[i] = c
        heappush(active, (ri, c))
    for i, iv in enumerate(intervals):
        if iv is None:
            colors[i] = 1
    return Coloring(colors, max(colors.values(), default=0))


def per_position_bj_cliques(state: ExtensionState, omega: int) -> list[int]:
    """The clique claims position by position, each A_j read off the
    transpose ``g.b_adj``: the reference for ``coloring._assert_bj_cliques``,
    which reads the A-rows once.  Same messages, same first failing
    position, and |A_p| for every position (and 0 past the last)."""
    layout, maxright = state.layout, state._maxright
    a_at = [state.graph.b_adj[b] for b in layout.b_seq]
    for j in range(state.j, -1, -1):
        a_j, hi = a_at[j], maxright[j]
        if len(a_j) > omega - 1:
            raise AlgorithmInvariantViolation(
                f"|A_j| = {len(a_j)} exceeds omega-1 at position {j}")
        if hi > j and hi - j > omega - 2:
            raise AlgorithmInvariantViolation(
                f"|B_j| = {hi - j} exceeds omega-2 at position {j}")
        ivs = [layout.intervals[a] for a in a_j]
        if any(iv is None or not iv[0] <= j <= iv[1] for iv in ivs):
            raise AlgorithmInvariantViolation(
                f"N(b_j) side group not a clique at position {j}")
        if hi > max([j] + [r for _, r in ivs]):
            raise AlgorithmInvariantViolation(
                f"no A-neighbor covers B_j + b_j at position {j}")
    return [len(row) for row in a_at] + [0]


def set_color_square_convex(g: BipartiteGraph, layout: ConvexLayout,
                            trace: list | None = None) -> Coloring:
    """Phase II with step 1 rebuilding the colors of N(b_j) as a set at
    every position and round: the reference for the sliding window of
    ``coloring.color_square_convex``, which must give the same colors and
    trace.  The free color goes through ``coloring._free_color`` as a
    mask, so ``highest_free_color`` steers both; steps 2 and 3 are the
    module's own."""
    omega = layout.omega
    palette = (3 * omega) // 2
    full = (1 << palette + 1) - 2
    phase1 = greedy_interval_coloring(layout.intervals)
    colors = dict(phase1.colors)
    if trace is not None:
        trace.append(("phase1", None, phase1.palette))
    state = ExtensionState(graph=g, layout=layout, palette=palette,
                           colors=colors, j=g.n_b - 1)
    coloring._assert_bj_cliques(state, omega)
    rank, b_seq = layout.a_rank, layout.b_seq
    a_at, b_glob, maxright = state._a_at, state._b_glob, state._maxright
    for j in range(g.n_b - 1, -1, -1):
        state.j = j
        a_j, hi = a_at[j], maxright[j]
        prev_rank = None
        for _ in range(len(a_j) + hi - j + 2):
            used = {colors[v] for v in a_j}
            used.update(colors[v] for v in b_glob[j + 1:hi + 1])
            free = coloring._free_color(full & ~sum(1 << c for c in used))
            if free is not None:
                colors[b_glob[j]] = free
                if trace is not None:
                    trace.append(("assign", j, b_seq[j], free))
                break
            a_c = coloring.find_pivot(state)
            if prev_rank is not None and rank[a_c] >= prev_rank:
                raise AlgorithmInvariantViolation(
                    f"pivot rank failed to decrease at position {j}")
            prev_rank = rank[a_c]
            x = colors[a_c]
            if trace is not None:
                trace.append(("pivot", j, a_c, x))
            closed = {colors[w] for w in state._filtered_neighbors(a_c, j + 1)}
            closed.add(x)
            z = coloring._free_color(full & ~sum(1 << c for c in closed))
            if z is not None:
                colors[a_c] = z
                colors[b_glob[j]] = x
                if trace is not None:
                    trace.append(("pivot_recolor", j, a_c, z))
                    trace.append(("assign", j, b_seq[j], x))
                break
            y, a_prime, shielded = coloring.partner_color(state, a_c)
            if trace is not None:
                trace.append(("partner", j, y, a_prime, shielded))
            comp = coloring.kempe_swap(state, a_c, y)
            coloring._assert_kempe_shape(state, a_c, comp)
            if trace is not None:
                trace.append(("swap", j, x, y, len(comp)))
        else:
            raise AlgorithmInvariantViolation(
                f"pivot loop failed to terminate at position {j}")
    result = Coloring(colors, max(colors.values(), default=0))
    if not verify_square_coloring(g, result):
        raise AlgorithmInvariantViolation(
            "final coloring failed properness verification")
    return result
