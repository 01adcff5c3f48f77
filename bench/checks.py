"""Output checks, computed from the input graph alone.

None of this imports sqchroma: the reference values (the clique number
omega_ref, adjacency in the square, closed neighbourhoods) come from the
A-rows the benchmark generated.  Every check returns an error string, or
None when the output is correct.
"""

from __future__ import annotations

import json

from instances import Instance


def omega_ref(inst: Instance) -> int:
    """omega(G^2) for G convex under the identity B-order.

    A clique of G^2 is the set of A-intervals containing a B-run [l, r]
    together with that run, so omega is the maximum over l <= r of
    (#intervals containing [l, r]) + (r - l + 1); a run of two or more
    B-vertices needs at least one covering interval to be a clique.
    """
    if inst.n_a + inst.n_b == 0:
        return 0
    best = 1
    for l in range(inst.n_b):
        rights = sorted((r[-1] for r in inst.rows if r and r[0] <= l <= r[-1]),
                        reverse=True)
        for k, right in enumerate(rights, start=1):
            # the k intervals reaching furthest all contain [l, right]
            best = max(best, k + right - l + 1)
    return best


def closed_neighbourhoods(inst: Instance) -> list[list[int]]:
    """N_G[v] for every vertex, on the global order A0.., B0..  A colouring
    of G^2 is proper iff each of these sets gets distinct colours."""
    n_a = inst.n_a
    out = [[a] + [n_a + b for b in row] for a, row in enumerate(inst.rows)]
    out += [[n_a + b] for b in range(inst.n_b)]
    for a, row in enumerate(inst.rows):
        for b in row:
            out[n_a + b].append(a)
    return out


def square_adjacent(inst: Instance, u: int, v: int, cols) -> bool:
    """Distance at most two in G, for global vertices u != v; ``cols`` is
    ``b_rows(inst)``."""
    n_a = inst.n_a
    if (u < n_a) != (v < n_a):
        a, b = (u, v - n_a) if u < n_a else (v, u - n_a)
        return b in inst.rows[a]
    if u < n_a:
        return bool(set(inst.rows[u]) & set(inst.rows[v]))
    return bool(cols[u - n_a] & cols[v - n_a])


def b_rows(inst: Instance) -> list[set[int]]:
    cols: list[set[int]] = [set() for _ in range(inst.n_b)]
    for a, row in enumerate(inst.rows):
        for b in row:
            cols[b].add(a)
    return cols


def _vertex(name: str, inst: Instance) -> int | None:
    side, idx = name[:1], name[1:]
    if not idx.isdigit():
        return None
    i = int(idx)
    if side == "A" and i < inst.n_a:
        return i
    if side == "B" and i < inst.n_b:
        return inst.n_a + i
    return None


def check_coloring(inst: Instance, omega: int, colors: dict[int, int],
                   palette: int) -> str | None:
    """A total colouring within 1..palette, proper on G^2, with
    palette <= floor(3*omega/2)."""
    n = inst.n_a + inst.n_b
    if len(colors) != n:
        return f"{len(colors)} vertices coloured, expected {n}"
    bad = [v for v, c in colors.items() if not 1 <= c <= palette]
    if bad:
        return f"vertex {bad[0]} coloured outside 1..{palette}"
    for v, nb in enumerate(closed_neighbourhoods(inst)):
        if len({colors[w] for w in nb}) != len(nb):
            return f"closed neighbourhood of vertex {v} repeats a colour"
    if palette > (3 * omega) // 2:
        return f"palette {palette} above floor(3*{omega}/2)"
    return None


def check_color_output(inst: Instance, omega: int, rc: int, out: str,
                       err: str) -> tuple[str | None, float | None]:
    """Check ``color --json``; returns (error, palette / omega_ref)."""
    if not inst.convex:
        if rc == 1 and out == "" and err.strip() == "NOT CONVEX":
            return None, None
        return f"non-convex input answered rc={rc} out={out[:40]!r}", None
    if rc != 0:
        return f"color exited {rc}: {err.strip()[:80]}", None
    try:
        obj = json.loads(out)
        raw = obj["colors"]
        palette, got_omega, bound = obj["palette"], obj["omega"], obj["bound"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable color output: {exc}", None
    if got_omega != omega:
        return f"omega={got_omega}, reference {omega}", None
    if bound != (3 * omega) // 2:
        return f"bound={bound} for omega={omega}", None
    colors = {}
    for name, c in raw.items():
        v = _vertex(name, inst)
        if v is None or not isinstance(c, int):
            return f"bad vertex entry {name!r}: {c!r}", None
        colors[v] = c
    problem = check_coloring(inst, omega, colors, palette)
    return problem, (None if problem else palette / omega)


def parse_exact(out: str) -> tuple[int, int] | None:
    parts = dict(p.split("=", 1) for p in out.split() if "=" in p)
    try:
        return int(parts["chi"]), int(parts["omega"])
    except (KeyError, ValueError):
        return None


def check_exact_output(inst: Instance, omega: int, palette: int | None,
                       rc: int, out: str) -> str | None:
    """chi and omega of G^2 against closed forms where the theory gives
    them, else omega = omega_ref <= chi <= a checked colouring's palette."""
    got = parse_exact(out) if rc == 0 else None
    if got is None:
        return f"exact exited {rc}: {out.strip()[:80]!r}"
    chi, om = got
    fam = inst.family
    if fam == "lower_bound_h":
        q = inst.params["q"]
        want = (5 * q // 2 + 2, 2 * q + 3)
    elif fam == "complete":
        want = (2 * inst.params["n"],) * 2
    elif fam == "biconvex":  # squares of biconvex graphs are perfect
        want = (omega, omega)
    else:
        want = None
    if want is not None:
        return None if (chi, om) == want else f"chi,omega={chi},{om}, expected {want}"
    if om != omega:
        return f"omega={om}, reference {omega}"
    if palette is None or not omega <= chi <= palette:
        return f"chi={chi} outside [{omega}, {palette}]"
    return None


def check_holes_output(inst: Instance, rc: int, out: str) -> tuple[str | None, int]:
    """Every listed cycle is an induced cycle of G^2 of length >= 4, none is
    listed twice, and the total matches.  Returns (error, total)."""
    if rc != 0:
        return f"holes exited {rc}", 0
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("total="):
        return "holes output lacks its total line", 0
    try:
        total = int(lines[-1].split("=", 1)[1])
    except ValueError:
        return f"bad total line {lines[-1]!r}", 0
    if total != len(lines) - 1:
        return f"total={total} but {len(lines) - 1} cycles listed", total
    n = inst.n_a + inst.n_b
    cols = b_rows(inst)
    seen = set()
    for line in lines[:-1]:
        head, _, body = line.partition(":")
        try:
            cyc = [int(x) for x in body.split()]
        except ValueError:
            return f"malformed cycle line {line!r}", total
        k = len(cyc)
        if head != f"cycle length={k}" or k < 4:
            return f"malformed cycle line {line!r}", total
        if len(set(cyc)) != k or not all(0 <= v < n for v in cyc):
            return f"cycle {cyc} repeats or leaves the vertex range", total
        for i in range(k):
            for j in range(i + 1, k):
                ring = j - i == 1 or (i == 0 and j == k - 1)
                if square_adjacent(inst, cyc[i], cyc[j], cols) != ring:
                    what = "gap" if ring else "chord"
                    return f"cycle {cyc} has a {what} {cyc[i]}-{cyc[j]}", total
        if inst.family == "biconvex" and k % 2 and k >= 5:
            return f"odd hole {cyc} in the square of a biconvex graph", total
        key = frozenset(cyc), k
        if key in seen:
            return f"cycle {cyc} listed twice", total
        seen.add(key)
    return None, total


def check_structure_output(rc: int, out: str, holes_total: int | None) -> str | None:
    """``structure --summary``: exit 0, every cycle passes, and the cycle
    count agrees with ``holes`` on the same input."""
    parts = dict(p.split("=", 1) for p in out.split() if "=" in p)
    if rc != 0:
        return f"structure exited {rc}: {out.strip()[:80]!r}"
    try:
        cycles, passed = int(parts["cycles"]), int(parts["passed"])
    except (KeyError, ValueError):
        return f"unreadable structure summary {out.strip()[:80]!r}"
    if passed != cycles or parts.get("spectrum_contiguous") != "True":
        return f"structure summary {out.strip()!r}"
    if holes_total is not None and cycles != holes_total:
        return f"structure saw {cycles} cycles, holes listed {holes_total}"
    return None
