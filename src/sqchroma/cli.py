"""Command-line interface: one binary, one subcommand per capability.

    recognize   report CONVEX / BICONVEX / NOT CONVEX plus the layout
    color       color the square, print palette/omega/bound and colors
    exact       exact chromatic and clique numbers (of the square)
    holes       list induced cycles (of the square)
    structure   per-cycle structure reports on a convex input
    gen         write a generated graph in the text format
    reduce      split-reduce a general graph to bipartite
    experiment  ratio sweeps over generated corpora (CSV or JSON lines)
    verify      re-check a coloring file against a graph

File arguments accept ``-`` for standard input.  Exit codes: 0 success,
1 domain failure (for instance NOT CONVEX under ``color``), 2 usage
error; failures print one ``error: ...`` line on stderr, or
``internal error: ...`` for a failed proof-backed check, in the
recognizer's arrangement or in the coloring.  Only the exact oracles of
``exact`` and ``experiment --with-exact`` take a node budget, from
--budget or SQCHROMA_BUDGET.  Every integer option is read as the text
format reads its integers (``-?[0-9]+``); any other token is a usage
error.  A negative ``--budget``, ``holes --min-len`` or ``experiment
--trials`` means nothing, and is a usage error too, found once the
command line has parsed.

``run(argv)`` may be called any number of times in one process, as tests
and the benchmark do.  It builds the argument parser on its first call,
not at import, and reuses it afterwards; no option or default carries
over from one call to the next.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from functools import cache

from . import generators
from .coloring import (
    Coloring,
    clique_number_square,
    color_square_convex,
    verify_square_coloring,
)
from .convexity import NonConvexWitness, consecutive_order, recognize_convex
from .core import (
    BipartiteGraph,
    SimpleGraph,
    _decimal,
    read_bipartite_text,
    read_graph_text,
    read_simple_text,
    square,
    square_simple,
    vertex_names,
    write_bipartite_text,
    write_simple_text,
)
from .errors import AlgorithmInvariantViolation, BudgetExceeded, SqchromaError
from .oracle import exact_stats, find_induced_cycles
from .rng import derive_seed
from .structure import (  # noqa: F401  cycle_spectrum_check: see below
    check_partite_count,
    cycle_spectrum_check,
    interior_emptiness,
    spectrum_contiguous,
    verify_cycle_structure,
)

CSV_COLUMNS = (
    "instance_id,n_a,n_b,omega,alg_palette,exact_chi,"
    "ratio_to_omega,ratio_to_chi,runtime_ms,status"
)


@dataclass
class ExperimentRecord:
    """One experiment trial; ``status`` is ``ok`` or ``budget_exceeded``
    (the --with-exact oracle ran out: only the chi fields are empty)."""

    instance_id: str
    n_a: int
    n_b: int
    omega: int
    alg_palette: int
    exact_chi: int | None
    ratio_to_omega: float
    ratio_to_chi: float | None
    runtime_ms: float
    status: str = "ok"

    def csv_row(self) -> str:
        chi = "" if self.exact_chi is None else str(self.exact_chi)
        rchi = "" if self.ratio_to_chi is None else f"{self.ratio_to_chi:.4f}"
        return (
            f"{self.instance_id},{self.n_a},{self.n_b},{self.omega},"
            f"{self.alg_palette},{chi},{self.ratio_to_omega:.4f},{rchi},"
            f"{self.runtime_ms:.2f},{self.status}"
        )

    def json_obj(self) -> dict:
        return asdict(self)


def experiment_ratio_sweep(records: list[ExperimentRecord]) -> dict:
    """Aggregate min/mean/max of palette/omega and palette/chi ratios."""
    def agg(values: list[float]) -> dict:
        if not values:
            return {"min": None, "mean": None, "max": None}
        return {
            "min": min(values),
            "mean": sum(values) / len(values),
            "max": max(values),
        }

    return {
        "trials": len(records),
        "ratio_to_omega": agg([r.ratio_to_omega for r in records]),
        "ratio_to_chi": agg([
            r.ratio_to_chi for r in records if r.ratio_to_chi is not None
        ]),
        "budget_exceeded": sum(r.status != "ok" for r in records),
    }


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _coloring_text(g: BipartiteGraph, coloring: Coloring, omega: int) -> str:
    bound = (3 * omega) // 2
    lines = [f"palette={coloring.palette} omega={omega} bound={bound}"]
    colors = coloring.colors
    for v, name in enumerate(vertex_names(g.n_a, g.n_b)):
        lines.append(f"v {name} {colors[v]}")
    return "\n".join(lines) + "\n"


def _coloring_json(g: BipartiteGraph, coloring: Coloring, omega: int) -> str:
    """``json.dumps(..., sort_keys=True)`` of the palette, omega, bound and
    colors, as one join.  The colors are sorted as their ``"name": color``
    items: a name is letters and digits, all above the closing quote, so
    the items sort as their names do.  Every ``"A..."`` item sorts before
    every ``"B..."`` item, so each side is sorted on its own."""
    colors, n_a = coloring.colors, g.n_a
    items = sorted([f'"A{a}": {colors[a]}' for a in range(n_a)])
    items += sorted([f'"B{b}": {colors[v]}'
                     for b, v in enumerate(range(n_a, n_a + g.n_b))])
    return (f'{{"bound": {(3 * omega) // 2}, "colors": {{{", ".join(items)}}}, '
            f'"omega": {omega}, "palette": {coloring.palette}}}\n')


# ---------------------------------------------------------------------------
# subcommands


def _cmd_recognize(args) -> int:
    g = read_bipartite_text(_read_text(args.file))
    result = recognize_convex(g)
    # the report is written whole, so a run that fails part way prints none
    if isinstance(result, NonConvexWitness):
        lines = ["NOT CONVEX", "attempted order: "
                 + " ".join(map(str, result.b_order_attempted)),
                 f"violating A-vertex: A{result.violating_a}",
                 "gap triple (B-vertices): " + " ".join(map(str, result.gap))]
    else:
        # biconvex: the B-order in hand, and an A-order for B's rows
        biconvex = consecutive_order(g.n_a, g.b_adj) is not None
        lines = ["BICONVEX" if biconvex else "CONVEX",
                 "b-order: " + " ".join(map(str, result.b_seq)),
                 "a-order: " + " ".join(map(str, result.a_order)),
                 "intervals (A-vertex: left right):"]
        lines += [f"  A{a}: isolated" if iv is None
                  else f"  A{a}: {iv[0]} {iv[1]}"
                  for a, iv in enumerate(result.intervals)]
    _write_text(None, "\n".join(lines) + "\n")
    return 0


def _cmd_color(args) -> int:
    g = read_bipartite_text(_read_text(args.file))
    layout = recognize_convex(g)
    if isinstance(layout, NonConvexWitness):
        print("NOT CONVEX", file=sys.stderr)
        return 1
    omega = clique_number_square(g, layout)
    trace: list | None = [] if args.trace else None
    coloring = color_square_convex(g, layout, trace=trace)
    if trace is not None:
        for event in trace:
            print("trace:", *event, file=sys.stderr)
    text = (_coloring_json if args.json else _coloring_text)(g, coloring, omega)
    _write_text(args.output, text)
    return 0


def _read_square_or_raw(args) -> SimpleGraph:
    g = read_graph_text(_read_text(args.file))
    if isinstance(g, SimpleGraph):
        return g if args.raw else square_simple(g)
    return g.simple if args.raw else square(g)


def _cmd_exact(args) -> int:
    h = _read_square_or_raw(args)
    try:
        stats = exact_stats(h, args.budget)
    except BudgetExceeded as exc:
        lower, upper = ("unknown" if x is None else x
                        for x in (exc.lower, exc.upper))
        print(f"budget exceeded after {exc.nodes} nodes "
              f"(bounds: {lower}..{upper})", file=sys.stderr)
        return 1
    print(f"chi={stats.chi} omega={stats.omega}")
    return 0


def _cmd_holes(args) -> int:
    h = _read_square_or_raw(args)
    max_len = h.n if args.max_len is None else args.max_len
    cycles = find_induced_cycles(h, args.min_len, max_len)
    for cyc in cycles:
        print(f"cycle length={len(cyc)}:", " ".join(map(str, cyc)))
    print(f"total={len(cycles)}")
    return 0


def _cmd_structure(args) -> int:
    g = read_bipartite_text(_read_text(args.file))
    layout = recognize_convex(g)
    if isinstance(layout, NonConvexWitness):
        print("NOT CONVEX", file=sys.stderr)
        return 1
    sq = square(g)
    cycles = find_induced_cycles(sq, 4, sq.n)
    names = vertex_names(g.n_a, g.n_b)
    passed = 0
    for cyc in cycles:
        report = verify_cycle_structure(g, layout, cyc)
        two_on_b = check_partite_count(g, layout, report)
        interior = interior_emptiness(g, layout, report)
        ok = report.ok and two_on_b and interior
        passed += ok
        if not args.summary:
            print(f"cycle ({', '.join(names[v] for v in report.cycle)}):")
            print("  a-path:", " ".join(names[v] for v in report.a_path))
            print("  b-ends:", names[report.b_end_low],
                  names[report.b_end_high])
            print("  private:", " ".join(names[v] for v in report.private_bs))
            print("  common-a:", names[report.common_a])
            print(f"  ok={ok} (P1={report.p1_ok} P2={report.p2_ok} "
                  f"P3={report.p3_ok} two-on-B={two_on_b} "
                  f"interior-empty={interior})")
    # cycle_spectrum_check's verdict, read off the cycles enumerated above;
    # the name stays importable here because bench/spans.py wraps it
    spectrum = spectrum_contiguous(cycles)
    print(f"cycles={len(cycles)} passed={passed} "
          f"spectrum_contiguous={spectrum}")
    return 0 if passed == len(cycles) and spectrum else 1


def _cmd_gen(args) -> int:
    fam = args.family
    if fam == "random_convex":
        g = generators.gen_random_convex(
            args.n_a, args.n_b, args.max_interval_len, args.seed)
    elif fam == "random_biconvex":
        g = generators.gen_random_biconvex(args.n_a, args.n_b, args.seed)
    elif fam == "lower_bound_h":
        g = generators.gen_lower_bound_H(args.q)
    elif fam == "complete":
        g = generators.gen_named("complete", args.n)
    elif fam == "named":
        g = generators.gen_named(args.name)
    elif fam == "girth7":
        params = {}
        if args.kind == "long_cycle":
            params["n"] = args.n
        elif args.kind == "tree":
            params = {"branching": args.branching, "depth": args.depth}
        else:
            params = {"n": args.n, "p": args.p}
        sg = generators.gen_girth7(args.kind, params, args.seed)
        _write_text(args.output, write_simple_text(sg))
        return 0
    else:  # pragma: no cover - argparse restricts choices
        return 2
    _write_text(args.output, write_bipartite_text(g))
    return 0


def _cmd_reduce(args) -> int:
    from .reduction import split_reduction

    g = read_simple_text(_read_text(args.file))
    b_g, _split = split_reduction(g)
    _write_text(args.output, write_bipartite_text(b_g))
    return 0


def _experiment_graph(args, trial: int) -> tuple[str, BipartiteGraph]:
    seed = derive_seed(args.seed, trial)
    if args.family == "random_convex":
        g = generators.gen_random_convex(
            args.n_a, args.n_b, args.max_interval_len, seed)
        return f"random_convex[{trial}]", g
    if args.family == "random_biconvex":
        g = generators.gen_random_biconvex(args.n_a, args.n_b, seed)
        return f"random_biconvex[{trial}]", g
    if args.family == "lower_bound_H":
        q = args.q + 2 * trial  # sweep q, q+2, q+4, ...
        return f"lower_bound_H[q={q}]", generators.gen_lower_bound_H(q)
    if args.family == "complete":
        n = args.n + trial
        return f"complete[n={n}]", generators.gen_named("complete", n)
    raise ValueError(f"unknown experiment family {args.family}")


def _cmd_experiment(args) -> int:
    records: list[ExperimentRecord] = []
    lines: list[str] = []
    if not args.json:
        lines.append(CSV_COLUMNS)
    for trial in range(args.trials):
        instance_id, g = _experiment_graph(args, trial)
        layout = recognize_convex(g)
        if isinstance(layout, NonConvexWitness):
            print(f"{instance_id}: NOT CONVEX", file=sys.stderr)
            return 1
        t0 = time.perf_counter()
        omega = clique_number_square(g, layout)
        coloring = color_square_convex(g, layout)
        status, chi = "ok", None
        if args.with_exact:
            try:
                chi = exact_stats(square(g), args.budget).chi
            except BudgetExceeded:
                status = "budget_exceeded"
        ms = (time.perf_counter() - t0) * 1000.0
        rec = ExperimentRecord(
            instance_id=instance_id,
            n_a=g.n_a,
            n_b=g.n_b,
            omega=omega,
            alg_palette=coloring.palette,
            exact_chi=chi,
            ratio_to_omega=(coloring.palette / omega) if omega else 0.0,
            ratio_to_chi=(coloring.palette / chi) if chi else None,
            runtime_ms=ms,
            status=status,
        )
        records.append(rec)
        lines.append(json.dumps(rec.json_obj()) if args.json else rec.csv_row())
    _write_text(args.output, "\n".join(lines) + "\n")
    summary = experiment_ratio_sweep(records)
    out = sys.stderr if args.output in (None, "-") else sys.stdout
    print(json.dumps(summary, sort_keys=True), file=out)
    return 0


def _integer_field(lineno: int, what: str, token: str) -> int:
    """A coloring file's integer, read by the graph reader's rule."""
    try:
        return _decimal(token)
    except ValueError:
        raise ValueError(f"line {lineno}: {what} must be a decimal integer, "
                         f"got {token!r}") from None


def _cmd_verify(args) -> int:
    g = read_bipartite_text(_read_text(args.graph))
    index = {name: v for v, name in enumerate(vertex_names(g.n_a, g.n_b))}

    def vertex(name: str) -> int:
        if name not in index:
            raise ValueError(f"unknown vertex {name!r}")
        return index[name]

    text = _read_text(args.coloring)
    colors: dict[int, int] = {}
    palette = None
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("coloring JSON is nested too deeply") from None
        raw = obj.get("colors")
        if not isinstance(raw, dict):
            raise ValueError('coloring JSON needs a "colors" object')
        palette = obj.get("palette")
        if palette is not None and type(palette) is not int:
            raise ValueError(f"palette must be an integer, got {palette!r}")
        for name, color in raw.items():
            if type(color) is not int:  # also refuses JSON true/false
                raise ValueError(
                    f"color of {name} must be an integer, got {color!r}")
            colors[vertex(name)] = color
    else:
        for lineno, line in enumerate(text.splitlines(), 1):
            parts = line.split()
            if not parts:
                continue
            if parts[0].startswith("palette="):
                palette = _integer_field(lineno, "palette",
                                         parts[0].split("=", 1)[1])
            elif parts[0] == "v":
                if len(parts) != 3:
                    raise ValueError(
                        f"line {lineno}: expected 'v <vertex> <color>'")
                colors[vertex(parts[1])] = _integer_field(
                    lineno, f"color of {parts[1]}", parts[2])
    if palette is None:
        palette = max(colors.values(), default=0)
    ok = verify_square_coloring(g, Coloring(colors, palette))
    print("VALID" if ok else "INVALID")
    return 0 if ok else 1


def _int_option(token: str) -> int:
    """An integer option, read as the text format reads its integers
    (``-?[0-9]+``); any other token is a usage error, as for ``int``."""
    try:
        return _decimal(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {token!r}") from None


def _check_non_negative(args: argparse.Namespace) -> None:
    """A usage error, from the subcommand's parser, for the first option
    marked non-negative that holds a negative value.  The range is
    checked after parsing, so every integer option parses alike."""
    parser, flags = getattr(args, "non_negative", (None, ()))
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < 0:
            parser.error(f"argument {flag}: must be 0 or more, not {value}")


# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole argument parser, built on first use and then shared:
    ``parse_args`` leaves it unchanged, and usage errors and ``--help``
    look up the output streams and the terminal width when they print."""
    parser = argparse.ArgumentParser(
        prog="sqchroma",
        description="distance-2 coloring of convex bipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=_int_option, default=None,
                       help="oracle node budget (default from "
                            "SQCHROMA_BUDGET or 10^7)")

    def non_negative(p, *flags):
        # checked by ``run`` once parsing is done
        p.set_defaults(non_negative=(p, flags))

    p = sub.add_parser("recognize", help="convexity recognition")
    p.add_argument("file")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("color", help="color the square")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("exact", help="exact chi and omega of the square")
    p.add_argument("file")
    p.add_argument("--raw", action="store_true",
                   help="treat the input graph as-is (no squaring)")
    add_budget(p)
    non_negative(p, "--budget")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("holes", help="induced cycles of the square")
    p.add_argument("file")
    p.add_argument("--raw", action="store_true")
    p.add_argument("--min-len", type=_int_option, default=4)
    p.add_argument("--max-len", type=_int_option, default=None)
    non_negative(p, "--min-len")
    p.set_defaults(func=_cmd_holes)

    p = sub.add_parser("structure", help="cycle structure reports")
    p.add_argument("file")
    p.add_argument("--summary", action="store_true")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("gen", help="generate a graph")
    gsub = p.add_subparsers(dest="family", required=True)
    pg = gsub.add_parser("random_convex")
    pg.add_argument("n_a", type=_int_option)
    pg.add_argument("n_b", type=_int_option)
    pg.add_argument("max_interval_len", type=_int_option)
    pg.add_argument("--seed", type=_int_option, default=0)
    pg.add_argument("-o", "--output", default=None)
    pg = gsub.add_parser("random_biconvex")
    pg.add_argument("n_a", type=_int_option)
    pg.add_argument("n_b", type=_int_option)
    pg.add_argument("--seed", type=_int_option, default=0)
    pg.add_argument("-o", "--output", default=None)
    pg = gsub.add_parser("lower_bound_h")
    pg.add_argument("q", type=_int_option)
    pg.add_argument("-o", "--output", default=None)
    pg = gsub.add_parser("complete")
    pg.add_argument("n", type=_int_option)
    pg.add_argument("-o", "--output", default=None)
    pg = gsub.add_parser("named")
    pg.add_argument("name", choices=[n for n in generators.NAMED_GRAPHS
                                     if n != "complete"])
    pg.add_argument("-o", "--output", default=None)
    pg = gsub.add_parser("girth7")
    pg.add_argument("kind", choices=["long_cycle", "tree", "subdivided_random"])
    pg.add_argument("--n", type=_int_option, default=9)
    pg.add_argument("--branching", type=_int_option, default=2)
    pg.add_argument("--depth", type=_int_option, default=4)
    pg.add_argument("--p", type=float, default=0.4)
    pg.add_argument("--seed", type=_int_option, default=0)
    pg.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("reduce", help="split-reduce a general graph")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("experiment", help="ratio sweeps over corpora")
    p.add_argument("--family", required=True,
                   choices=["random_convex", "random_biconvex",
                            "lower_bound_H", "complete"])
    p.add_argument("--trials", type=_int_option, default=10)
    p.add_argument("--seed", type=_int_option, default=0)
    p.add_argument("--n-a", dest="n_a", type=_int_option, default=10)
    p.add_argument("--n-b", dest="n_b", type=_int_option, default=10)
    p.add_argument("--max-interval-len", type=_int_option, default=10)
    p.add_argument("--q", type=_int_option, default=2)
    p.add_argument("--n", type=_int_option, default=2)
    p.add_argument("--with-exact", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)
    add_budget(p)
    non_negative(p, "--trials", "--budget")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="verify a coloring file")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code."""
    try:
        args = _build_parser().parse_args(argv)
        _check_non_negative(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except AlgorithmInvariantViolation as exc:
        message = f"internal error: {exc}"
    except MemoryError:  # reported once its traceback has let go of the data
        message = "error: out of memory"
    except (SqchromaError, ValueError, OSError) as exc:
        message = f"error: {exc}"
    print(message, file=sys.stderr)
    return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
