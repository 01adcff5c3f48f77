"""Benchmark for sqchroma: drive the CLI as shipped on seeded inputs.

    python3 bench/run.py --workload convex-sparse --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, both modes

Run from the root of a source checkout; the package is imported from
``src/``.  One run is a closed loop in one process and one thread: it calls
``sqchroma.cli.run([...])`` in-process with stdout and stderr captured,
over whole rounds of the workload's operations, until ``--seconds`` have
passed and at least ``MIN_OPS`` operations are done.  Outputs are checked
after the loop.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
repeats the loop with layer spans recorded and reports the per-layer
metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Generated inputs, results and span files go to ``.bench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import instances  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

MIN_OPS = 100        # op_p90_ms then has at least ten samples above it
SETUP_REPEATS = 5
WORKLOADS = tuple(instances.WORKLOADS)

COMMANDS = {
    "convex-sparse": (("color", "--json"),),
    "convex-dense": (("color", "--json"),),
    "oracle-exact": (("exact",), ("holes",), ("structure", "--summary")),
}


def import_sqchroma():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import sqchroma.cli
    import sqchroma.coloring
    import sqchroma.convexity

    where = os.path.realpath(sqchroma.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"sqchroma imported from {where}, not from {src}")
    return {"cli": sqchroma.cli, "coloring": sqchroma.coloring,
            "convexity": sqchroma.convexity}


def setup(workload: str, seed: int):
    """Everything before the first operation: import, build, write."""
    modules = import_sqchroma()
    insts = instances.WORKLOADS[workload](seed)
    paths = instances.write_instances(
        insts, os.path.join(OUT, "inputs", f"{workload}-s{seed}"))
    return modules, insts, paths


def measure_setup(workload: str, seed: int, speed: SpeedProbe) -> float:
    """Median over fresh processes that only set up of their wall time from
    process start to exit, scaled to nominal machine speed."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - t0) * speed.scale(t0))
    return statistics.median(times)


def validate_construction(insts) -> list[str]:
    """The benchmark's own test of what each family promises."""
    errors = []
    if not instances.tucker_gadget_non_convex():
        errors.append("Tucker gadget admits a consecutive order")
    for inst in insts:
        if inst.convex and not instances.identity_order_convex(inst):
            errors.append(f"{inst.name}: identity B-order not convex")
        if inst.family == "biconvex" and not instances.identity_order_biconvex(inst):
            errors.append(f"{inst.name}: identity orders not biconvex")
    return errors


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(argv))
    return rc, out.getvalue(), err.getvalue()


def timed_loop(cli, workload, paths, seconds, tracer=None, speed=None):
    """Whole rounds over (instance, command) until ``seconds`` and
    ``MIN_OPS`` are both reached.  Each distinct (instance, command) keeps
    its first output; later outputs must repeat it byte for byte.
    Returns the (start, wall ms) of every operation, the loop's wall time,
    the first outputs, and the failure and drift messages."""
    ops = [(i, cmd) for i in range(len(paths)) for cmd in COMMANDS[workload]]
    first: dict = {}
    durations, failures, drift = [], [], []
    t_loop = time.perf_counter()
    while not durations or (time.perf_counter() - t_loop < seconds
                            or len(durations) < MIN_OPS):
        for i, cmd in ops:
            argv = (cmd[0], paths[i]) + cmd[1:]
            op_id = len(durations)
            if speed is not None:
                speed.maybe_probe()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = call(cli, argv)
                else:
                    result = tracer.operation(op_id, "op." + cmd[0],
                                              lambda: call(cli, argv))
            except Exception as exc:  # a crash is a failed operation
                result = None
                failures.append(f"{cmd[0]} {i}: {type(exc).__name__}: {exc}")
            durations.append((t0, (time.perf_counter() - t0) * 1000.0))
            if result is not None:
                if first.setdefault((i, cmd), result) != result:
                    drift.append(f"{cmd[0]} {i}: output changed between rounds")
    wall = time.perf_counter() - t_loop
    return durations, wall, first, failures, drift


def check_outputs(cli, workload, insts, paths, first):
    """Check every distinct output; returns (errors, palette ratios)."""
    errors, ratios = [], []
    omegas = {i: checks.omega_ref(x) for i, x in enumerate(insts) if x.convex}
    palettes = {}
    if workload == "oracle-exact":
        # a checked colouring bounds chi from above
        for i in omegas:
            rc, out, err = call(cli, ("color", paths[i], "--json"))
            problem, ratio = checks.check_color_output(insts[i], omegas[i], rc, out, err)
            if problem:
                errors.append(f"{insts[i].name} color: {problem}")
            else:
                ratios.append(ratio)
                palettes[i] = json.loads(out)["palette"]
    holes_total = {}
    for (i, cmd), (rc, out, err) in sorted(first.items()):
        inst, omega = insts[i], omegas.get(i)
        if cmd[0] == "color":
            problem, ratio = checks.check_color_output(inst, omega, rc, out, err)
            if ratio is not None:
                ratios.append(ratio)
        elif cmd[0] == "exact":
            problem = checks.check_exact_output(inst, omega, palettes.get(i), rc, out)
        elif cmd[0] == "holes":
            problem, holes_total[i] = checks.check_holes_output(inst, rc, out)
        else:
            problem = checks.check_structure_output(rc, out, holes_total.get(i))
        if problem:
            errors.append(f"{inst.name} {cmd[0]}: {problem}")
    return errors, ratios


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(args) -> int:
    os.environ.pop("SQCHROMA_BUDGET", None)  # the oracles keep their default budget
    trace_mode = args.trace == 1
    speed = None if trace_mode else SpeedProbe()
    setup_s = None if trace_mode else measure_setup(args.workload, args.seed, speed)
    modules, insts, paths = setup(args.workload, args.seed)
    cli = modules["cli"]
    errors = validate_construction(insts)
    for cmd in COMMANDS[args.workload]:  # warm lazy imports and caches
        call(cli, (cmd[0], paths[0]) + cmd[1:])

    tracer = None
    if trace_mode:
        tracer = Tracer()
        tracer.install(modules)
    try:
        durations, wall, first, failures, drift = timed_loop(
            cli, args.workload, paths, args.seconds, tracer, speed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, ratios = check_outputs(cli, args.workload, insts, paths, first)
    errors += drift + problems
    for line in errors + failures:
        print("CHECK:", line, file=sys.stderr)

    raw_ms = [ms for _, ms in durations]
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    if trace_mode:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.dump(os.path.join(OUT, "traces", tag + ".jsonl"))
        metrics = tracer.metrics()
    else:
        scaled = [ms * speed.scale(t0) for t0, ms in durations]
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (statistics.median(scaled), "ms"),
            "op_p90_ms": (quantile(scaled, 90), "ms"),
            "ops_per_s": (1000.0 * len(scaled) / sum(scaled), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "palette_ratio": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
        }
    probe = f" probe_ms={speed.median_ms():.3f}" if speed else ""
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(durations)} loop_s={wall:.2f} "
          f"wall_p50_ms={statistics.median(raw_ms):.3f}"
          f" wall_ops_per_s={len(raw_ms) / wall:.3f}{probe}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(durations),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result, sort_keys=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w",
              encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in a fresh process, untraced then traced."""
    summary, status = {}, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload",
                    workload, "--seed", str(args.seed), "--seconds",
                    str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                status = 1
                if not lines:
                    continue
            res = json.loads(lines[-1])
            summary[f"{workload}/trace{trace}"] = res
            print(f"{workload} trace={trace} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:<24} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit (used to time set-up)")
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            setup(args.workload, args.seed)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (ImportError, OSError, subprocess.CalledProcessError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
