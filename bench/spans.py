"""Span tracing for the traced run, recorded from the benchmark's side.

``Tracer.install`` replaces the layer functions that ``sqchroma.cli`` and
``sqchroma.coloring`` look up at call time with wrappers that record one
span per call: (id, parent id, operation id, name, start, end).  The CLI
then runs unchanged, so the spans come in the order ``_cmd_color`` and the
other subcommands make the calls.  ``cli.square`` and
``cli.verify_coloring`` (the CLI's own re-check) stay unwrapped and count
as CLI overhead.  Spans and counters stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

# (module, attribute) -> span name; ``None`` marks the recogniser, whose
# span name depends on its answer.
WRAPPED = {
    ("cli", "read_bipartite_text"): "core.parse",
    ("cli", "recognize_convex"): None,
    ("cli", "clique_number_square"): "coloring.omega",
    ("cli", "color_square_convex"): "coloring.color",
    ("cli", "exact_stats"): "oracle.exact",
    ("cli", "find_induced_cycles"): "oracle.cycles",
    ("cli", "verify_cycle_structure"): "structure.check",
    ("cli", "check_partite_count"): "structure.check",
    ("cli", "interior_emptiness"): "structure.check",
    ("cli", "cycle_spectrum_check"): "structure.check",
    ("coloring", "square"): "core.square",
    ("coloring", "greedy_interval_coloring"): "coloring.phase1",
    ("coloring", "verify_coloring"): "coloring.verify",
}

TIMES = ("core.parse", "core.square", "convexity.recognize", "convexity.reject",
         "coloring.omega", "coloring.phase1", "coloring.color",
         "coloring.verify", "oracle.exact", "oracle.cycles", "structure.check")
COUNTS = ("core.square_edges", "coloring.pivots", "coloring.swaps",
          "oracle.search_nodes")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, op, name, start, end)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)  # placeholder keeps ids in start order
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, parent, self._op, name, start, end)

    def operation(self, op_id: int, name: str, fn):
        """Run ``fn()`` as the root span of operation ``op_id``."""
        self._op = op_id
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(sid, parent, name, start)

    def _wrap(self, name, real, modules):
        witness = modules["convexity"].NonConvexWitness

        def wrapper(*args, **kwargs):
            events = None
            if name == "coloring.color" and kwargs.get("trace") is None:
                kwargs["trace"] = events = []
            sid, parent = self._open()
            start = time.perf_counter()
            label, result = name, None
            try:
                result = real(*args, **kwargs)
            finally:
                if name is None:
                    label = ("convexity.reject" if isinstance(result, witness)
                             else "convexity.recognize")
                self._close(sid, parent, label, start)
            if label == "core.square":
                self.counts["core.square_edges"] += result.m
            elif label == "oracle.exact":
                self.counts["oracle.search_nodes"] += result.node_budget_used
            elif events is not None:
                for event in events:
                    if event[0] == "pivot":
                        self.counts["coloring.pivots"] += 1
                    elif event[0] == "swap":
                        self.counts["coloring.swaps"] += 1
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        for (mod, attr), name in WRAPPED.items():
            real = getattr(modules[mod], attr)
            self._saved.append((modules[mod], attr, real))
            setattr(modules[mod], attr, self._wrap(name, real, modules))

    def uninstall(self) -> None:
        for module, attr, real in reversed(self._saved):
            setattr(module, attr, real)
        self._saved.clear()

    # -- reduction -------------------------------------------------------

    def per_op(self) -> dict[int, dict]:
        """For each operation: its wall time, the summed time of each span
        name, the summed time of its direct children (layer calls), and
        the self time of coloring.color (Phase II, derived)."""
        ops: dict[int, dict] = {}
        by_id = {s[0]: s for s in self.spans}
        for sid, parent, op, name, start, end in self.spans:
            dur = (end - start) * 1000.0
            rec = ops.setdefault(op, {"times": defaultdict(float),
                                      "children": 0.0, "wall": 0.0,
                                      "phase2": None})
            if parent is None:
                rec["wall"] = dur
                continue
            rec["times"][name] += dur
            if by_id[parent][1] is None:
                rec["children"] += dur
            if name == "coloring.color":
                rec["phase2"] = (rec["phase2"] or 0.0) + dur
            elif by_id[parent][3] == "coloring.color":
                rec["phase2"] = (rec["phase2"] or 0.0) - dur
        return ops

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: ``_ms`` values are medians over the operations
        that made the call (0 when none did); counts are run totals."""
        ops = self.per_op().values()
        out: dict[str, tuple[float, str]] = {}
        for name in TIMES:
            vals = [r["times"][name] for r in ops if name in r["times"]]
            out[name + "_ms"] = (statistics.median(vals) if vals else 0.0, "ms")
        phase2 = [r["phase2"] for r in ops if r["phase2"] is not None]
        out["coloring.phase2_ms"] = (statistics.median(phase2) if phase2 else 0.0,
                                     "ms")
        out["cli.overhead_ms"] = (statistics.median(
            r["wall"] - r["children"] for r in ops), "ms")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
