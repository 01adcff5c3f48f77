"""Machine-speed probe used to scale the end-to-end times.

On a shared machine, contention from other tenants changes how fast the
same Python code runs, by up to 1.5x from one half-minute to the next.
One input repeated for 30 s took 101-200 ms per call.  The probe times a
fixed piece of pure-Python work (set and frozenset churn, like the
program's own) between operations.  Each operation's wall time is then
scaled by ``NOMINAL_S / probe``, where ``probe`` is the median of the
probes nearest to the operation: the time the operation would have taken
had the probe run in ``NOMINAL_S``.  A change to the program moves the
operation times and leaves the probe unchanged, so it still shows; a
change in machine speed moves both and cancels.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

NOMINAL_S = 0.005     # probe time on a quiet 2-vCPU virtual machine
EVERY_S = 0.1         # probe at most this often
WINDOW = 3            # probes on each side of an operation


def reference_work() -> int:
    rng = random.Random(0)
    adj = [set() for _ in range(300)]
    for _ in range(3000):
        u, v = rng.randrange(300), rng.randrange(300)
        adj[u].add(v)
        adj[v].add(u)
    rows = [frozenset(s) for s in adj]
    return sum(len(a & b) for a, b in zip(rows, rows[1:]))


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []     # probe start times
        self.took: list[float] = []   # probe durations, seconds

    def probe(self) -> float:
        t0 = time.perf_counter()
        reference_work()
        took = time.perf_counter() - t0
        self.at.append(t0)
        self.took.append(took)
        return took

    def maybe_probe(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.probe()

    def scale(self, t: float) -> float:
        """Factor turning a wall time measured at ``t`` into nominal time."""
        i = bisect.bisect(self.at, t)
        near = self.took[max(0, i - WINDOW): i + WINDOW]
        return NOMINAL_S / statistics.median(near)

    def median_ms(self) -> float:
        return statistics.median(self.took) * 1000.0
