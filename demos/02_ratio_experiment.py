"""Sweep a seeded random convex corpus and tabulate palette ratios.

Writes the per-instance records to ratio_sweep.csv next to this script
and prints the aggregate min/mean/max of palette/omega and palette/chi.
"""

import pathlib
import time

from sqchroma.cli import CSV_COLUMNS, ExperimentRecord, experiment_ratio_sweep
from sqchroma.coloring import clique_number_square, color_square_convex
from sqchroma.convexity import recognize_convex
from sqchroma.core import square
from sqchroma.generators import gen_random_convex
from sqchroma.oracle import exact_stats
from sqchroma.rng import SplitMix64, derive_seed

TRIALS = 200
BASE_SEED = 7

records = []
for trial in range(TRIALS):
    seed = derive_seed(BASE_SEED, trial)
    rng = SplitMix64(seed)
    n_a, n_b = rng.randint(1, 10), rng.randint(1, 10)
    g = gen_random_convex(n_a, n_b, rng.randint(1, n_b), seed)
    layout = recognize_convex(g)
    t0 = time.perf_counter()
    omega = clique_number_square(g, layout)
    coloring = color_square_convex(g, layout)
    chi = exact_stats(square(g)).chi
    ms = (time.perf_counter() - t0) * 1000
    records.append(ExperimentRecord(
        instance_id=f"random_convex[{trial}]",
        n_a=n_a, n_b=n_b, omega=omega,
        alg_palette=coloring.palette, exact_chi=chi,
        ratio_to_omega=coloring.palette / omega,
        ratio_to_chi=coloring.palette / chi,
        runtime_ms=ms,
    ))

out = pathlib.Path.cwd() / "ratio_sweep.csv"
out.write_text("\n".join([CSV_COLUMNS] + [r.csv_row() for r in records]) + "\n")
summary = experiment_ratio_sweep(records)

print(f"wrote {len(records)} records to {out.name}")
print(f"palette/omega: min={summary['ratio_to_omega']['min']:.3f} "
      f"mean={summary['ratio_to_omega']['mean']:.3f} "
      f"max={summary['ratio_to_omega']['max']:.3f}")
print(f"palette/chi:   min={summary['ratio_to_chi']['min']:.3f} "
      f"mean={summary['ratio_to_chi']['mean']:.3f} "
      f"max={summary['ratio_to_chi']['max']:.3f}")
print()
print("the 3/2 approximation guarantee shows up as a hard ceiling on")
print("palette/chi; typical instances sit well below it.")
