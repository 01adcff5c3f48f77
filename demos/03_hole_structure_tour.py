"""Decompose every hole in the square of the non-perfect example graph.

Each induced cycle of length at least four in the square of a convex
bipartite graph splits into an A-path flanked by two B-vertices, with
one private interior B-neighbor per path edge and one A-vertex seeing
the whole B-run.  This script prints that decomposition for the C5 and
both C4s of the classic example, then checks the corollaries.
"""

from sqchroma.convexity import recognize_convex
from sqchroma.core import square, vertex_names
from sqchroma.generators import gen_named, gen_random_convex
from sqchroma.oracle import find_induced_cycles
from sqchroma.structure import (
    check_partite_count,
    cycle_spectrum_check,
    interior_emptiness,
    verify_cycle_structure,
)

g = gen_named("not_perfect")
layout = recognize_convex(g)
sq = square(g)
names = vertex_names(g.n_a, g.n_b)


for cycle in find_induced_cycles(sq, 4, sq.n):
    report = verify_cycle_structure(g, layout, cycle)
    print(f"hole of length {len(cycle)}: "
          f"({', '.join(names[v] for v in report.cycle)})")
    print(f"   A-path {' - '.join(names[v] for v in report.a_path)}"
          f"   B-ends {names[report.b_end_low]}, {names[report.b_end_high]}")
    print(f"   private interior neighbors: "
          f"{', '.join(names[v] for v in report.private_bs) or '(none)'}"
          f"   common witness: {names[report.common_a]}")
    print(f"   two vertices on B: {check_partite_count(g, layout, report)},"
          f" interior empty: {interior_emptiness(g, layout, report)}")

print(f"cycle lengths contiguous from 4: {cycle_spectrum_check(g, layout)}")
print()

# the same decomposition holds on every random convex instance
checked = holes = 0
for seed in range(150):
    gg = gen_random_convex(1 + seed % 9, 1 + (seed * 5) % 9, 9, seed)
    ll = recognize_convex(gg)
    ss = square(gg)
    for cyc in find_induced_cycles(ss, 4, ss.n):
        assert verify_cycle_structure(gg, ll, cyc).ok
        holes += 1
    checked += 1
print(f"verified the decomposition for {holes} holes "
      f"across {checked} random convex squares")
