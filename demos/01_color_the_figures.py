"""Color the worked example graphs end to end.

For each named graph: recognize convexity, read the clique number of
the square off the convex layout, run the two-phase coloring, and
compare the palette against the floor(3*omega/2) bound and the exact
chromatic number.
"""

from sqchroma.coloring import clique_number_square, color_square_convex, verify_coloring
from sqchroma.convexity import NonConvexWitness, recognize_biconvex, recognize_convex
from sqchroma.core import square
from sqchroma.generators import gen_lower_bound_H, gen_named
from sqchroma.oracle import exact_stats


def show(name, g):
    layout = recognize_convex(g)
    if isinstance(layout, NonConvexWitness):
        stats = exact_stats(square(g))
        print(f"{name:>14}  {'not cvx':>8}  omega={stats.omega:2d}  "
              f"chi={stats.chi:2d}  (coloring algorithm not applicable)")
        return
    flavor = "biconvex" if recognize_biconvex(g) else "convex"
    omega = clique_number_square(g, layout)
    coloring = color_square_convex(g, layout)
    sq = square(g)
    assert verify_coloring(sq, coloring)
    stats = exact_stats(sq)
    bound = (3 * omega) // 2
    print(f"{name:>14}  {flavor:>8}  omega={omega:2d}  chi={stats.chi:2d}  "
          f"palette={coloring.palette:2d}  bound={bound:2d}  "
          f"ratio={coloring.palette / stats.chi:.3f}")


print(f"{'graph':>14}  {'class':>8}  exact values   algorithm")
for name in ("not_perfect", "antihole", "biconvex", "convex_c4free"):
    show(name, gen_named(name))
for n in (2, 3, 4):
    show(f"complete({n})", gen_named("complete", n))
for q in (2, 4):
    show(f"H(q={q})", gen_lower_bound_H(q))

print()
print("K_{n,n} squares are complete, so the algorithm needs exactly 2n")
print("colors there; the H(q) family pins the ratio from below, with")
print("chi = 5q/2 + 2 against omega = 2q + 3.")
