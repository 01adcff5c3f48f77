"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Corpora are built once per session and shared; every coloring runs with
the proof assertions enabled, so criterion 9 (no invariant violations)
is monitored by construction across all of them.
"""

import time
from dataclasses import dataclass

import pytest

from sqchroma.coloring import clique_number_square, color_square_convex, verify_coloring
from sqchroma.convexity import ConvexLayout, recognize_convex
from sqchroma.core import SimpleGraph, girth, max_degree, square
from sqchroma.errors import AlgorithmInvariantViolation
from sqchroma.generators import (
    gen_girth7,
    gen_lower_bound_H,
    gen_named,
    gen_random_biconvex,
    gen_random_convex,
)
from sqchroma.oracle import (
    exact_stats,
    find_induced_cycles,
    is_perfect_small,
)
from sqchroma.reduction import (
    check_halfsquare_iso,
    check_omega_delta_girth,
    check_sandwich,
    split_reduction,
)
from sqchroma.rng import SplitMix64, derive_seed
from sqchroma.structure import (
    check_partite_count,
    cycle_spectrum_check,
    interior_emptiness,
    verify_cycle_structure,
)

from helpers import highest_free_color

SMALL_TRIALS = 1000
LARGE_TRIALS = 100
BICONVEX_TRIALS = 300
BASE_SEED = 20240917


@dataclass
class ColoredInstance:
    graph: object
    layout: ConvexLayout
    omega: int
    palette: int
    runtime_s: float


def _color_instance(g) -> ColoredInstance:
    t0 = time.perf_counter()
    layout = recognize_convex(g)
    assert isinstance(layout, ConvexLayout)
    omega = clique_number_square(g, layout)
    coloring = color_square_convex(g, layout)
    assert verify_coloring(square(g), coloring)
    return ColoredInstance(g, layout, omega, coloring.palette,
                           time.perf_counter() - t0)


@pytest.fixture(scope="session")
def small_corpus():
    out = []
    for i in range(SMALL_TRIALS):
        seed = derive_seed(BASE_SEED, i)
        rng = SplitMix64(seed)
        n_a, n_b = rng.randint(1, 10), rng.randint(1, 10)
        out.append(gen_random_convex(n_a, n_b, rng.randint(1, n_b), seed))
    return out


@pytest.fixture(scope="session")
def large_corpus():
    out = []
    for i in range(LARGE_TRIALS):
        seed = derive_seed(BASE_SEED + 1, i)
        rng = SplitMix64(seed)
        n_a, n_b = rng.randint(50, 200), rng.randint(50, 200)
        out.append(gen_random_convex(n_a, n_b, rng.randint(1, 12), seed))
    return out


@pytest.fixture(scope="session")
def small_colored(small_corpus):
    return [_color_instance(g) for g in small_corpus]


@pytest.fixture(scope="session")
def large_colored(large_corpus):
    return [_color_instance(g) for g in large_corpus]


def test_criterion_1_upper_bound_corpus(small_colored, large_colored):
    """Palette at most floor(3*omega/2) across 1000 small and 100 large
    seeded convex instances, all colorings proper, within 60 seconds."""
    total = 0.0
    worst = 0.0
    for inst in small_colored + large_colored:
        bound = (3 * inst.omega) // 2
        assert inst.palette <= bound, (
            f"palette {inst.palette} exceeds bound {bound}"
        )
        total += inst.runtime_s
        worst = max(worst, inst.palette / inst.omega)
    assert total < 60.0, f"corpus took {total:.1f}s"
    print(f"\nACCEPTANCE 1 upper-bound corpus: PASS "
          f"({len(small_colored)}+{len(large_colored)} instances, "
          f"max palette/omega {worst:.3f}, total {total:.1f}s)")


def test_criterion_2_lower_bound_family():
    """Exact (omega, chi) of the squares: (7, 7) at q=2, (11, 12) at q=4,
    both obeying chi >= 5*omega/4 - 2, within 30 seconds."""
    t0 = time.perf_counter()
    got = {}
    for q in (2, 4):
        stats = exact_stats(square(gen_lower_bound_H(q)))
        got[q] = (stats.omega, stats.chi)
        assert stats.chi >= 5 * stats.omega / 4 - 2
    elapsed = time.perf_counter() - t0
    assert got[2] == (7, 7), got
    assert got[4] == (11, 12), got
    assert elapsed < 30.0, f"oracle took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 lower-bound family: PASS "
          f"(q=2 -> {got[2]}, q=4 -> {got[4]}, {elapsed:.1f}s)")


def test_criterion_3_degree_bound(small_colored, large_colored):
    """K_nn uses exactly 2n = 2*Delta colors; the whole corpus stays
    within 2*Delta."""
    for n in (2, 3, 4):
        inst = _color_instance(gen_named("complete", n))
        assert inst.palette == 2 * n == 2 * max_degree(inst.graph)
    for inst in small_colored + large_colored:
        delta = max_degree(inst.graph)
        if delta:
            assert inst.palette <= 2 * delta
    print("\nACCEPTANCE 3 degree bound: PASS "
          "(K_nn exact for n=2,3,4; corpus within 2*Delta)")


def test_criterion_4_approximation_ratio(small_colored):
    """On the small corpus with the exact oracle: palette/chi <= 1.5, and
    the closed-form omega equals the oracle's."""
    worst = 0.0
    for inst in small_colored:
        stats = exact_stats(square(inst.graph))
        assert inst.omega == stats.omega
        chi = stats.chi
        if chi:
            ratio = inst.palette / chi
            assert ratio <= 1.5, f"ratio {ratio} exceeds 1.5"
            worst = max(worst, ratio)
    print(f"\nACCEPTANCE 4 approximation ratio: PASS "
          f"(max palette/chi = {worst:.3f} over {len(small_colored)})")


def test_criterion_5_figure_reproduction():
    """Exact structural facts of the four transcribed example graphs."""
    # not_perfect: square contains the induced C5 (v1..v5) and is not perfect
    g = gen_named("not_perfect")
    sq = square(g)
    assert (1, 2, 3, 7, 4) in find_induced_cycles(sq, 5, 5)
    assert not is_perfect_small(sq)

    # biconvex: an induced C4, no C5, perfect
    g = gen_named("biconvex")
    sq = square(g)
    assert find_induced_cycles(sq, 4, 4)
    assert not find_induced_cycles(sq, 5, 5)
    assert is_perfect_small(sq)

    # convex_c4free: square C4-free and chordal
    g = gen_named("convex_c4free")
    sq = square(g)
    assert not find_induced_cycles(sq, 4, sq.n)

    # antihole: {a2,b2,a3,b3,a4,b4} induce the complement of a 6-cycle
    g = gen_named("antihole")
    sq = square(g)
    ring = [1, 5, 2, 6, 3, 7]
    k = len(ring)
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            assert sq.has_edge(ring[i], ring[j]) == (not consecutive)
    print("\nACCEPTANCE 5 figure reproduction: PASS (all four figures)")


def test_criterion_6_structure_theorems(small_colored):
    """Every induced cycle in every small-corpus square passes the
    structure checks; cycle spectra are contiguous; zero failures."""
    cycles_checked = 0
    for inst in small_colored:
        g, layout = inst.graph, inst.layout
        sq = square(g)
        for cyc in find_induced_cycles(sq, 4, sq.n):
            report = verify_cycle_structure(g, layout, cyc)
            assert report.ok
            assert check_partite_count(g, layout, report)
            assert interior_emptiness(g, layout, report)
            cycles_checked += 1
        assert cycle_spectrum_check(g, layout)
    print(f"\nACCEPTANCE 6 structure theorems: PASS "
          f"({cycles_checked} cycles, zero failures)")


def test_criterion_7_biconvex_perfectness():
    """300 seeded staircase biconvex squares (up to 12+12): C5-free and
    perfect, zero failures."""
    for i in range(BICONVEX_TRIALS):
        seed = derive_seed(BASE_SEED + 2, i)
        rng = SplitMix64(seed)
        g = gen_random_biconvex(rng.randint(1, 12), rng.randint(1, 12), seed)
        sq = square(g)
        assert not find_induced_cycles(sq, 5, 5)
        assert is_perfect_small(sq)
    print(f"\nACCEPTANCE 7 biconvex perfectness: PASS "
          f"({BICONVEX_TRIALS} instances)")


def test_criterion_8_reduction():
    """Half-square isomorphism and sandwich for the fixed battery;
    omega = Delta + 1 for all girth-7 generator outputs."""
    def path(n):
        return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    def cyc(n):
        return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    petersen = SimpleGraph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )
    battery = [path(n) for n in (2, 4, 6)] + [cyc(n) for n in range(3, 10)]
    battery.append(petersen)
    for i in range(10):
        seed = derive_seed(BASE_SEED + 3, i)
        rng = SplitMix64(seed)
        n = rng.randint(1, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        battery.append(SimpleGraph.from_edges(n, edges))
    for g in battery:
        b_g, smap = split_reduction(g)
        assert check_halfsquare_iso(g, b_g, smap)
        assert check_sandwich(g, b_g)

    girth7 = [
        gen_girth7("long_cycle", {"n": n}) for n in (7, 8, 9, 12)
    ] + [
        gen_girth7("tree", {"branching": 2, "depth": d}) for d in (2, 3, 4)
    ] + [
        gen_girth7("subdivided_random", {"n": 8, "p": 0.4}, seed=s)
        for s in (1, 7, 23)
    ]
    checked = 0
    for sg in girth7:
        assert girth(sg) >= 7
        if max_degree(sg) >= 2:
            assert check_omega_delta_girth(sg)
            checked += 1
    assert checked >= 8
    print(f"\nACCEPTANCE 8 reduction: PASS "
          f"({len(battery)} battery graphs, {checked} girth-7 graphs)")


def test_criterion_9_proof_assertions(small_corpus, large_corpus,
                                      small_colored, large_colored):
    """No AlgorithmInvariantViolation across corpus runs with assertions
    enabled.  The default-rule runs of criteria 1-6 already executed with
    assertions on (fixtures would have raised); this adds a pass over a
    corpus slice that takes the highest free color, which drives the pivot
    machinery itself."""
    pivots = swaps = 0
    for g in small_corpus[:200] + large_corpus[:20]:
        layout = recognize_convex(g)
        omega = clique_number_square(g, layout)
        trace = []
        try:
            with highest_free_color():
                coloring = color_square_convex(g, layout, trace=trace)
        except AlgorithmInvariantViolation as exc:  # pragma: no cover
            pytest.fail(f"invariant violation: {exc}")
        assert verify_coloring(square(g), coloring)
        assert coloring.palette <= (3 * omega) // 2
        pivots += sum(1 for e in trace if e[0] == "pivot")
        swaps += sum(1 for e in trace if e[0] == "swap")
    print(f"\nACCEPTANCE 9 proof assertions: PASS "
          f"(default-rule corpus clean; highest-rule slice clean, "
          f"{pivots} pivot events, {swaps} swaps)")
