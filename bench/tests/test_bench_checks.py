"""Tests of the benchmark's own output checks and reference values.

Run from the repository root:  python3 -m pytest bench/tests -q

Each check must accept the program's real output and reject a corrupted
copy of it.  The program is used here only to produce those outputs and,
for omega_ref, as the exact oracle to agree with.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import instances  # noqa: E402
from run import call, validate_construction  # noqa: E402
from sqchroma import cli  # noqa: E402
from sqchroma.core import build_bipartite, square  # noqa: E402
from sqchroma.oracle import exact_clique  # noqa: E402


def to_graph(inst):
    return build_bipartite(inst.n_a, inst.n_b,
                           [(a, b) for a, row in enumerate(inst.rows) for b in row])


@pytest.fixture
def write(tmp_path):
    def _write(inst):
        path = tmp_path / "g.bip"
        path.write_text(instances.to_text(inst))
        return str(path)
    return _write


@pytest.fixture
def convex_inst():
    return instances.random_convex("t", random.Random(4), 14, 2, 5)


# ---------------------------------------------------------------------------
# omega_ref


def test_omega_ref_matches_exact_clique_on_small_convex_instances():
    rng = random.Random(2023)
    for k in range(300):
        n = rng.randint(1, 9)
        lo = rng.randint(1, n)
        inst = instances.random_convex(f"r{k}", rng, n, lo, rng.randint(lo, n))
        assert checks.omega_ref(inst) == exact_clique(square(to_graph(inst))), inst


def test_omega_ref_on_biconvex_and_complete():
    rng = random.Random(7)
    for k in range(60):
        inst = instances.random_biconvex(f"b{k}", rng, rng.randint(1, 10), 3)
        assert checks.omega_ref(inst) == exact_clique(square(to_graph(inst)))
    assert checks.omega_ref(instances.complete(5)) == 10


@pytest.mark.parametrize("q", [2, 4, 6, 10, 16])
def test_omega_ref_on_lower_bound_family(q):
    assert checks.omega_ref(instances.lower_bound_h(q)) == 2 * q + 3


# ---------------------------------------------------------------------------
# construction


def test_workload_instances_keep_their_promises():
    for make in instances.WORKLOADS.values():
        assert validate_construction(make(3)) == []


def test_inputs_depend_on_seed_only():
    for make in instances.WORKLOADS.values():
        assert make(5) == make(5)
        assert make(5) != make(6)


def test_program_rejects_the_gadget(write):
    inst = instances.with_tucker_gadget(instances.random_convex(
        "t", random.Random(1), 12, 2, 4))
    rc, out, err = call(cli, ("color", write(inst), "--json"))
    assert checks.check_color_output(inst, None, rc, out, err) == (None, None)


# ---------------------------------------------------------------------------
# color


def color_output(inst, path):
    rc, out, err = call(cli, ("color", path, "--json"))
    assert rc == 0
    return json.loads(out)


def test_color_check_accepts_program_output(convex_inst, write):
    rc, out, err = call(cli, ("color", write(convex_inst), "--json"))
    omega = checks.omega_ref(convex_inst)
    problem, ratio = checks.check_color_output(convex_inst, omega, rc, out, err)
    assert problem is None
    assert 1 <= ratio <= 1.5


def test_color_check_rejects_a_conflict(convex_inst, write):
    obj = color_output(convex_inst, write(convex_inst))
    # give B-vertex 0 the colour of one of its A-neighbours
    a = next(a for a, row in enumerate(convex_inst.rows) if 0 in row)
    obj["colors"]["B0"] = obj["colors"][f"A{a}"]
    problem, _ = checks.check_color_output(
        convex_inst, obj["omega"], 0, json.dumps(obj), "")
    assert "repeats a colour" in problem


def test_color_check_rejects_palette_above_bound(convex_inst, write):
    obj = color_output(convex_inst, write(convex_inst))
    big = 3 * obj["omega"] // 2 + 1
    obj["palette"] = big
    obj["colors"]["A0"] = big  # a fresh colour keeps the colouring proper
    problem, _ = checks.check_color_output(
        convex_inst, obj["omega"], 0, json.dumps(obj), "")
    assert "above floor" in problem


def test_color_check_rejects_wrong_omega(convex_inst, write):
    rc, out, err = call(cli, ("color", write(convex_inst), "--json"))
    omega = checks.omega_ref(convex_inst)
    problem, _ = checks.check_color_output(convex_inst, omega + 1, rc, out, err)
    assert problem.startswith("omega=")


def test_color_check_rejects_not_convex_on_convex_input(convex_inst):
    problem, _ = checks.check_color_output(
        convex_inst, checks.omega_ref(convex_inst), 1, "", "NOT CONVEX\n")
    assert problem is not None


# ---------------------------------------------------------------------------
# exact


@pytest.mark.parametrize("inst", [
    instances.lower_bound_h(2),
    instances.complete(4),
    instances.random_biconvex("b", random.Random(3), 12, 2),
], ids=lambda i: i.name)
def test_exact_check_accepts_and_rejects_wrong_chi(inst, write):
    rc, out, _ = call(cli, ("exact", write(inst)))
    omega = checks.omega_ref(inst)
    assert checks.check_exact_output(inst, omega, None, rc, out) is None
    chi, om = checks.parse_exact(out)
    bad = f"chi={chi + 1} omega={om}\n"
    assert checks.check_exact_output(inst, omega, None, rc, bad) is not None


def test_exact_check_on_random_convex_uses_palette(convex_inst, write):
    path = write(convex_inst)
    palette = color_output(convex_inst, path)["palette"]
    rc, out, _ = call(cli, ("exact", path))
    omega = checks.omega_ref(convex_inst)
    assert checks.check_exact_output(convex_inst, omega, palette, rc, out) is None
    assert checks.check_exact_output(
        convex_inst, omega, palette, rc, f"chi={palette + 1} omega={omega}") is not None
    assert checks.check_exact_output(
        convex_inst, omega, palette, rc, f"chi={omega - 1} omega={omega}") is not None


# ---------------------------------------------------------------------------
# holes and structure


def test_holes_check_accepts_and_rejects_a_chord(write):
    inst = instances.lower_bound_h(2)
    path = write(inst)
    rc, out, _ = call(cli, ("holes", path))
    problem, total = checks.check_holes_output(inst, rc, out)
    assert problem is None and total > 0
    # replace the first cycle by a 4-vertex sequence with a chord: z1 (A0)
    # sees every B-vertex, so A0-B0-A1-B1 has the chord A0-B1
    lines = out.splitlines()
    n_a = inst.n_a
    lines[0] = f"cycle length=4: 0 {n_a} 1 {n_a + 1}"
    problem, _ = checks.check_holes_output(inst, rc, "\n".join(lines) + "\n")
    assert "chord" in problem


def test_holes_check_rejects_a_wrong_total(write):
    inst = instances.lower_bound_h(2)
    rc, out, _ = call(cli, ("holes", write(inst)))
    bad = out.replace("total=", "total=1")
    assert checks.check_holes_output(inst, rc, bad)[0] is not None


def test_structure_check(write):
    inst = instances.lower_bound_h(2)
    path = write(inst)
    _, total = checks.check_holes_output(inst, *call(cli, ("holes", path))[:2])
    rc, out, _ = call(cli, ("structure", path, "--summary"))
    assert checks.check_structure_output(rc, out, total) is None
    assert checks.check_structure_output(rc, out, total + 1) is not None
    bad = out.replace(f"passed={total}", f"passed={total - 1}")
    assert checks.check_structure_output(rc, bad, total) is not None
