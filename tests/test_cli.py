import argparse
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sqchroma
from sqchroma import cli, coloring, convexity, oracle
from sqchroma.cli import CSV_COLUMNS, ExperimentRecord, experiment_ratio_sweep, run
from sqchroma.coloring import Coloring
from sqchroma.convexity import ConvexLayout
from sqchroma.core import (
    BipartiteGraph,
    SimpleGraph,
    read_bipartite_text,
    read_simple_text,
    vertex_names,
    write_bipartite_text,
    write_simple_text,
)
from sqchroma.errors import BudgetExceeded, LayoutMismatch
from sqchroma.generators import NAMED_GRAPHS, gen_lower_bound_H, gen_named


@pytest.fixture
def np_file(tmp_path):
    path = tmp_path / "np.bip"
    path.write_text(write_bipartite_text(gen_named("not_perfect")))
    return str(path)


@pytest.fixture
def nonconvex_file(tmp_path):
    # pairwise-glued triple: not convex
    text = "p bip 4 3 9\n" + "\n".join(
        f"e {a} {b}" for a, b in
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2), (3, 0), (3, 2)]
    ) + "\n"
    path = tmp_path / "nc.bip"
    path.write_text(text)
    return str(path)


def test_recognize_convex_output(np_file, capsys):
    assert run(["recognize", np_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("CONVEX")
    assert "b-order:" in out and "intervals" in out


def test_recognize_biconvex_output(tmp_path, capsys):
    path = tmp_path / "bc.bip"
    path.write_text(write_bipartite_text(gen_named("biconvex")))
    assert run(["recognize", str(path)]) == 0
    assert capsys.readouterr().out.startswith("BICONVEX")


def test_recognize_runs_the_b_side_recognition_once(tmp_path, capsys,
                                                    monkeypatch):
    calls = []
    real = convexity.recognize_convex

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(cli, "recognize_convex", counted)
    monkeypatch.setattr(convexity, "recognize_convex", counted)
    path = tmp_path / "bc.bip"
    path.write_text(write_bipartite_text(gen_named("biconvex")))
    assert run(["recognize", str(path)]) == 0
    assert capsys.readouterr().out.startswith("BICONVEX")
    # once per side: the input's B side, and its A side as the B side of
    # the graph whose rows are the input's B-rows (``consecutive_order``)
    assert len(calls) == 2 and calls[0] is not calls[1]


def test_recognize_nonconvex_output(nonconvex_file, capsys):
    assert run(["recognize", nonconvex_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("NOT CONVEX")
    assert "gap triple" in out


def test_color_exit_codes(np_file, nonconvex_file, capsys):
    assert run(["color", np_file]) == 0
    capsys.readouterr()
    assert run(["color", nonconvex_file]) == 1
    assert "NOT CONVEX" in capsys.readouterr().err


def test_color_text_and_json_agree(np_file, capsys):
    assert run(["color", np_file]) == 0
    text = capsys.readouterr().out
    assert run(["color", np_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    header = text.splitlines()[0]
    palette = int(header.split()[0].split("=")[1])
    omega = int(header.split()[1].split("=")[1])
    bound = int(header.split()[2].split("=")[1])
    assert obj["palette"] == palette
    assert obj["omega"] == omega
    assert obj["bound"] == bound
    text_colors = {}
    for line in text.splitlines()[1:]:
        _, name, color = line.split()
        text_colors[name] = int(color)
    assert obj["colors"] == text_colors
    assert palette <= bound


# side sizes whose names cross a digit-length boundary, and empty sides
_SIDES = st.integers(0, 12) | st.sampled_from([9, 10, 11, 99, 100, 101])


@given(st.data())
def test_coloring_json_is_json_dumps_with_sorted_keys(data):
    n_a, n_b = data.draw(_SIDES), data.draw(_SIDES)
    n = n_a + n_b
    colors = data.draw(st.lists(st.integers(0, 10**6), min_size=n,
                                max_size=n))
    omega, palette = data.draw(st.integers(0, 99)), data.draw(st.integers(0, 99))
    g = BipartiteGraph(n_a, n_b, ((),) * n_a)
    want = json.dumps({
        "palette": palette,
        "omega": omega,
        "bound": (3 * omega) // 2,
        "colors": dict(zip(vertex_names(n_a, n_b), colors)),
    }, sort_keys=True) + "\n"
    assert cli._coloring_json(g, Coloring(dict(enumerate(colors)), palette),
                              omega) == want


def test_color_rejects_omega_and_budget_flags(np_file, capsys):
    # omega comes from the layout in closed form: nothing to pass or bound
    assert run(["color", np_file, "--omega", "5"]) == 2
    assert run(["color", np_file, "--budget", "100"]) == 2
    assert capsys.readouterr().out == ""


def test_color_failed_final_check_is_one_line(np_file, capsys, monkeypatch):
    monkeypatch.setattr(coloring, "verify_square_coloring", lambda g, c: False)
    assert run(["color", np_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_package_error_is_one_line(np_file, capsys, monkeypatch):
    def fail(g):
        raise LayoutMismatch("the layout is of another graph")

    monkeypatch.setattr(cli, "recognize_convex", fail)
    assert run(["color", np_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the layout is of another graph\n"


# a cached property that each command computes: color no longer reads the
# B-neighborhoods without a pivot round, but it orders A by left end
_ALLOCATED_BY = {"color": (ConvexLayout, "by_left"),
                 "recognize": (BipartiteGraph, "b_adj"),
                 "exact": (BipartiteGraph, "b_adj")}


@pytest.mark.parametrize("command", ["color", "recognize", "exact"])
def test_running_out_of_memory_is_one_error_line(np_file, command, capsys,
                                                 monkeypatch):
    # a header within the vertex cap can still ask for more memory than
    # the process has; a MemoryError in an array a command builds is one
    # error line, not a traceback
    def exhausted(obj):
        raise MemoryError

    owner, name = _ALLOCATED_BY[command]
    monkeypatch.setattr(owner.__dict__[name], "func", exhausted)
    assert run([command, np_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_color_fails_closed_when_a_placeable_row_is_refused(
        tmp_path, capsys, monkeypatch):
    # the staircase on labels 0, 2, 1, 3, that is {0,2}, {1,2}, {1,3}, has
    # a consecutive order: an engine that refuses its second row is at
    # fault, so color reports a failed proof-backed check, not NOT CONVEX
    real = convexity._Cells.place
    monkeypatch.setattr(convexity._Cells, "place",
                        lambda cells, row: row != {1, 2} and real(cells, row))
    path = tmp_path / "staircase.bip"
    path.write_text("p bip 3 4 6\ne 0 0\ne 0 2\ne 1 2\ne 1 1\ne 2 1\ne 2 3\n")
    assert run(["color", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: a row failed to place, but every "
                            "row of its class fits the cells\n")


# files of at most 20 bytes whose problem line asks for 10^8 vertices
_HEADER_PROBES = [(command, text)
                  for text in ("p bip 100000000 1 0\n", "p bip 1 100000000 0\n")
                  for command in ("color", "recognize", "exact")
                  ] + [("exact", "p gen 100000000 0\n")]


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
@pytest.mark.parametrize("command, text", _HEADER_PROBES)
def test_oversized_header_is_one_error_line_in_a_process(command, text):
    # as a process under a 2 GB address-space limit: the header is refused
    # before anything is allocated for its vertices, so no MemoryError
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(sqchroma.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "sqchroma.cli", command, "-"],
                          input=text, capture_output=True, text=True,
                          env={"PYTHONPATH": src}, preexec_fn=limit,
                          timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "error: line 1: vertex count 100000000 exceeds the limit "
               "16777216\n")


def test_color_trace(np_file, capsys):
    assert run(["color", np_file, "--trace"]) == 0
    err = capsys.readouterr().err
    assert "trace:" in err


def test_exact_on_square(np_file, capsys):
    assert run(["exact", np_file]) == 0
    assert capsys.readouterr().out.strip() == "chi=5 omega=5"


def test_exact_raw_bipartite(np_file, capsys):
    # the bipartite graph itself is 2-chromatic
    assert run(["exact", np_file, "--raw"]) == 0
    assert capsys.readouterr().out.strip() == "chi=2 omega=2"


@pytest.mark.parametrize("g", [gen_named(name, 3) if name == "complete"
                               else gen_named(name) for name in NAMED_GRAPHS]
                         + [gen_lower_bound_H(2)])
@pytest.mark.parametrize("command", ["exact", "holes"])
def test_raw_bipartite_reads_as_its_general_graph(tmp_path, capsys, g,
                                                  command):
    # --raw on a p bip file works on G itself, on the global order
    bip, gen = tmp_path / "g.bip", tmp_path / "g.gen"
    bip.write_text(write_bipartite_text(g))
    gen.write_text(write_simple_text(SimpleGraph.from_edges(
        g.n_a + g.n_b, [(a, g.n_a + b) for a, b in g.edges()])))
    assert run([command, "--raw", str(gen)]) == 0
    expected = capsys.readouterr()
    assert run([command, "--raw", str(bip)]) == 0
    assert capsys.readouterr() == expected


def test_holes_listing(np_file, capsys):
    assert run(["holes", np_file]) == 0
    out = capsys.readouterr().out
    assert "cycle length=5" in out and "total=3" in out


@pytest.mark.parametrize("max_len, total", [(None, 3), (5, 3), (4, 2),
                                              (3, 0), (1, 0), (0, 0)])
def test_holes_max_len_is_a_limit_even_at_zero(np_file, capsys, max_len,
                                               total):
    # not_perfect's square has induced cycles of lengths 4, 4 and 5
    flags = [] if max_len is None else ["--max-len", str(max_len)]
    assert run(["holes", np_file, *flags]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"total={total}"


def test_structure_reports(np_file, capsys):
    assert run(["structure", np_file]) == 0
    out = capsys.readouterr().out
    assert "common-a: A0" in out
    assert "passed=3" in out


def test_structure_summary(np_file, capsys):
    assert run(["structure", np_file, "--summary"]) == 0
    out = capsys.readouterr().out
    assert out.strip().startswith("cycles=3 passed=3")


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.bip"
    assert run(["gen", "random_convex", "6", "6", "3", "--seed", "5",
                "-o", str(out)]) == 0
    g = read_bipartite_text(out.read_text())
    assert g.n_a == 6 and g.n_b == 6


def test_gen_girth7_writes_general_format(tmp_path):
    out = tmp_path / "g.gen"
    assert run(["gen", "girth7", "long_cycle", "--n", "9",
                "-o", str(out)]) == 0
    sg = read_simple_text(out.read_text())
    assert sg.n == 9 and sg.m == 9


def test_reduce_pipeline(tmp_path, capsys):
    gen_path = tmp_path / "c5.gen"
    gen_path.write_text("p gen 5 5\n" + "\n".join(
        f"e {i} {(i + 1) % 5}" for i in range(5)) + "\n")
    out = tmp_path / "c5.bip"
    assert run(["reduce", str(gen_path), "-o", str(out)]) == 0
    b_g = read_bipartite_text(out.read_text())
    assert b_g.n_a == b_g.n_b == 5 and b_g.m == 15
    # the pipeline continues: recognize reports NOT CONVEX for this one
    assert run(["recognize", str(out)]) == 0
    assert capsys.readouterr().out.startswith("NOT CONVEX")


def test_experiment_csv(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    assert run(["experiment", "--family", "lower_bound_H", "--q", "2",
                "--trials", "1", "--with-exact", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_COLUMNS
    fields = lines[1].split(",")
    assert fields[0] == "lower_bound_H[q=2]"
    assert fields[3] == "7" and fields[5] == "7"  # omega, exact chi
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 1
    assert summary["ratio_to_omega"]["max"] <= 1.5


def test_experiment_json_lines(capsys):
    assert run(["experiment", "--family", "random_convex", "--trials", "3",
                "--seed", "11", "--n-a", "6", "--n-b", "6",
                "--max-interval-len", "4", "--with-exact", "--json"]) == 0
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert len(rows) == 3
    for row in rows:
        assert row["status"] == "ok"
        assert row["alg_palette"] <= (3 * row["omega"]) // 2
        assert row["ratio_to_chi"] <= 1.5


def test_experiment_lower_bound_sweep(capsys):
    # q sweeps 2, 4: exact/omega comes out 1.0 and 12/11
    assert run(["experiment", "--family", "lower_bound_H", "--q", "2",
                "--trials", "2", "--with-exact", "--json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["instance_id"] for r in rows] == \
        ["lower_bound_H[q=2]", "lower_bound_H[q=4]"]
    ratios = [r["exact_chi"] / r["omega"] for r in rows]
    assert ratios[0] == pytest.approx(1.0)
    assert ratios[1] == pytest.approx(12 / 11)
    for r in rows:
        assert r["alg_palette"] / r["omega"] >= 1.0


def test_experiment_budget_row_keeps_real_values(capsys, monkeypatch):
    def out_of_budget(h, budget=None):
        raise BudgetExceeded("budget exceeded", lower=7, upper=8, nodes=1)

    monkeypatch.setattr(cli, "exact_stats", out_of_budget)
    assert run(["experiment", "--family", "lower_bound_H", "--q", "2",
                "--trials", "1", "--with-exact", "--json"]) == 0
    captured = capsys.readouterr()
    row = json.loads(captured.out)
    assert row["status"] == "budget_exceeded"
    assert row["omega"] == 7 and row["alg_palette"] > 0
    assert row["ratio_to_omega"] == row["alg_palette"] / 7
    assert row["exact_chi"] is None and row["ratio_to_chi"] is None
    summary = json.loads(captured.err)
    assert summary["budget_exceeded"] == 1
    assert summary["ratio_to_omega"]["min"] == row["ratio_to_omega"]


def test_experiment_empty(capsys):
    assert run(["experiment", "--family", "random_convex",
                "--trials", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == CSV_COLUMNS
    summary = json.loads(captured.err)
    assert summary["trials"] == 0


def test_verify_roundtrip(np_file, tmp_path, capsys):
    col_path = tmp_path / "coloring.txt"
    assert run(["color", np_file, "-o", str(col_path)]) == 0
    assert run(["verify", np_file, str(col_path)]) == 0
    assert capsys.readouterr().out.strip().endswith("VALID")
    # corrupt one color
    bad = col_path.read_text().replace("v A1 ", "v A1 9990")
    bad_path = tmp_path / "bad.txt"
    bad_path.write_text(bad)
    assert run(["verify", np_file, str(bad_path)]) == 1


def test_verify_palette_far_above_the_colors_in_use(tmp_path, capsys):
    # the check groups the A-rows by the colors in use, so a palette of
    # 10^9 and a color near it allocate nothing by their value
    graph, col = tmp_path / "g.bip", tmp_path / "c.txt"
    graph.write_text("p bip 1 1 1\ne 0 0\n")
    col.write_text("palette=1000000000\nv A0 999999999\nv B0 7\n")
    assert run(["verify", str(graph), str(col)]) == 0
    assert capsys.readouterr() == ("VALID\n", "")


def test_verify_json_coloring(np_file, tmp_path, capsys):
    col_path = tmp_path / "coloring.json"
    assert run(["color", np_file, "--json", "-o", str(col_path)]) == 0
    assert run(["verify", np_file, str(col_path)]) == 0


def test_verify_json_without_palette_uses_largest_color(np_file, tmp_path,
                                                       capsys):
    col_path = tmp_path / "coloring.json"
    assert run(["color", np_file, "--json", "-o", str(col_path)]) == 0
    obj = json.loads(col_path.read_text())
    del obj["palette"]
    col_path.write_text(json.dumps(obj))
    assert run(["verify", np_file, str(col_path)]) == 0
    assert capsys.readouterr().out == "VALID\n"


@pytest.mark.parametrize("text", ['{"palette": 6}', '{"colors": [1, 2]}'])
def test_verify_json_without_colors_object(np_file, tmp_path, capsys, text):
    col_path = tmp_path / "coloring.json"
    col_path.write_text(text)
    assert run(["verify", np_file, str(col_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 'error: coloring JSON needs a "colors" object\n'


def test_verify_deeply_nested_json_is_one_error_line(np_file, tmp_path,
                                                     capsys):
    depth = 200_000
    col_path = tmp_path / "coloring.json"
    col_path.write_text('{"colors": ' + "[" * depth + "]" * depth + "}")
    assert run(["verify", np_file, str(col_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coloring JSON is nested too deeply\n"


@pytest.mark.parametrize("color", ["x", 1.5, True, None, [1]])
def test_verify_rejects_non_integer_color(np_file, tmp_path, capsys, color):
    col_path = tmp_path / "coloring.json"
    col_path.write_text(json.dumps({"colors": {"A0": color}, "palette": 3}))
    assert run(["verify", np_file, str(col_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: color of A0 must be an integer")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("palette", ["3", 3.0, False])
def test_verify_rejects_non_integer_palette(np_file, tmp_path, capsys,
                                            palette):
    col_path = tmp_path / "coloring.json"
    assert run(["color", np_file, "--json", "-o", str(col_path)]) == 0
    obj = json.loads(col_path.read_text())
    obj["palette"] = palette
    col_path.write_text(json.dumps(obj))
    assert run(["verify", np_file, str(col_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: palette must be an integer")
    assert captured.err.count("\n") == 1


def _color_file(np_file, tmp_path, *flags):
    path = tmp_path / ("coloring.json" if flags else "coloring.txt")
    assert run(["color", np_file, "-o", str(path), *flags]) == 0
    return path


def _drop_b0_add_a4_json(obj):
    # n_a = 4, so "A4" names no vertex; global index 4 is B0
    obj["colors"]["A4"] = obj["colors"].pop("B0")


def _drop_b0_add_a4_text(lines):
    color = next(ln for ln in lines if ln.startswith("v B0 ")).split()[2]
    return [ln for ln in lines if not ln.startswith("v B0 ")] + [f"v A4 {color}"]


@pytest.mark.parametrize("edit", [
    _drop_b0_add_a4_json,
    lambda obj: obj["colors"].update(B99=1),
    lambda obj: obj["colors"].update({"A-1": 1}),
    lambda obj: obj["colors"].update({"": 1}),
    lambda obj: obj["colors"].update(A01=1),
    lambda obj: obj["colors"].update(C0=1),
], ids=["alias_of_B0", "B99", "A-1", "empty", "A01", "C0"])
def test_verify_json_rejects_unknown_vertex(np_file, tmp_path, capsys, edit):
    path = _color_file(np_file, tmp_path, "--json")
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", np_file, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown vertex ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("edit, message", [
    (_drop_b0_add_a4_text, "error: unknown vertex 'A4'\n"),
    (lambda lines: lines + ["v B99 1"], "error: unknown vertex 'B99'\n"),
    (lambda lines: lines + ["v A-1 1"], "error: unknown vertex 'A-1'\n"),
    (lambda lines: lines + ["v A0"],
     "error: line 10: expected 'v <vertex> <color>'\n"),
    (lambda lines: lines + ["v A0 1 2"],
     "error: line 10: expected 'v <vertex> <color>'\n"),
], ids=["alias_of_B0", "B99", "A-1", "too_few_fields", "too_many_fields"])
def test_verify_text_rejects_malformed_line(np_file, tmp_path, capsys, edit,
                                            message):
    path = _color_file(np_file, tmp_path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert run(["verify", np_file, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


# the coloring file's colors and palette follow the graph reader's rule
@pytest.mark.parametrize("token", ["x", "1_0", "+1", "\u0661"])
@pytest.mark.parametrize("field", ["color", "palette"])
def test_verify_text_reads_integers_as_the_graph_reader_does(
        np_file, tmp_path, capsys, field, token):
    path = _color_file(np_file, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("palette=") and lines[1].startswith("v A0 ")
    if field == "palette":
        lines[0] = f"palette={token}"
        message = (f"error: line 1: palette must be a decimal integer, "
                   f"got {token!r}\n")
    else:
        lines[1] = f"v A0 {token}"
        message = (f"error: line 2: color of A0 must be a decimal integer, "
                   f"got {token!r}\n")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["verify", np_file, str(path)]) == 1
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("text", ["p bip 2 2 7\ne 0 0\n",
                                  "p bip 2 2 0\ne 0 0\n",
                                  "p gen 3 1\ne 0 1\ne 1 2\n"])
def test_header_edge_count_must_match(tmp_path, capsys, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    cmd = ["exact", "--raw"] if " gen " in text else ["color"]
    assert run(cmd + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: problem line says m = ")
    assert captured.err.count("\n") == 1


def test_usage_error_exit_code(capsys):
    assert run(["color"]) == 2
    assert run(["no-such-command"]) == 2


def test_missing_file_domain_error(capsys):
    assert run(["color", "/nonexistent/file.bip"]) == 1


_OUT_OF_RANGE = {"bip": ("p bip 1 1 1\ne 0 5\n",
                         "error: B-endpoint 5 out of range (n_b=1)\n"),
                 "gen": ("p gen 2 1\ne 0 5\n",
                         "error: edge (0, 5) out of range for n=2\n")}


@pytest.mark.parametrize("kind, command", [
    ("bip", "color"), ("bip", "recognize"), ("bip", "exact"), ("bip", "holes"),
    ("bip", "structure"), ("bip", "verify"),
    ("gen", "reduce"), ("gen", "exact"), ("gen", "holes")])
def test_edge_endpoint_out_of_range_is_one_line(tmp_path, capsys, kind,
                                                command):
    text, message = _OUT_OF_RANGE[kind]
    path = tmp_path / "g.txt"
    path.write_text(text)
    # verify reads the graph before its coloring file
    files = [str(path)] * (2 if command == "verify" else 1)
    assert run([command] + files) == 1
    assert capsys.readouterr() == ("", message)


# int() alone would read "1_0" as 10 and "+1" and "\u0661" as 1, and would
# refuse "x" without a line number
@pytest.mark.parametrize("token", ["x", "1_0", "+1", "\u0661"])
@pytest.mark.parametrize("kind, command", [
    ("bip", "color"), ("bip", "recognize"), ("bip", "exact"), ("bip", "holes"),
    ("bip", "structure"), ("bip", "verify"),
    ("gen", "reduce"), ("gen", "exact"), ("gen", "holes")])
def test_edge_endpoint_not_an_integer_is_one_line(tmp_path, capsys, kind,
                                                  command, token):
    header = "p bip 2 20 2" if kind == "bip" else "p gen 20 2"
    path = tmp_path / "g.txt"
    path.write_text(f"c first\n{header}\ne 0 1\ne 1 {token}\n",
                    encoding="utf-8")
    files = [str(path)] * (2 if command == "verify" else 1)
    assert run([command] + files) == 1
    assert capsys.readouterr() == (
        "", f"error: line 4: edge endpoints must be decimal integers, "
            f"got 'e 1 {token}'\n")


@pytest.fixture
def h4_file(tmp_path):
    path = tmp_path / "h4.bip"
    path.write_text(write_bipartite_text(gen_lower_bound_H(4)))
    return str(path)


def _structure_h4(h4_file, capsys):
    assert run(["structure", h4_file, "--summary"]) == 0
    assert capsys.readouterr().out == (
        "cycles=1152 passed=1152 spectrum_contiguous=True\n")


def test_structure_builds_the_square_once(h4_file, monkeypatch, capsys):
    # every per-cycle check asks for square(g); it is built on the first ask
    builds = []
    cached = BipartiteGraph.__dict__.get("square")
    assert isinstance(cached, functools.cached_property)
    build = cached.func
    monkeypatch.setattr(cached, "func", lambda g: builds.append(g) or build(g))
    _structure_h4(h4_file, capsys)
    assert len(builds) == 1


def test_structure_enumerates_cycles_once(h4_file, monkeypatch, capsys):
    # the spectrum verdict is read off the cycles the reports were made from
    enumerations = []
    enumerate_cycles = oracle.iter_induced_cycles
    monkeypatch.setattr(oracle, "iter_induced_cycles",
                        lambda *a: enumerations.append(a) or enumerate_cycles(*a))
    _structure_h4(h4_file, capsys)
    assert len(enumerations) == 1


def test_color_computes_omega_once(np_file, monkeypatch, capsys):
    # _cmd_color prints omega and color_square_convex sizes its palette
    # by it; both read the one value cached on the layout
    sweeps = []
    cached = ConvexLayout.__dict__["omega"]
    sweep = cached.func
    monkeypatch.setattr(cached, "func",
                        lambda layout: sweeps.append(layout) or sweep(layout))
    assert run(["color", np_file]) == 0
    assert capsys.readouterr().out.startswith("palette=6 omega=5 bound=7\n")
    assert len(sweeps) == 1


# ---------------------------------------------------------------------------
# repeated run() calls in one process


def test_parser_built_once_across_runs(np_file, monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(["color", np_file]) == 0
    after_first = len(built)
    for argv in (["color", np_file, "--json"], ["exact", np_file],
                 ["structure", np_file, "--summary"], ["color"],
                 ["color", "--help"], ["gen", "named", "not_perfect"]) * 5:
        run(argv)
    assert len(built) == after_first


def test_color_options_do_not_carry_over(np_file, tmp_path, capsys):
    assert run(["color", np_file]) == 0
    text = capsys.readouterr().out
    assert run(["color", np_file, "--json", "--trace",
                "-o", str(tmp_path / "c.json")]) == 0
    assert "trace:" in capsys.readouterr().err
    assert run(["color", np_file]) == 0
    assert capsys.readouterr() == (text, "")


def test_exact_budget_does_not_carry_over(np_file, monkeypatch, capsys):
    budgets = []
    real = cli.exact_stats

    def spy(h, budget=None):
        budgets.append(budget)
        return real(h, budget)

    monkeypatch.setattr(cli, "exact_stats", spy)
    run(["exact", np_file, "--budget", "1"])
    capsys.readouterr()
    assert run(["exact", np_file]) == 0
    assert budgets == [1, None]
    assert capsys.readouterr().out == "chi=5 omega=5\n"


@pytest.mark.parametrize("value", ["abc", "1_000", "+5"])
def test_budget_variable_named_in_its_error(np_file, monkeypatch, capsys,
                                            value):
    monkeypatch.setenv("SQCHROMA_BUDGET", value)
    assert run(["exact", np_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: SQCHROMA_BUDGET must be a decimal integer, got {value!r}\n")


@pytest.mark.parametrize("value", ["-3", "-1"])
def test_negative_budget_variable_is_one_error_line(np_file, monkeypatch,
                                                    capsys, value):
    monkeypatch.setenv("SQCHROMA_BUDGET", value)
    assert run(["exact", np_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: SQCHROMA_BUDGET must be 0 or more, got {value!r}\n")


# every integer option of the parser, its value marked X
_INTEGER_OPTIONS = [
    ["exact", "F", "--budget", "X"],
    ["experiment", "--family", "complete", "--budget", "X"],
    ["holes", "F", "--min-len", "X"],
    ["holes", "F", "--max-len", "X"],
    ["gen", "random_convex", "X", "3", "2"],
    ["gen", "random_convex", "3", "X", "2"],
    ["gen", "random_convex", "3", "3", "X"],
    ["gen", "random_convex", "3", "3", "2", "--seed", "X"],
    ["gen", "random_biconvex", "X", "3"],
    ["gen", "random_biconvex", "3", "X"],
    ["gen", "random_biconvex", "3", "3", "--seed", "X"],
    ["gen", "lower_bound_h", "X"],
    ["gen", "complete", "X"],
    ["gen", "girth7", "tree", "--n", "X"],
    ["gen", "girth7", "tree", "--branching", "X"],
    ["gen", "girth7", "tree", "--depth", "X"],
    ["gen", "girth7", "tree", "--seed", "X"],
] + [["experiment", "--family", "complete", option, "X"]
     for option in ("--trials", "--seed", "--n-a", "--n-b",
                    "--max-interval-len", "--q", "--n")]


def _with_value(argv, value, np_file):
    return [{"X": value, "F": np_file}.get(arg, arg) for arg in argv]


@pytest.mark.parametrize("argv", _INTEGER_OPTIONS, ids=" ".join)
@pytest.mark.parametrize("value", ["abc", "1_000", " +5", "+5", "\u0661"])
def test_integer_options_read_by_the_format_rule(np_file, capsys, argv,
                                                 value):
    # read as edge endpoints and SQCHROMA_BUDGET are: -?[0-9]+, else the
    # usage error that int() gives abc
    assert run(_with_value(argv, value, np_file)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: sqchroma ")
    assert captured.err.endswith(f"invalid int value: {value!r}\n")


@pytest.mark.parametrize("argv", _INTEGER_OPTIONS, ids=" ".join)
def test_integer_options_take_negative_decimals(np_file, argv):
    # -3 parses as it did under int(), and only the marked option differs
    parse = cli._build_parser().parse_args
    got = vars(parse(_with_value(argv, "-3", np_file)))
    base = vars(parse(_with_value(argv, "7", np_file)))
    assert [(got[k], base[k]) for k in got if got[k] != base[k]] == [(-3, 7)]


# the integer options whose negative values mean nothing
_NON_NEGATIVE_OPTIONS = [
    ["exact", "F", "--budget", "X"],
    ["experiment", "--family", "complete", "--budget", "X"],
    ["holes", "F", "--min-len", "X"],
    ["experiment", "--family", "complete", "--trials", "X"],
]


@pytest.mark.parametrize("argv", _NON_NEGATIVE_OPTIONS, ids=" ".join)
@pytest.mark.parametrize("value", ["-3", "-1"])
def test_negative_option_is_a_usage_error(np_file, capsys, argv, value):
    # checked after parsing: exit 2, nothing on stdout, the subcommand's
    # usage and one error line naming the option
    assert run(_with_value(argv, value, np_file)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: sqchroma {argv[0]} ")
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"sqchroma {argv[0]}: error: argument {argv[-2]}: "
                      f"must be 0 or more, not {value}"]


@pytest.mark.parametrize("argv", _NON_NEGATIVE_OPTIONS, ids=" ".join)
def test_non_negative_options_take_zero(np_file, capsys, argv):
    # 0 is in range: a budget of 0 runs out at once (exit 1), the others
    # run (exit 0)
    code = run(_with_value(argv, "0", np_file))
    assert code == (1 if argv[0] == "exact" else 0)
    assert "usage:" not in capsys.readouterr().err


def test_budget_message_prints_known_bounds(tmp_path, capsys):
    path = tmp_path / "h4.bip"
    path.write_text(write_bipartite_text(gen_lower_bound_H(4)))
    assert run(["exact", str(path), "--budget", "10"]) == 1
    assert capsys.readouterr() == (
        "", "budget exceeded after 11 nodes (bounds: 11..14)\n")


def test_budget_message_names_an_unknown_bound(np_file, capsys, monkeypatch):
    # the clique search ran out before any upper bound on chi existed
    assert run(["exact", np_file, "--budget", "0"]) == 1
    assert capsys.readouterr() == (
        "", "budget exceeded after 1 nodes (bounds: 5..unknown)\n")

    def nothing_known(h, budget=None):
        raise BudgetExceeded("budget exceeded", nodes=0)

    monkeypatch.setattr(cli, "exact_stats", nothing_known)
    assert run(["exact", np_file]) == 1
    assert capsys.readouterr() == (
        "", "budget exceeded after 0 nodes (bounds: unknown..unknown)\n")


def test_good_call_after_usage_errors(np_file, capsys):
    assert run(["color", np_file]) == 0
    want = capsys.readouterr()
    for argv in (["color"], ["color", np_file, "--bogus"], ["no-such-command"],
                 ["exact", np_file, "--budget", "x"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: sqchroma") and "error:" in err
    assert run(["color", np_file]) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["color", "--help"], 0),
                                        (["gen", "random_convex", "-h"], 0),
                                        (["experiment", "--bogus"], 2)])
def test_help_and_usage_repeat_byte_for_byte(monkeypatch, capsys, argv, code):
    def output(columns):
        monkeypatch.setenv("COLUMNS", columns)
        assert run(argv) == code
        return capsys.readouterr()

    wide, narrow = output("200"), output("40")
    # the width is read when the text is printed, not when the parser is built
    assert wide != narrow
    assert output("200") == wide and output("40") == narrow


def test_ratio_sweep_aggregation():
    records = [
        ExperimentRecord("a", 2, 2, 4, 5, 4, 1.25, 1.25, 1.0),
        ExperimentRecord("b", 2, 2, 4, 4, None, 1.0, None, 1.0),
        ExperimentRecord("c", 2, 2, 0, 0, None, 0.0, None, 1.0,
                         status="budget_exceeded"),
    ]
    summary = experiment_ratio_sweep(records)
    assert summary["trials"] == 3
    assert summary["budget_exceeded"] == 1
    assert summary["ratio_to_omega"]["max"] == 1.25
    assert summary["ratio_to_chi"]["mean"] == 1.25
