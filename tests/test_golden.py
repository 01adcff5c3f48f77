"""Seeded CLI output, pinned byte for byte.

``data/color_golden.json`` holds, for every input of a fixed corpus and
each of ``color``, ``color --json``, ``color --trace`` and ``recognize``,
the sha256 digests of stdout and stderr and the exit code.  The corpus is
``gen random_convex 12 12 6`` at seeds 0..199, H(q) for even q <= 10,
K(n,n) for n <= 5, the named figures, and an empty, an edgeless and a
non-convex graph.

``data/oracle_golden.json`` holds the same for the exponential oracle
commands ``structure``, ``structure --summary``, ``holes`` and ``exact``,
on a smaller corpus: ``gen random_convex 8 8 4`` at seeds 0..39, H(2),
H(4), K(n,n) for n <= 5, the named figures and the three special graphs.

An intended change of output regenerates both files with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from functools import cache
from pathlib import Path

import pytest

from sqchroma import cli

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "color_golden.json"
ORACLE_FIXTURE = DATA / "oracle_golden.json"

COMMANDS = {
    "color": ["color", "-"],
    "color --json": ["color", "-", "--json"],
    "color --trace": ["color", "-", "--trace"],
    "recognize": ["recognize", "-"],
}
ORACLE_COMMANDS = {
    "structure": ["structure", "-"],
    "structure --summary": ["structure", "-", "--summary"],
    "holes": ["holes", "-"],
    "exact": ["exact", "-"],
}

_SHARED = (
    [f"complete {n}" for n in range(1, 6)]
    + [f"named {name}" for name in
       ("not_perfect", "antihole", "biconvex", "convex_c4free")]
)
_GENERATED = (
    [f"random_convex 12 12 6 --seed {seed}" for seed in range(200)]
    + [f"lower_bound_h {q}" for q in range(2, 11, 2)] + _SHARED
)
_ORACLE_GENERATED = (
    [f"random_convex 8 8 4 --seed {seed}" for seed in range(40)]
    + ["lower_bound_h 2", "lower_bound_h 4"] + _SHARED
)

# a pairwise-glued triple of intervals: no B-order makes all three consecutive
_NON_CONVEX = "p bip 4 3 9\n" + "".join(
    f"e {a} {b}\n" for a, b in
    [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2), (3, 0), (3, 2)])


def _call(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``cli.run``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@cache
def _generate(spec: str) -> str:
    code, out, err = _call(["gen", *spec.split()])
    assert code == 0 and err == "", spec
    return out


def corpus(specs=_GENERATED) -> dict[str, str]:
    """Input name -> graph text."""
    texts = {spec: _generate(spec) for spec in specs}
    texts["empty"] = "p bip 0 0 0\n"
    texts["edgeless"] = "p bip 3 4 0\n"
    texts["non-convex"] = _NON_CONVEX
    return texts


# fixture -> (its commands, the names of its inputs)
SUITES = {
    FIXTURE: (COMMANDS, _GENERATED),
    ORACLE_FIXTURE: (ORACLE_COMMANDS, _ORACLE_GENERATED),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(argv: list[str], text: str) -> dict:
    code, out, err = _call(argv, text)
    return {"exit": code, "stdout": _digest(out), "stderr": _digest(err)}


def table(fixture: Path) -> dict:
    """What ``fixture`` should hold: command -> input name -> outcome."""
    commands, specs = SUITES[fixture]
    texts = corpus(specs)
    return {command: {name: outcome(argv, text) for name, text in texts.items()}
            for command, argv in commands.items()}


# command -> the fixture that pins it
_FIXTURE_OF = {command: fixture for fixture, (commands, _) in SUITES.items()
               for command in commands}


@pytest.mark.parametrize("command", _FIXTURE_OF)
def test_output_matches_golden(command):
    fixture = _FIXTURE_OF[command]
    want = json.loads(fixture.read_text(encoding="utf-8"))[command]
    commands, specs = SUITES[fixture]
    got = {name: outcome(commands[command], text)
           for name, text in corpus(specs).items()}
    assert got.keys() == want.keys()
    changed = [name for name in got if got[name] != want[name]]
    assert not changed, f"{len(changed)} outputs changed, first {changed[:5]}"


def test_golden_corpus_reaches_reject_and_pivot():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert {e["exit"] for e in want["color"].values()} == {0, 1}
    code, _, err = _call(COMMANDS["color --trace"],
                         corpus()["random_convex 12 12 6 --seed 76"])
    assert code == 0 and "trace: pivot " in err


def test_oracle_corpus_reaches_holes_and_reject():
    want = json.loads(ORACLE_FIXTURE.read_text(encoding="utf-8"))
    # structure refuses non-convex input and passes on convex input
    assert want["structure"]["non-convex"]["exit"] == 1
    assert want["structure"]["lower_bound_h 4"]["exit"] == 0
    holes = {name: _call(ORACLE_COMMANDS["holes"], text)[1].splitlines()[-1]
             for name, text in corpus(_ORACLE_GENERATED).items()}
    assert holes["lower_bound_h 4"] == "total=1152"
    assert sum(total != "total=0" for total in holes.values()) > 10


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    for fixture in SUITES:
        fixture.write_text(json.dumps(table(fixture), indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
