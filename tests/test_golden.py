"""Seeded CLI output, pinned byte for byte.

``data/color_golden.json`` holds, for every input of a fixed corpus and
each of ``color``, ``color --json``, ``color --trace`` and ``recognize``,
the sha256 digests of stdout and stderr and the exit code.  The corpus is
``gen random_convex 12 12 6`` at seeds 0..199, H(q) for even q <= 10,
K(n,n) for n <= 5, the named figures, and an empty, an edgeless and a
non-convex graph.  An intended change of output regenerates the file with

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

FIXTURE = Path(__file__).parent / "data" / "color_golden.json"

COMMANDS = {
    "color": ["color", "-"],
    "color --json": ["color", "-", "--json"],
    "color --trace": ["color", "-", "--trace"],
    "recognize": ["recognize", "-"],
}

_GENERATED = (
    [f"random_convex 12 12 6 --seed {seed}" for seed in range(200)]
    + [f"lower_bound_h {q}" for q in range(2, 11, 2)]
    + [f"complete {n}" for n in range(1, 6)]
    + [f"named {name}" for name in
       ("not_perfect", "antihole", "biconvex", "convex_c4free")]
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
def corpus() -> dict[str, str]:
    """Input name -> graph text."""
    texts = {}
    for spec in _GENERATED:
        code, out, err = _call(["gen", *spec.split()])
        assert code == 0 and err == "", spec
        texts[spec] = out
    texts["empty"] = "p bip 0 0 0\n"
    texts["edgeless"] = "p bip 3 4 0\n"
    texts["non-convex"] = _NON_CONVEX
    return texts


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(command: str, text: str) -> dict:
    code, out, err = _call(COMMANDS[command], text)
    return {"exit": code, "stdout": _digest(out), "stderr": _digest(err)}


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_golden(command):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))[command]
    got = {name: outcome(command, text) for name, text in corpus().items()}
    assert got.keys() == want.keys()
    changed = [name for name in got if got[name] != want[name]]
    assert not changed, f"{len(changed)} outputs changed, first {changed[:5]}"


def test_golden_corpus_reaches_reject_and_pivot():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert {e["exit"] for e in want["color"].values()} == {0, 1}
    code, _, err = _call(COMMANDS["color --trace"],
                         corpus()["random_convex 12 12 6 --seed 76"])
    assert code == 0 and "trace: pivot " in err


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {command: {name: outcome(command, text)
                       for name, text in corpus().items()}
             for command in COMMANDS}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
