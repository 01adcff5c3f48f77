import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    # the package declares requires-python >= 3.10: no syntax that needs a
    # later grammar may slip into the code, its tests or its benchmark
    paths = sorted(path for top in ("src", "tests", "bench", "demos")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
