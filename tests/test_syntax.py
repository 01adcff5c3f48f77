import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    paths = sorted(path for top in ("src", "tests", "bench", "demos")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    return paths


def test_sources_parse_as_python_3_10():
    # the package declares requires-python >= 3.10: no syntax that needs a
    # later grammar may slip into the code, its tests or its benchmark
    for path in _sources():
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


# Standard-library names added after Python 3.10, by module; a module
# mapped to None is new as a whole, and "builtins" holds the bare names.
# int.bit_count is 3.10 and allowed.
_AFTER_3_10 = {
    "tomllib": None,
    "builtins": {"ExceptionGroup", "BaseExceptionGroup"},
    "itertools": {"batched"},
    "typing": {"Self", "Never", "assert_never", "LiteralString"},
    "enum": {"StrEnum"},
    "datetime": {"UTC"},
    "math": {"cbrt", "exp2"},
    "operator": {"call"},
    "contextlib": {"chdir"},
    "hashlib": {"file_digest"},
}
_RE_FUNCTIONS = {"compile", "match", "fullmatch", "search", "sub", "subn",
                 "split", "findall", "finditer"}
# an atomic group, or a quantifier followed by "+" (possessive), once each
# escape and each character class of a pattern stands as one plain "x"
_NEWER_REGEX = re.compile(r"\(\?>|(?:[*+?]|\{[0-9]*(?:,[0-9]*)?\})\+")


def _newer_regex_syntax(pattern: str) -> bool:
    bare = re.sub(r"\\.", "x", pattern, flags=re.DOTALL)
    bare = re.sub(r"\[\^?\]?[^\]]*\]", "x", bare)
    return _NEWER_REGEX.search(bare) is not None


def _post_3_10_uses(source: str) -> list[str]:
    """The names from ``_AFTER_3_10`` that ``source`` imports or reads, and
    the literal patterns it passes to ``re`` that Python 3.10 cannot
    read: atomic groups and possessive quantifiers."""
    tree = ast.parse(source)
    found = []
    modules = {}  # local name -> module, from "import m [as x]"
    re_names = set()  # local names of functions imported from re
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                modules[a.asname or a.name] = a.name
                if a.name in _AFTER_3_10 and _AFTER_3_10[a.name] is None:
                    found.append(a.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            new = _AFTER_3_10.get(node.module, set())
            if new is None:
                found.append(node.module)
                continue
            found += [f"{node.module}.{a.name}" for a in node.names
                      if a.name in new]
            if node.module == "re":
                re_names.update(a.asname or a.name for a in node.names
                                if a.name in _RE_FUNCTIONS)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if node.attr in (_AFTER_3_10.get(module) or ()):
                found.append(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in _AFTER_3_10["builtins"]:
            found.append(node.id)
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            if not (isinstance(func, ast.Name) and func.id in re_names
                    or isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and modules.get(func.value.id) == "re"
                    and func.attr in _RE_FUNCTIONS):
                continue
            pattern = node.args[0]
            if (isinstance(pattern, ast.Constant)
                    and isinstance(pattern.value, str)
                    and _newer_regex_syntax(pattern.value)):
                found.append(f"re pattern {pattern.value!r}")
    return found


def test_sources_use_no_stdlib_names_after_3_10():
    for path in _sources():
        source = path.read_text(encoding="utf-8")
        assert _post_3_10_uses(source) == [], path


def test_the_denylist_finds_each_newer_name():
    source = "\n".join([
        "import tomllib",
        "import itertools as it, math, operator, re",
        "from typing import Self, Never, assert_never, LiteralString",
        "from enum import StrEnum",
        "from re import fullmatch as fm",
        "import datetime, contextlib, hashlib",
        "it.batched(x, 2), math.cbrt(8), math.exp2(3), operator.call(f)",
        "datetime.UTC, contextlib.chdir('.'), hashlib.file_digest(f, 'md5')",
        "raise ExceptionGroup('e', [])",
        "re.compile('(?>ab)c'), fm('a*+', s), re.search(r'x{1,2}+', s)",
        # 3.10 reads these: a lazy quantifier, an escaped "+", a class,
        # and a method of int
        "re.compile(r'a+?\\++[*+]'), (5).bit_count(), int.bit_count(5)",
    ])
    assert sorted(_post_3_10_uses(source)) == sorted([
        "tomllib", "typing.Self", "typing.Never", "typing.assert_never",
        "typing.LiteralString", "enum.StrEnum", "itertools.batched",
        "math.cbrt", "math.exp2", "operator.call", "datetime.UTC",
        "contextlib.chdir", "hashlib.file_digest", "ExceptionGroup",
        "re pattern '(?>ab)c'", "re pattern 'a*+'",
        "re pattern 'x{1,2}+'",
    ])
