"""numpy is the only third-party package the runtime imports or declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {"numpy"}


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_numpy_outside_the_standard_library():
    sources = sorted((ROOT / "src" / "eccrng").glob("*.py"))
    assert sources
    for path in sources:
        third_party = _top_level_imports(path) - set(sys.stdlib_module_names) - {"eccrng"}
        assert third_party <= ALLOWED, f"{path.name} imports {sorted(third_party - ALLOWED)}"


def test_pyproject_declares_only_numpy():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps} == ALLOWED
