"""numpy is the only third-party package the runtime imports or declares, every
public name has a user outside the tests, no module reaches into another's
private names, no module reads the environment, the README's module map lists
the package's modules, and the CLI's import loads no standard-library module
it does not use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eccrng

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {"numpy"}

# Public names that neither the package nor the benchmark calls: the library
# entry points behind the paper's claims.
CLAIM_ENTRY_POINTS = {
    "bch_encode",  # the codec whose generator the compressor reuses
    "bch_decode",
    "code_registry",  # the shipped code table
    "parse_report",  # the exact inverse of render_report
    "predicted_output_bias",  # bias e becomes e^w through the compressor
}


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


def test_no_module_imports_a_private_name_from_another():
    for path in sorted((ROOT / "src" / "eccrng").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "eccrng"
            ):
                private = [a.name for a in node.names
                           if a.name.startswith("_") and not a.name.endswith("__")]
                assert not private, f"{path.name} imports {private}"


# os names through which a module would read or set environment variables
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "putenv"}


def test_no_module_reads_the_environment():
    # a run is its argv: what a command does must not hang on a variable the
    # manifest's replay does not carry
    for path in sorted((ROOT / "src" / "eccrng").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # os.environ and the like, or a name imported from os
            name = getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Attribute, ast.alias)) and name in ENVIRONMENT_NAMES:
                raise AssertionError(f"{path.name}:{node.lineno} reads the environment")


def test_readme_module_map_lists_the_package_modules():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("## Module map", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `eccrng\.(\w+)` \|", table, flags=re.MULTILINE)
    modules = {p.stem for p in (ROOT / "src" / "eccrng").glob("*.py")} - {"__init__"}
    assert sorted(listed) == sorted(modules)


def _loaded_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_outside_the_tests():
    public = set(eccrng.__all__)
    assert CLAIM_ENTRY_POINTS <= public
    users = [*(ROOT / "src" / "eccrng").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    unused = public - _loaded_names(users) - CLAIM_ENTRY_POINTS
    assert not unused, f"public names only the tests use: {sorted(unused)}"


def test_cli_import_loads_no_executor_and_no_logging():
    # the spectral test's second thread is a plain threading.Thread, which
    # numpy loads anyway; concurrent.futures would add its import and logging's
    code = "import sys, eccrng.cli; print(*sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []
