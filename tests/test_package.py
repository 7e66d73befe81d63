"""Package-level contracts: the module entry point and the source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import polycomp

SRC = Path(polycomp.__file__).resolve().parent


def run_module(*argv, cwd, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-m", "polycomp", *argv],
        capture_output=True, text=True, cwd=cwd, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )


def test_python_m_polycomp_help(tmp_path):
    res = run_module("--help", cwd=tmp_path)
    assert res.returncode == 0
    assert res.stdout.startswith("usage: polycomp")


def test_python_m_polycomp_malformed_input_exits_2(tmp_path):
    path = tmp_path / "A.json"
    path.write_text(json.dumps({"matrix": [[1, 1, 1], [0, 1, 2]]}))
    res = run_module("bounds", "--matrix", str(path), "--b", "1,x", "--cell", "1",
                     cwd=tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --b")


def test_no_assert_statements_in_the_package():
    # invariants must raise: ``python -O`` strips assert statements
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_repro_all_under_python_O_matches_the_fixture(tmp_path):
    # with assert statements stripped, every check that guards a verdict
    # still runs, so the reviewed results come out unchanged
    res = run_module("repro", "--all", cwd=tmp_path, flags=("-O",))
    assert res.returncode == 0
    assert res.stderr == ""
    assert res.stdout == (Path(__file__).parent / "fixtures" / "repro_all.txt").read_text(
        encoding="utf-8"
    )


def test_package_imports_only_the_standard_library():
    # the package stays stdlib-only at runtime; relative imports are its own
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    names = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    outside = sorted(
        name for name in names
        if name.split(".")[0] not in sys.stdlib_module_names
    )
    assert names and outside == []


def test_import_leaves_out_the_array_extension():
    # the level profiles pack through struct, which the interpreter loads at
    # start; the array extension would cost every command its shared library
    res = subprocess.run(
        [sys.executable, "-c", "import sys, polycomp; print('array' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert res.returncode == 0
    assert res.stdout == "False\n"
