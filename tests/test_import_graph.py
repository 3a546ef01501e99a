"""Which work loads numpy: the closed form, the series and the rational
route run on the standard library alone; the quadrature and the oracle
import numpy on first use.  Each probe runs in a fresh interpreter, since
the test process has numpy loaded already.  And every name a package
module imports is read there, and every private name it defines is read
somewhere in the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = sorted((SRC / "haarmi").glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]

TRIPLE = ["--da", "2", "--db", "3", "--de", "7"]


def _probe(code: str) -> list[str]:
    """Run ``code`` with ``src`` on the path; its last stdout line, split."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HAAR_MI_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True)
    return result.stdout.splitlines()[-1].split()


def test_closed_form_series_and_rational_route_load_no_numpy():
    loaded = _probe(f"""
import sys
import haarmi
seen = ["numpy" in sys.modules]
import haarmi.cli as cli
seen.append("numpy" in sys.modules)
for command in ("exact", "series"):
    assert cli.main([command, *{TRIPLE!r}]) == 0
    seen.append("numpy" in sys.modules)
haarmi.mutual_information_rational(haarmi.Dimensions(2, 3, 7))
seen.append("numpy" in sys.modules)
print(*seen)
""")
    assert loaded == ["False"] * 5


@pytest.mark.parametrize("command", [
    ["integral", *TRIPLE],
    ["oracle", *TRIPLE, "--samples", "64", "--workers", "1"],
])
def test_quadrature_and_oracle_load_numpy_on_first_use(command):
    loaded = _probe(f"""
import sys
import haarmi.cli as cli
before = "numpy" in sys.modules
code = cli.main({command!r})
print(before, code, "numpy" in sys.modules)
""")
    assert loaded == ["False", "0", "True"]


def test_sampling_names_resolve_on_first_use():
    loaded = _probe("""
import sys
import haarmi
before = "numpy" in sys.modules
assert "run_oracle" in dir(haarmi) and "HaarSampleStats" in dir(haarmi)
run_oracle, stats = haarmi.run_oracle, haarmi.HaarSampleStats
import haarmi.sampling as sampling
assert run_oracle is sampling.run_oracle and stats is sampling.HaarSampleStats
print(before, "numpy" in sys.modules)
""")
    assert loaded == ["False", "True"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    """No linter runs here, so this is pyflakes' F401 for the package: each
    name an import binds in a module (``__init__.py``, which re-exports, is
    exempt) is read in it.  ``# noqa: F401`` on any line of the import
    statement exempts the whole statement, as for a re-export that the
    benchmark's tracer wraps by name."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.update((alias.asname or alias.name).split(".")[0]
                        for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []


def _module_private_names(tree: ast.Module) -> set[str]:
    """The private, non-dunder names a module binds at its top level by
    ``def``, ``class`` or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names
            if name.startswith("_") and not name.endswith("__")}


def test_every_private_name_is_read():
    """No linter runs here, so this finds the helper left behind: each
    private name a package module defines at its top level is read in that
    module, imported by another (whose reads the check above covers), or
    read as an attribute somewhere in the package."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE}
    elsewhere = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                elsewhere.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                elsewhere.add(node.attr)
    unread = []
    for name, tree in trees.items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{name}:{private}"
                   for private in sorted(_module_private_names(tree))
                   if private not in read | elsewhere]
    assert unread == []
