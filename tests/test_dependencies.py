"""The package imports nothing beyond what pyproject.toml declares: the
standard library and numpy. A module that reaches for another installed
package (a faster JSON parser, say) works where that package happens to be
installed and fails everywhere else. Each module also uses every name it
imports, and importing one module loads only the modules it uses: the
package itself re-exports nothing."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "atrisk"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "atrisk"}


def imported_modules(tree):
    """(line, module) for every absolute import in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = [f"line {line}: {name}" for line, name in imported_modules(tree)
               if name.split(".")[0] not in ALLOWED]
    assert not outside, f"{path.name} imports outside the standard library and numpy: {outside}"


def test_every_module_is_checked():
    assert {p.name for p in PACKAGE.glob("*.py")} >= {"events.py", "cli.py", "gbdt.py"}


def imported_names(tree):
    """(line, name) for every name an import binds, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, a.asname or a.name) for a in node.names)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"line {line}: {name}" for line, name in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def run_fresh(code):
    """What `code` prints in a fresh interpreter that imports atrisk from the source tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.split()


def test_importing_a_module_loads_only_what_it_uses():
    code = ("import sys, atrisk.synthgen; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'atrisk')))")
    assert run_fresh(code) == ["atrisk", "atrisk.errors", "atrisk.events", "atrisk.synthgen"]


def test_training_does_not_load_numpy_ma():
    """np.unique imports numpy.ma, about 1 MB and 10 ms, on its first call."""
    code = ("import sys, numpy as np; from atrisk import gbdt; "
            "X = np.random.default_rng(0).normal(size=(200, 5)); "
            "gbdt.fit(X, (X[:, 0] > 0).astype(float), None, gbdt.GBDTConfig(n_trees=3)); "
            "print('numpy.ma' in sys.modules)")
    assert run_fresh(code) == ["False"]
