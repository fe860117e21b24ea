"""The package imports nothing beyond what pyproject.toml declares: the
standard library and numpy. A module that reaches for another installed
package (a faster JSON parser, say) works where that package happens to be
installed and fails everywhere else."""

import ast
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
