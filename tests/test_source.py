"""Static checks on the package source: every module reads what it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "surfqp"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names an import binds that the module never reads, with their lines."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def test_checker_sees_an_unused_import():
    source = "from typing import Iterable, Optional\nimport re as regex\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["Iterable (line 1)", "regex (line 2)"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert "words.py" in MODULES and "dbracket.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
