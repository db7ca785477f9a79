"""Every name a package module imports is read somewhere in that module.

A plain ``ast`` walk, so no linter is needed.  The package ``__init__``
imports names to re-export them, so its module-level imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "protex"


def unused_imports(source: str, reexports: bool = False) -> list[str]:
    """Names bound by an import and never read, in source order."""
    tree = ast.parse(source)
    exempt = set()
    if reexports:
        exempt = {id(node) for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))}
    imported = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_scanner_finds_an_unused_import():
    source = "import os\nfrom typing import Optional, Callable\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["Callable"]
    assert unused_imports("from . import a\n", reexports=True) == []
    assert unused_imports("def f():\n    import json\n", reexports=True) == ["json"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source, reexports=path.name == "__init__.py") == []
