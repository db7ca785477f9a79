"""Every name a package module imports is read somewhere in that module,
and every public module-level function or class is used by the package.

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


def unreferenced_names(sources: list[str]) -> list[str]:
    """Public module-level defs and classes that no code names outside their own definition.

    A reference is a read name, an attribute or a name imported from a module,
    so a re-export in the package ``__init__`` keeps a library name in use.
    """
    defined, referenced = [], set()
    for source in sources:
        for top in ast.parse(source).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.append(own)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [a.name for a in node.names]
                else:
                    continue
                referenced.update(name for name in names if name != own)
    return [name for name in defined if name not in referenced]


def test_scanner_finds_an_unreferenced_name():
    a = "def used():\n    return 1\n\ndef alone():\n    return alone() + used()\n\nclass _P:\n    pass\n"
    assert unreferenced_names([a]) == ["alone"]
    assert unreferenced_names([a, "from .a import alone\n"]) == []
    assert unreferenced_names([a, "import a\nx = a.alone\n"]) == []


def test_every_public_name_is_used_in_the_package():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_names(sources) == []
