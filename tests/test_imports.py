"""Every name a module of the package imports is used in that module.

A refactor that drops a module's last use of an imported name should drop
the import too.  The package's __init__ imports names only to export them,
so it is not checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "neutromagma"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_walk_finds_an_unused_import():
    assert unused_imports("import os\nfrom json import dump, load\nload\n") == \
        [(1, "os"), (2, "dump")]


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []
