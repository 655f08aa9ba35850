"""Every name a module of the package imports is used in that module.

A refactor that drops a module's last use of an imported name should drop
the import too.  The package's __init__ imports names only to export them,
so it is not checked.

A cold import of the package and its CLI loads no dataclasses module.
"""

import ast
import subprocess
import sys
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


def test_cold_start_loads_no_dataclasses():
    # the records are NamedTuples, so a cold start needs no dataclasses, whose
    # import also loads inspect, ast, dis and tokenize.  Only neutromagma.corpus
    # may load it: CorpusEntry stays a dataclass while the benchmark tracer
    # rebuilds entries with dataclasses.replace
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import neutromagma, neutromagma.atlas, neutromagma.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
