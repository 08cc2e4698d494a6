"""No module in the package or the tests imports a name it never uses."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "collate").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no Name node refers to.

    ``from __future__`` imports are directives, not bindings, and are skipped.
    An ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((imported[name], name) for name in set(imported) - used)
    return [f"line {line}: {name}" for line, name in unused]


def test_scan_flags_an_unused_name():
    source = "import os\nfrom json import dumps, loads\nimport a.b\nprint(loads, a)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
