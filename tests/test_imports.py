"""No module in the package or the tests imports a name it never uses, and
every public top-level function and class in the package has a reference."""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "collate").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
# `cli.main` is the console entry point named in pyproject.toml
ENTRY_POINTS = {"cli.main"}
MAX_LINE = 99


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


def _referenced(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a bare name or as the
    attribute of a module or object (``align_mod.fit_half_gaussian``)."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _is_protocol(node: ast.AST) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        isinstance(b, ast.Name) and b.id == "Protocol" for b in node.bases
    )


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each public top-level function or class that no
    module refers to outside the definition itself. ``sources`` maps module
    names to their source text. A ``Protocol`` is exempt: classes satisfy it
    by shape, so it needs no reference to be in use."""
    definitions = []
    refs = Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        refs += _referenced(tree)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and not _is_protocol(node)):
                definitions.append((f"{module}.{node.name}", node.name, _referenced(node)))
    return sorted(
        qualified for qualified, name, inside in definitions
        if refs[name] == inside[name] and qualified not in ENTRY_POINTS
    )


def test_scan_flags_an_unreferenced_definition():
    sources = {
        "a": "def used():\n    pass\n\n\ndef unused():\n    return used()\n\n\n"
             "def _private():\n    pass\n\n\ndef recursive(n):\n    return recursive(n - 1)\n",
        "b": "import a\n\n\nclass Orphan:\n    def unused(self):\n        pass\n\n\n"
             "class Base:\n    pass\n\n\nclass Child(a.Base):\n    pass\n\n\n"
             "class Shape(Protocol):\n    pass\n\n\ndef main():\n    Child()\n",
        "cli": "def main():\n    pass\n",
    }
    assert unreferenced_definitions(sources) == [
        "a.recursive", "a.unused", "b.Orphan", "b.main",
    ]


def test_every_public_definition_has_a_reference():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unreferenced_definitions(sources) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_line_longer_than_the_limit(path):
    long = [i for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > MAX_LINE]
    assert long == [], f"lines over {MAX_LINE} characters"
