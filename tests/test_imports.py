"""No module in the package or the tests imports a name it never uses,
every public top-level function and class in the package has a reference,
every field and method of a public class in the package is read, and every
per-layer metric perfbench reports names a public callable of the package."""
import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "collate").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
READERS = sorted([*MODULES, *(ROOT / "perfbench").glob("*.py")])
# `cli.main` is the console entry point named in pyproject.toml
ENTRY_POINTS = {"cli.main"}
# perfbench times interpreter start-up under this name; no callable has it
PER_LAYER_SPECIAL = {"cli.startup"}
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated ``@dataclass`` or ``@dataclass(...)``."""
    targets = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def unread_members(definitions: dict[str, str], readers: list[str]) -> list[str]:
    """``module.Class.member`` of each dataclass field and each method of a
    public top-level class in ``definitions`` (module name -> source) whose
    name no attribute read (``x.member``) in ``readers`` uses. Dunder methods
    run implicitly and are exempt. The scan goes by name, not by type: a
    member counts as read when any object's attribute of that name is."""
    reads = {
        node.attr
        for source in readers
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, source in definitions.items():
        for cls in ast.parse(source).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            members = [
                node.name for node in cls.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
            ]
            if _is_dataclass(cls):
                members += [
                    node.target.id for node in cls.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                ]
            unread += [f"{module}.{cls.name}.{m}" for m in members if m not in reads]
    return sorted(unread)


def test_scan_flags_an_unread_member():
    source = (
        "@dataclass(frozen=True)\nclass Config:\n    read: int = 1\n    unread: int = 2\n\n"
        "    def __post_init__(self):\n        pass\n\n    def used(self):\n"
        "        return self.read\n\n    def unused(self):\n        pass\n\n\n"
        "class Plain:\n    count: int\n\n    def __init__(self):\n        self.stored = 0\n\n\n"
        "@dataclass\nclass _Private:\n    hidden: int = 0\n"
    )
    unread = unread_members({"m": source}, [source, "Config().used()\n"])
    assert unread == ["m.Config.unread", "m.Config.unused"]


def test_every_member_of_a_public_class_is_read():
    definitions = {path.stem: path.read_text() for path in PACKAGE}
    assert unread_members(definitions, [path.read_text() for path in READERS]) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_line_longer_than_the_limit(path):
    long = [i for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > MAX_LINE]
    assert long == [], f"lines over {MAX_LINE} characters"


def unresolved_metrics(metrics: list[str]) -> list[str]:
    """Each ``<module>.<qualname>.<calls|s|bytes>`` metric whose name is not
    a public function, method or class defined in ``collate.<module>``: the
    callables perfbench's tracer wraps. A metric it cannot resolve reads 0."""
    unresolved = []
    for metric in metrics:
        name, suffix = metric.rsplit(".", 1)
        if name in PER_LAYER_SPECIAL:
            continue
        module, *qualname = name.split(".")
        obj = importlib.import_module(f"collate.{module}")
        for part in qualname:
            obj = None if part.startswith("_") else getattr(obj, part, None)
        callable_ = inspect.isfunction(obj) or inspect.ismethod(obj) or inspect.isclass(obj)
        if (suffix not in ("calls", "s", "bytes") or not callable_
                or obj.__module__ != f"collate.{module}"):
            unresolved.append(metric)
    return unresolved


def test_scan_flags_an_unresolved_metric():
    assert unresolved_metrics([
        "alignment.MonotoneMapping.forward.s", "collab.FusionPipeline.load.s",
        "core.PatchWeights.calls", "cli.startup.s", "llm.load_fixture.bytes",
        "alignment.no_such_function.s", "collab._column_stats.s", "alignment.sigmoid.calls",
        "alignment.KL_EPS.s", "core.sigmoid.ms",
    ]) == [
        "alignment.no_such_function.s", "collab._column_stats.s", "alignment.sigmoid.calls",
        "alignment.KL_EPS.s", "core.sigmoid.ms",
    ]


def test_every_per_layer_metric_names_a_public_callable():
    # read from the script's source: running it would start a benchmark
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    (per_layer,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "PER_LAYER" for t in node.targets)
    ]
    assert len(per_layer) > 40
    assert unresolved_metrics(per_layer) == []
