"""Run one `collate` command with the package's public functions traced.

    python3 perfbench/tracer.py TRACE.json <collate arguments...>

Every public function and every public method (plus the constructor) of the
classes defined in a `collate` module is wrapped. A function is replaced in
every `collate` module that binds it, so calls through `from .x import f`
names are traced too. Each wrapper records, under `<module>.<qualname>`
(a class's constructor under `<module>.<Class>`):

- calls,
- self time: the call's wall time minus that of the traced calls it made,
- bytes: the size of the file named by a `path` parameter, after the call.

The trace is written to TRACE.json together with `import_done`, the wall
clock (`time.time`) at which `import collate.cli` had finished, so the
caller can measure interpreter and import start-up from the moment it
spawned the process.
"""
from __future__ import annotations

import time  # noqa: I001  (first, so start-up is measured before the heavy imports)
import enum
import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys

import collate.cli  # noqa: E402

IMPORT_DONE = time.time()


class Tracer:
    """Per-name [calls, self seconds, bytes], and a stack of child time."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []

    def wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        params = list(inspect.signature(fn).parameters)
        path_at = params.index("path") if "path" in params else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stats[0] += 1
                stats[1] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
                if path_at is not None:
                    path = args[path_at] if len(args) > path_at else kwargs.get("path")
                    if path is not None and os.path.isfile(path):
                        stats[2] += os.path.getsize(path)

        return traced

    def install(self, package) -> None:
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(obj, f"{short}.{obj.__qualname__}")
                elif inspect.isclass(obj) and _traceable_class(obj):
                    self._wrap_class(obj, short)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    def _wrap_class(self, cls, short: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{short}.{cls.__qualname__}" + ("" if attr == "__init__" else f".{attr}")
            if inspect.isfunction(val):
                setattr(cls, attr, self.wrap(val, name))
            elif isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(val.__func__, name)))
            elif isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self.wrap(val.__func__, name)))


def _traceable_class(cls) -> bool:
    return not (
        issubclass(cls, (enum.Enum, BaseException)) or getattr(cls, "_is_protocol", False)
    )


def main(argv: list[str]) -> int:
    trace_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(sys.modules["collate"])
    try:
        return collate.cli.main(args)
    finally:
        with open(trace_path, "w") as fh:
            json.dump({"import_done": IMPORT_DONE, "stats": tracer.stats}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
