"""Per-layer self-time ledger for one traced pass of the ``repro`` CLI.

The layers are the ``repro`` packages in :data:`LAYERS`.  :func:`install`
wraps every function, and every public method and property of every
class, that a layer module lists in ``__all__``, then rebinds each
wrapper wherever a loaded ``repro.*`` module (or the experiment
registry) still holds the original, so names pulled in with
``from x import f`` are caught too.  Nothing under ``src/`` changes.

A span opens only when the callee's layer differs from the layer of the
innermost open span, so a layer's internal calls cost one comparison.
A span's self time is its duration minus its child spans; the time in
the root frame (the CLI itself) stays unattributed.  Spans are recorded
on the main thread of the traced process only: background threads (the
``--monitor`` snapshotter) and forked pool workers run the originals.

Spans stay in memory, aggregated per function, and are written out once
by :meth:`Ledger.dump` when the pass ends.  Wrapping never changes a
return value, so traced result bytes equal untraced ones (the benchmark
checks this on every traced pass).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import threading
from time import perf_counter

LAYERS = (
    "geometry", "core", "fading", "channel", "backend", "latency", "capacity",
    "analysis", "learning", "transform", "utility", "utils", "experiments",
    "engine", "obs", "io",
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}
#: Layer index of the root frame: code outside every layer (``repro.cli``).
ROOT = -1


def layer_of(module_name: str) -> "int | None":
    """Index of the layer a ``repro.<layer>[.sub]`` module belongs to."""
    parts = module_name.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    return _INDEX.get(parts[1])


class Ledger:
    """Span stack plus per-function aggregates of one traced process."""

    def __init__(self) -> None:
        # A frame is [layer, seconds spent in its child spans].
        self._stack: "list[list]" = [[ROOT, 0.0]]
        self._thread = [threading.get_ident()]
        self.names: "list[str]" = []
        self.layers: "list[int]" = []
        self.calls: "list[int]" = []
        self.total_s: "list[float]" = []
        self.self_s: "list[float]" = []
        self.start = perf_counter()
        self.rebound = 0
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self._thread[0] = None

    def wrap(self, fn, layer: int, name: str):
        """A wrapper that records a span when ``fn`` is entered from
        another layer and otherwise just calls ``fn``."""
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        stack, thread = self._stack, self._thread
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1][0] == layer or get_ident() != thread[0]:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stack[-1][1] += dur
                calls[fid] += 1
                total_s[fid] += dur
                self_s[fid] += dur - frame[1]

        return traced

    def root_s(self) -> float:
        """Seconds since :func:`install` spent outside every span."""
        return perf_counter() - self.start - self._stack[0][1]

    def summary(self) -> "dict[str, dict[str, float]]":
        """``{layer: {"self_s", "calls"}}`` summed over its functions."""
        out = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
        for fid, layer in enumerate(self.layers):
            entry = out[LAYERS[layer]]
            entry["self_s"] += self.self_s[fid]
            entry["calls"] += self.calls[fid]
        return out

    def dump(self, path) -> None:
        """Write the ledger (per-layer sums plus every called function)."""
        functions = [
            {
                "name": self.names[fid],
                "layer": LAYERS[self.layers[fid]],
                "calls": self.calls[fid],
                "total_s": self.total_s[fid],
                "self_s": self.self_s[fid],
            }
            for fid in range(len(self.names))
            if self.calls[fid]
        ]
        functions.sort(key=lambda f: -f["self_s"])
        doc = {
            "layers": self.summary(),
            "root_s": self.root_s(),
            "wrapped": len(self.names),
            "rebound": self.rebound,
            "functions": functions,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def _import_layers() -> None:
    """Import every layer module, so lazily imported ones are wrapped too."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if layer_of(info.name) is not None:
            importlib.import_module(info.name)


def _wrap_class(ledger: Ledger, cls, layer: int) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{cls.__module__}.{cls.__qualname__}.{attr}"
        if isinstance(value, (staticmethod, classmethod)):
            new = type(value)(ledger.wrap(value.__func__, layer, name))
        elif isinstance(value, property) and value.fget is not None:
            new = property(
                ledger.wrap(value.fget, layer, name), value.fset, value.fdel, value.__doc__
            )
        elif inspect.isfunction(value):
            new = ledger.wrap(value, layer, name)
        else:
            continue
        setattr(cls, attr, new)


def install() -> Ledger:
    """Wrap every layer's public callables and return the live ledger."""
    from repro.engine.registry import all_specs

    _import_layers()
    ledger = Ledger()
    wrappers: "dict[int, object]" = {}
    seen_classes: "set[int]" = set()
    for mod_name, module in sorted(sys.modules.items()):
        if layer_of(mod_name) is None:
            continue
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr, None)
            layer = layer_of(getattr(obj, "__module__", None) or "")
            if layer is None:
                continue
            if inspect.isfunction(obj) and id(obj) not in wrappers:
                wrappers[id(obj)] = ledger.wrap(
                    obj, layer, f"{obj.__module__}.{obj.__qualname__}"
                )
            elif inspect.isclass(obj) and id(obj) not in seen_classes:
                seen_classes.add(id(obj))
                _wrap_class(ledger, obj, layer)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "repro" and not mod_name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(module, attr, wrapper)
                ledger.rebound += 1
    # The registry captured each driver function when it was decorated.
    for spec in all_specs().values():
        wrapper = wrappers.get(id(spec.runner))
        if wrapper is not None:
            object.__setattr__(spec, "runner", wrapper)
            ledger.rebound += 1
    ledger.start = perf_counter()
    return ledger
