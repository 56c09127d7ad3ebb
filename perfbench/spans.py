"""Span recorder that wraps a package's public functions from outside.

``Tracer.install`` walks the given modules at run time and wraps every
public function each module defines (not the ones it imports).  Each wrapper
is re-bound in every namespace of the package that holds the original, so
calls made from one module into another are recorded too.  Private helpers
stay unwrapped, so their time counts in their public caller's self time.

Spans (name, start, end, parent) live in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from contextlib import contextmanager
from typing import Callable, Mapping

import numpy as np

# hook(counters, args, kwargs, result) adds to named counters after a call
Hook = Callable[[dict, tuple, dict, object], None]


def public_functions(module: types.ModuleType) -> dict[str, types.FunctionType]:
    """Public functions defined by ``module`` itself, by attribute name."""
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and isinstance(value, types.FunctionType)
        and value.__module__ == module.__name__
    }


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        # span name -> the first error its hook raised
        self.hook_errors: dict[str, str] = {}
        self._rebound: list[tuple[types.ModuleType, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        t0 = self.clock()
        try:
            yield
        finally:
            t1 = self.clock()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        open_span, stack, start, end, clock = self._open, self._stack, self.start, self.end, self.clock
        counters, hook_errors = self.counters, self.hook_errors
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                try:
                    hook(counters, args, kwargs, result)
                except Exception as exc:  # the call succeeded; the hook no longer fits it
                    hook_errors.setdefault(name, f"{type(exc).__name__}: {exc}")
            return result

        return traced

    def install(
        self,
        layers: Mapping[str, types.ModuleType],
        package: str,
        hooks: Mapping[str, Hook] | None = None,
    ) -> list[str]:
        """Wrap every public function of each layer module; return the span names.

        A function ``f`` defined in the module of layer ``L`` records spans
        named ``L.f``.  The wrapper replaces the original in every loaded
        module of ``package`` (the package itself and its submodules).
        """
        hooks = hooks or {}
        wrappers: dict[int, Callable] = {}
        names = []
        for layer, module in layers.items():
            for attr, fn in public_functions(module).items():
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = self.wrap(name, fn, hooks.get(name))
                names.append(name)
        namespaces = [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == package or key.startswith(package + "."))
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return names

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        name_id = np.asarray(self.name_id, dtype=np.intp)
        parent = np.asarray(self.parent, dtype=np.intp)
        duration = np.asarray(self.end) - np.asarray(self.start)
        return name_id, parent, duration

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest, so that equals the part of its interval that
        no child covers.
        """
        name_id, parent, duration = self._arrays()
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
        own = duration - children
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=duration, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def top_level_durations(self) -> np.ndarray:
        """Durations of the spans that have no parent, in the order they opened."""
        _name_id, parent, duration = self._arrays()
        return duration[parent < 0]

    def save(self, path) -> None:
        name_id, parent, _duration = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
