"""Spans around the library's public functions, installed where they are looked up.

Every public function defined in a ``randic_energy`` module is replaced,
in each module namespace that holds it (its own, the package's, and every
module that imported it by name), by a wrapper that records a span. Calls
from one layer into another, such as ``bounds_report`` -> ``vertex_energies``
-> ``eigen_symmetric``, therefore nest. A span's self time is its duration
minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

#: library modules whose public functions are traced; the layer names
LAYERS = ("graph", "spectral", "energy", "bounds", "charpoly", "coulson",
          "families", "random_graphs", "cli")

#: spans kept in memory for the trace file; the per-layer sums cover all
MAX_SPANS = 100_000


class Tracer:
    """Wrappers for every traced function, made once; ``install`` puts them
    in place and ``uninstall`` restores the originals."""

    def __init__(self, package):
        self._swaps: list[tuple[object, str, object, object]] = []  # module, name, fn, wrapper
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self.op = -1
        self.spans: list[tuple] = []  # (op, id, parent id, name, start, end)
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

        wrappers = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module in [package] + [getattr(package, name) for name in LAYERS]:
            for name, value in vars(module).items():
                if id(value) in wrappers:
                    self._swaps.append((module, name, value, wrappers[id(value)]))

    def install(self) -> None:
        for module, name, _, wrapper in self._swaps:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn, _ in self._swaps:
            setattr(module, name, fn)

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; the benchmark's op spans."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((self.op, span_id, parent, name, frame[1], end))
                else:
                    self.dropped += 1

        return traced
