"""In-memory spans around calls into biphoton's public functions.

The package is not edited: :func:`instrument` rebinds the public function
names in every loaded ``biphoton`` module namespace (the names that
``biphoton.cli`` and ``biphoton.dataio`` import included) to thin wrappers
that record a span, and returns a callable that puts the originals back.
A span is ``[name, start, end, parent, op]`` with times from
``time.perf_counter``, which on Linux is the system-wide monotonic clock, so
spans recorded in a child process line up with the parent's.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("presets", "jsa", "hom", "temporal", "dataio", "cli")

# Called once per CSV cell: a span per call would time the tracer, not the writer.
UNTRACED = frozenset({"format_float"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, child_parent, _ in child_spans:
            owner = parent if child_parent is None else child_parent + offset
            self.spans.append([name, start, end, owner, self.op])


def instrument(tracer: Tracer):
    """Wrap every public function of the layer modules; return the undo callable."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules.get(f"biphoton.{layer}")
        if module is None:
            continue
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and name not in UNTRACED
            ):
                wrappers[obj] = _wrap(tracer, f"{layer}.{name}", obj)

    patched = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "biphoton" or module_name.startswith("biphoton.")):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])
                patched.append((module, name, obj))

    def restore():
        for module, name, obj in patched:
            setattr(module, name, obj)

    return restore


def _wrap(tracer: Tracer, span_name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(span_name):
            return fn(*args, **kwargs)

    return traced


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def child_time(spans: list[list]) -> dict[int, float]:
    """Time covered by each span's direct children (they nest and never overlap)."""
    covered: dict[int, float] = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return covered


def self_time_by_layer(spans: list[list]) -> dict[str, float]:
    """Sum over spans of duration minus the time their children cover, per layer."""
    covered = child_time(spans)
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[layer_of(name)] += max(0.0, end - start - covered[index])
    return dict(totals)


def coverage(spans: list[list]) -> float:
    """Share of op-span time covered by the op spans' children."""
    covered = child_time(spans)
    total = sum(end - start for name, start, end, _, _ in spans if layer_of(name) == "op")
    inner = sum(covered[i] for i, s in enumerate(spans) if layer_of(s[0]) == "op")
    return inner / total if total > 0 else 0.0
