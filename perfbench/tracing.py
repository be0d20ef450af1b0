"""Spans around the library's layer boundaries, installed from outside.

The library is not edited.  `install` replaces every public function of the
layer modules (`core`, `structure`, `representation`, `oracle`, `angular`)
with a wrapper that records a span, and rebinds each reference that other
`deformed_u2` modules took with `from .x import f`.  `StructureFunction.__call__`
is wrapped as `structure.phi`.  The CLI command itself is the root span of an
op, opened by the op runner.

A span is `[span_id, name, start_ns, end_ns, parent_id]`; the op id is added
by the parent when it collects the spans of every op.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("core", "structure", "representation", "oracle", "angular")
# written to stderr by the op runner just before the timed import
IMPORT_MARK = "perfbench: import starts"


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, time.perf_counter_ns(), None, parent]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, func):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"deformed_u2.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    replacements[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        structure = importlib.import_module("deformed_u2.structure")
        phi = structure.StructureFunction.__call__
        structure.StructureFunction.__call__ = self.wrap("structure.phi", phi)

        for name, module in list(sys.modules.items()):
            if name != "deformed_u2" and not name.startswith("deformed_u2."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)


def self_times(spans: list[list]) -> dict[str, list[float]]:
    """Per span name: [calls, inclusive seconds, self seconds].

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly in one thread, so the self times of an
    op's spans add up to its root span's duration.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for _, _, start, end, parent in spans:
        if parent is not None:
            child_ns[parent] += end - start
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span_id, name, start, end, _ in spans:
        entry = totals[name]
        entry[0] += 1
        entry[1] += (end - start) / 1e9
        entry[2] += (end - start - child_ns[span_id]) / 1e9
    return totals


IMPORT_PACKAGES = ("sympy", "scipy", "numpy", "click")


def import_breakdown(importtime_lines: list[str]) -> dict[str, float]:
    """Seconds of import per third-party package, from `-X importtime` lines.

    Each module's self time is charged to the outermost module above it in
    the import tree that is not part of `deformed_u2`, so a dependency pulled
    in by sympy (mpmath) counts as sympy.  `total` is the self time of every
    line given.
    """
    entries = []
    for line in importtime_lines:
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if len(fields) != 3 or not fields[0].split(":")[1].strip().isdigit():
            continue
        self_us = int(fields[0].split(":")[1])
        label = fields[2].rstrip("\n")
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        entries.append((depth, label.strip(), self_us))

    result = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    result["total"] = 0.0
    owners: list[str] = []
    # importtime prints children before their parent; reversed, each line
    # follows its parent and the stack of owners can be kept by depth
    for depth, name, self_us in reversed(entries):
        del owners[depth:]
        own = owners[-1] if owners else ""
        if not own or own.split(".")[0] == "deformed_u2":
            own = name
        owners.append(own)
        package = own.split(".")[0]
        if package in result:
            result[package] += self_us / 1e6
        result["total"] += self_us / 1e6
    return result
