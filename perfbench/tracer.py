"""Span tracer that wraps the public functions of the fiqs modules.

A traced pass installs one wrapper per public function and patches every
``fiqs`` module attribute that refers to the original, so calls are seen
however the caller looks the function up (``from .canon import validate``
binds a name in the caller's module).  Each call records a span: label,
parent span, start, end and whether it raised.  Spans are kept in compact
arrays in memory and written out once the pass is over.  Self time is span
time minus the time covered by direct child spans; it includes the
wrappers' own overhead inside the span.

``uninstall`` restores every patched attribute, so untraced passes and the
correctness gates run the program as shipped.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from time import perf_counter_ns

# Modules whose public functions are the layers of the per-layer metrics.
LAYER_MODULES = ("cli", "series", "canon", "invariants", "kaehler", "core", "census")

# (name, typecode) of the span arrays, in file order.
SPAN_FIELDS = (("label", "i"), ("parent", "i"), ("start_ns", "q"), ("end_ns", "q"), ("raised", "b"))


@dataclass
class LabelStats:
    calls: int = 0
    raised: int = 0
    total_ns: int = 0
    self_ns: int = 0


def _public_functions(module: types.ModuleType) -> list[tuple[str, types.FunctionType]]:
    return [
        (name, value)
        for name, value in vars(module).items()
        if isinstance(value, types.FunctionType)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


class SpanTracer:
    """Wraps the public functions of ``fiqs.<LAYER_MODULES>`` while installed.

    ``expected`` names ``module.function`` labels the metrics read.  One that
    no longer exists there is looked up on the ``fiqs`` package (which
    re-exports the public API, so a function moved between modules is still
    found) and otherwise reported in ``absent``; it never stops the tracer.
    """

    def __init__(self, expected: tuple[str, ...] = ()):
        self.labels: list[str] = []
        self.stats: list[LabelStats] = []
        self.spans = {name: array(code) for name, code in SPAN_FIELDS}
        self.absent: list[str] = []
        self.aliases: dict[str, str] = {}
        self._label_ids: dict[str, int] = {}
        self._wrappers: dict[int, tuple[types.FunctionType, types.FunctionType]] = {}
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._discover(expected)

    # -- discovery -----------------------------------------------------------

    def _discover(self, expected: tuple[str, ...]) -> None:
        label_of: dict[int, str] = {}
        for short in LAYER_MODULES:
            try:
                module = importlib.import_module(f"fiqs.{short}")
            except ImportError:
                continue
            for name, fn in _public_functions(module):
                if id(fn) not in label_of:
                    label_of[id(fn)] = f"{short}.{name}"
                    self._add(f"{short}.{name}", fn)
        package = sys.modules["fiqs"]
        for label in expected:
            if label in self._label_ids:
                continue
            short, _, name = label.partition(".")
            module = sys.modules.get(f"fiqs.{short}")
            fn = getattr(module, name, None) if module is not None else None
            if not isinstance(fn, types.FunctionType):
                fn = getattr(package, name, None)
            if not isinstance(fn, types.FunctionType):
                self.absent.append(label)
            elif id(fn) in label_of:
                self.aliases[label] = label_of[id(fn)]
            else:
                label_of[id(fn)] = label
                self._add(label, fn)

    def _add(self, label: str, fn: types.FunctionType) -> None:
        lid = len(self.labels)
        self.labels.append(label)
        self.stats.append(LabelStats())
        self._label_ids[label] = lid
        self._wrappers[id(fn)] = (fn, self._wrap(fn, lid))

    def _wrap(self, fn: types.FunctionType, lid: int) -> types.FunctionType:
        stat = self.stats[lid]
        stack, child_ns = self._stack, self._child_ns
        labels, parents = self.spans["label"], self.spans["parent"]
        starts, ends, raised = self.spans["start_ns"], self.spans["end_ns"], self.spans["raised"]

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(labels)
            labels.append(lid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            raised.append(0)
            stack.append(idx)
            child_ns.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                stat.raised += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                inner = child_ns.pop()
                starts[idx] = t0
                ends[idx] = t1
                duration = t1 - t0
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - inner
                if child_ns:
                    child_ns[-1] += duration

        return traced

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "fiqs" or module_name.startswith("fiqs.")):
                continue
            for attr, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def stat(self, label: str) -> LabelStats:
        """Totals for a label, following aliases; zeros for an absent label."""
        lid = self._label_ids.get(self.aliases.get(label, label))
        return self.stats[lid] if lid is not None else LabelStats()

    def calls_under(self, label: str, ancestor: str) -> int:
        """Number of ``label`` spans with an ``ancestor`` span above them."""
        lid = self._label_ids.get(self.aliases.get(label, label))
        aid = self._label_ids.get(self.aliases.get(ancestor, ancestor))
        if lid is None or aid is None or not self.stat(ancestor).calls:
            return 0
        labels, parents = self.spans["label"], self.spans["parent"]
        n = 0
        for idx, span_label in enumerate(labels):
            if span_label != lid:
                continue
            p = parents[idx]
            while p >= 0 and labels[p] != aid:
                p = parents[p]
            n += p >= 0
        return n

    def write(self, path: Path) -> None:
        """One JSON header line, then the raw span arrays in ``SPAN_FIELDS`` order."""
        header = {
            "labels": self.labels,
            "count": len(self.spans["label"]),
            "clock": "perf_counter_ns",
            "fields": [list(f) for f in SPAN_FIELDS],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for name, _ in SPAN_FIELDS:
                self.spans[name].tofile(fh)


def load_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    """Read a file written by :meth:`SpanTracer.write`: (labels, arrays by field)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        spans = {}
        for name, code in header["fields"]:
            spans[name] = array(code)
            spans[name].fromfile(fh, n)
    return header["labels"], spans


def self_times_from_spans(labels: list[str], spans: dict[str, array]) -> dict[str, int]:
    """Self time per label in ns, recomputed offline from the span arrays."""
    n = len(spans["label"])
    child = [0] * n
    for idx in range(n):
        p = spans["parent"][idx]
        if p >= 0:
            child[p] += spans["end_ns"][idx] - spans["start_ns"][idx]
    out: dict[str, int] = defaultdict(int)
    for idx in range(n):
        duration = spans["end_ns"][idx] - spans["start_ns"][idx]
        out[labels[spans["label"][idx]]] += duration - child[idx]
    return dict(out)
