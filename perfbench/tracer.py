"""Spans around every call into the program's public functions.

A traced run wraps each public module-level function of the program layers
(`channel`, `dualhop`, ... `cli`) and replaces the references to it in the
package's other layers, so a planner's calls into `channel` are spans of
their own, nested under the planner's span.  A span is [name, start, end, parent,
op_id]; its name is `<layer>.<function>`, or `op.<kind>` for the
benchmark's own span around one operation.  Each layer's self time is its
spans' time minus the time of their child spans, summed as the spans close.
Spans stay in memory, the first MAX_SPANS of them, and are written once,
when the run ends; later spans still count in the layer totals.

The benchmark's own calls carry a label as well (`call`), the name of the
per-call metric they feed; labels keep only their total time and count.
An untraced run records nothing, so its end-to-end figures carry no
tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("channel", "dualhop", "multihop", "multisource", "stochastic",
          "oracle", "cli")
MAX_SPANS = 200_000


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.dropped = 0
        self.entered = 0
        self.labels: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        self.counters: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        self.layers = {layer: [0.0, 0] for layer in LAYERS}
        self._stack: list[list] = []  # open spans: [index, name, start, child time]
        self._wrapped: dict[int, object] = {}
        self._op_id = -1

    # ------------------------------------------------------------- spans

    def _enter(self, name: str) -> None:
        self.entered += 1
        index = None
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append([name, 0.0, None, parent, self._op_id])
        else:
            self.dropped += 1
        self._stack.append([index, name, perf_counter(), 0.0])

    def _exit(self) -> None:
        end = perf_counter()
        index, name, start, child = self._stack.pop()
        if index is not None:
            self.spans[index][1] = start
            self.spans[index][2] = end
        acc = self.layers.get(name.split(".", 1)[0])
        if acc is not None:
            acc[0] += end - start - child
            acc[1] += 1
        if self._stack:
            self._stack[-1][3] += end - start

    def _wrap(self, name: str, fn):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def instrument(self) -> None:
        """Wrap the public functions of every program layer, wherever another
        layer of the package refers to them.

        A layer's calls to its own functions stay unwrapped: a span for them
        would not move the layer's self time, and the hottest loops (the
        locus sampling, the scans' hop recursions) are such calls.
        """
        if not self.enabled:
            return
        layer_of = {}
        for layer in LAYERS:
            module = importlib.import_module("uavrelay." + layer)
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    traced = self._wrap(f"{layer}.{name}", obj)
                    self._wrapped[id(obj)] = self._wrapped[id(traced)] = traced
                    layer_of[id(obj)] = layer
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "")
            if mod_name.startswith("uavrelay"):
                for name, obj in list(vars(module).items()):
                    if (id(obj) in layer_of
                            and mod_name != "uavrelay." + layer_of[id(obj)]):
                        setattr(module, name, self._wrapped[id(obj)])

    # ------------------------------------------------- the benchmark's calls

    def call(self, label: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs); when tracing, time it under `label`.

        A program function runs through its wrapper, which records its span;
        anything else (a child process, the in-process CLI) gets a span named
        by the label, in the label's layer.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        traced = self._wrapped.get(id(fn))
        start = perf_counter()
        try:
            if traced is not None:
                return traced(*args, **kwargs)
            self._enter(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        finally:
            acc = self.labels[label]
            acc[0] += perf_counter() - start
            acc[1] += 1

    def record(self, label: str, seconds: float) -> None:
        """A time measured elsewhere (inside a child process)."""
        if self.enabled:
            acc = self.labels[label]
            acc[0] += seconds
            acc[1] += 1

    def count(self, name: str, value: float) -> None:
        """Work done by one call (rounds, say); reported as a mean per call."""
        if self.enabled:
            acc = self.counters[name]
            acc[0] += value
            acc[1] += 1

    def begin_op(self, kind: str) -> None:
        if self.enabled:
            self._op_id += 1
            self._enter("op." + kind)

    def end_op(self) -> None:
        if self.enabled:
            self._exit()

    # ------------------------------------------------------------- reports

    @property
    def op_count(self) -> int:
        return self._op_id + 1

    def mean_ms(self, *labels: str) -> float:
        seconds = sum(self.labels[name][0] for name in labels)
        calls = sum(self.labels[name][1] for name in labels)
        return 1e3 * seconds / calls

    def total_s(self, prefix: str) -> float:
        return sum(s for name, (s, _) in self.labels.items()
                   if name.startswith(prefix))

    def mean_count(self, name: str) -> float:
        total, n = self.counters[name]
        return total / n

    def layer_report(self) -> dict[str, tuple[float, int]]:
        """Per layer: self time in seconds and call count."""
        return {layer: (s, n) for layer, (s, n) in self.layers.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call of a function that does nothing."""
    tracer = Tracer(True)
    noop = int
    traced = tracer._wrap("calibrate.noop", noop)
    start = perf_counter()
    for _ in range(samples):
        traced()
    with_span = perf_counter() - start
    start = perf_counter()
    for _ in range(samples):
        noop()
    bare = perf_counter() - start
    return max(with_span - bare, 0.0) / samples
