"""Span tracing of the jointbus layers, installed from outside the library.

The tracer rebinds the public entry points of every jointbus module to
timing wrappers: the functions named in each module's ``__all__`` (plus
``buscore.as_bits``, the coercion every layer calls), and the public
methods of the classes listed there, with the constructor too for classes
that are not dataclasses (``RunCodebook``, ``BusState``, ...). A function
imported by name into another module is rebound there as well, so calls
across layers are caught. The library source is never edited, and
``uninstall`` restores every binding.

Spans (function, op id, start, end, time covered by child spans, parent
span) are kept in memory and only aggregated when the run ends. Recording
is off unless ``active`` is set, so input generation and output checks
done by the benchmark leave no spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("buscore", "cac", "ira", "jointcode", "bpdecode", "densevo", "simkit", "cli")
EXTRA_ENTRY_POINTS = {"buscore": ("as_bits",)}
SPAN_FIELDS = ("span", "function", "op", "start_ns", "end_ns", "child_ns", "parent")


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1  # id shared by the spans of one op; -1 marks set-up, -2 other work
        self.names: list[str] = []   # function id -> "layer.qualname"
        # Finished spans, SPAN_FIELDS int64 values each, in the order they end.
        self.spans = array("q")
        self.count = 0  # spans started
        self.decodes: list[tuple[int, int, int]] = []  # (span, iterations, wires)
        # Factor per op id that converts its span times to the reference
        # speed (see run.py); ops without one are left as measured.
        self.op_scale: list[float] = []
        self._stack: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        layers = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
        namespaces = [package, *layers.values()]
        for layer, mod in layers.items():
            for name in tuple(getattr(mod, "__all__", ())) + EXTRA_ENTRY_POINTS.get(layer, ()):
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # re-exported from another layer, wrapped there
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{name}", obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._rebind(ns, attr, wrapper)
                elif inspect.isclass(obj):
                    own_init = not dataclasses.is_dataclass(obj)
                    for attr, value in list(vars(obj).items()):
                        if inspect.isfunction(value) and (
                                not attr.startswith("_") or (attr == "__init__" and own_init)):
                            self._rebind(obj, attr, self._wrap(f"{layer}.{name}.{attr}", value))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def _rebind(self, target, attr, value) -> None:
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        tracer = self
        record_decode = name == "bpdecode.bp_decode"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = tracer.count
            tracer.count += 1
            parent = stack[-1] if stack else None
            frame = [idx, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                tracer.spans.extend((idx, fid, tracer.op, start, end, frame[1],
                                     parent[0] if parent is not None else -1))
            if record_decode:
                tracer.decodes.append((idx, int(result.iterations), len(result.word)))
            return result

        return wrapper

    # -- aggregation ------------------------------------------------------

    def records(self):
        """Finished spans as tuples laid out as ``SPAN_FIELDS``."""
        width = len(SPAN_FIELDS)
        return zip(*(self.spans[i::width] for i in range(width)))

    def _scale(self, op: int) -> float:
        return self.op_scale[op] if 0 <= op < len(self.op_scale) else 1.0

    def table(self, setup: bool = False) -> dict[str, dict[str, float]]:
        """Per-function calls, inclusive ms and self ms, over the spans of
        the measured ops, or over the set-up spans if ``setup``."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for _, fid, op, start, end, child, _ in self.records():
            if not (op == -1 if setup else op >= 0):
                continue
            row = out[self.names[fid]]
            row["calls"] += 1
            scale = self._scale(op) / 1e6
            row["ms"] += (end - start) * scale
            row["self_ms"] += (end - start - child) * scale
        return dict(out)

    def decoder_work(self) -> tuple[int, int, int, float]:
        """Over op spans: decodes, decodes called from simkit, total
        iterations, and ns per wire per iteration."""
        wanted = {idx for idx, _, _ in self.decodes}
        spans = {rec[0]: rec for rec in self.records() if rec[0] in wanted}
        parents = {rec[6] for rec in spans.values()}
        parent_fid = {rec[0]: rec[1] for rec in self.records() if rec[0] in parents}
        decodes = from_sim = iterations = wire_iters = ns = 0
        for idx, iters, wires in self.decodes:
            _, _, op, start, end, _, parent = spans[idx]
            if op < 0:
                continue
            decodes += 1
            if parent >= 0 and self.names[parent_fid[parent]].startswith("simkit."):
                from_sim += 1
            iterations += iters
            wire_iters += iters * wires
            ns += (end - start) * self._scale(op)
        return decodes, from_sim, iterations, (ns / wire_iters if wire_iters else 0.0)


def layer_self_ms(table: dict, layer: str) -> float:
    """Self time of one layer: the sum over its functions in ``table``."""
    return sum(row["self_ms"] for name, row in table.items() if name.split(".")[0] == layer)
