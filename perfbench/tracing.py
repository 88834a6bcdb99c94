"""Spans around bosonsim's public functions, recorded from outside the package.

``Tracer.install`` rebinds every public bosonsim function at each name a
caller resolves it by (``bosonic.permanent_ryser``, ``cli.render_json``,
``sampling.sample`` ...) to a wrapper that records one span per call that
crosses into another layer: name, start, end, parent span and op id.
Calls within a layer (``output_distribution`` to ``enumerate_basis`` is
recorded, ``normalization_gamma`` to ``validate_occupation`` is not) record
nothing.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

import numpy as np

#: bosonsim modules, each one layer; spans are named "<module>.<function>"
LAYERS = ("transforms", "fock", "permanents", "bosonic", "fermionic", "sampling",
          "formatting", "cli")
#: functions whose layer is not their module: fock is basis enumeration, and
#: distribution_to_csv renders (its float formatter is bound as a default
#: argument, so the rebound bosonic.format_float never reaches it)
LAYER_OF = {"fermionic.enumerate_fermion_basis": "fock",
            "bosonic.distribution_to_csv": "formatting"}


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name.partition(".")[0])


NAME, PARENT, OP, START, END, ARG_N, OUT_LEN = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack = [(-1, None)]  # open spans: (index, layer)
        self.op = -1
        self._undo: list[tuple] = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        layer = layer_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_layer = stack[-1]
            if parent_layer == layer:
                return fn(*args, **kwargs)
            a0 = args[0] if args else None
            n = a0.shape[0] if isinstance(a0, np.ndarray) and a0.ndim == 2 else -1
            span = [name, parent, self.op, 0.0, 0.0, n, -1]
            stack.append((len(spans), layer))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hasattr(type(result), "__len__"):
                span[OUT_LEN] = len(result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"bosonsim.{layer}") for layer in LAYERS}
        # a function's own module binding is what callers resolve only where
        # some caller reaches that module by attribute (cli.main is called so
        # by the benchmark); elsewhere only the import sites are rebound, so
        # calls inside a module, such as render_json's recursion, stay direct
        reached = {"cli"} | {name for name, m in modules.items() for other in modules.values()
                             if other is not m and m in vars(other).values()}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("bosonsim.") or home not in LAYERS:
                    continue
                if home == layer and layer not in reached:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{home}.{obj.__name__}")
                setattr(module, attr, wrappers[obj])
                self._undo.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._undo):
            setattr(module, attr, obj)
        self._undo.clear()

    def dump(self, path: Path) -> None:
        cols = ["name", "parent", "op", "start", "end", "arg_n", "out_len"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": cols, "spans": self.spans}, fh, separators=(",", ":"))


def summarize(spans: list[list], ops: set[int]) -> dict:
    """Per-name busy time and counts, per-layer self time, for the given ops.

    A span's self time is its duration minus its children's durations, so
    the layer self times add up to the root spans' total.
    """
    index = [i for i, s in enumerate(spans) if s[OP] in ops]
    dur = {i: spans[i][END] - spans[i][START] for i in index}
    child = dict.fromkeys(index, 0.0)
    outer = {}  # span -> layers of its ancestors
    layers = {i: layer_of(spans[i][NAME]) for i in index}
    total = 0.0
    for i in index:
        p = spans[i][PARENT]
        if p < 0:
            total += dur[i]
            outer[i] = frozenset()
        else:
            child[p] += dur[i]
            outer[i] = outer[p] | {layers[p]}
    self_s = dict.fromkeys(LAYERS, 0.0)
    busy = dict.fromkeys(LAYERS, 0.0)
    names: dict[str, dict] = {}
    for i in index:
        layer = layers[i]
        self_s[layer] += dur[i] - child[i]
        if layer not in outer[i]:
            busy[layer] += dur[i]
        rec = names.setdefault(spans[i][NAME], {"calls": 0, "s": 0.0, "spans": []})
        rec["calls"] += 1
        rec["s"] += dur[i]
        rec["spans"].append(spans[i])
    return {"total_s": total, "self_s": self_s, "busy_s": busy, "names": names}
