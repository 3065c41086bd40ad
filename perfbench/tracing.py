"""Span tracing of coxmin's layers from outside the program.

`install` wraps the public functions of each layer module and a few methods
(scalar multiply, inverse and sign, interval refinement, field-level raise,
group-table build, braid normal form). A wrapped call records one span:
name, start, end and the span that was open when it began. Spans live in
flat arrays while the run lasts and are written out when it ends.

Modules bind each other's functions with `from .x import f`, so a wrapper
is installed in every loaded `coxmin` module whose namespace holds the
original object, not only in the module that defines it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

LAYERS = ("scalars", "linalg", "coxeter", "eigen", "conjugacy", "walk", "braid")

# (module, class, attribute, span name)
METHODS = (
    ("scalars", "AlgebraicScalar", "__mul__", "scalars.mul"),
    ("scalars", "AlgebraicScalar", "__rmul__", "scalars.mul"),
    ("scalars", "AlgebraicScalar", "inverse", "scalars.inverse"),
    ("scalars", "AlgebraicScalar", "sign", "scalars.sign"),
    ("scalars", "ScalarField", "refine", "scalars.refine"),
    ("coxeter", "CoxeterSystem", "with_field_level", "coxeter.with_field_level"),
    ("coxeter", "GroupTable", "__init__", "coxeter.GroupTable"),
    ("braid", "TwistedBraid", "normal_form", "braid.normal_form"),
)


def _system_key(matrix, L_hint=None, *args, **kwargs):
    return (matrix.entries, L_hint)


def _element_key(w, *args, **kwargs):
    return (w.twist.perm, w.k, w.body.perm, w.system.field.L)


# Span name -> function of the call's arguments naming its input; the
# ratio of distinct inputs to calls measures recomputation.
INPUT_KEYS = {
    "coxeter.build_system": _system_key,
    "eigen.eigen_decomposition": _element_key,
}


def _count_steps(tracer: "Tracer", result) -> None:
    tracer.counters["walk.steps"] += len(result.steps)


# Span name -> hook called with each returned value.
RESULT_HOOKS = {"walk.descent_walk": _count_steps}


class Tracer:
    """Spans of wrapped calls, kept in flat arrays, plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open = [-1]
        self.counters: dict[str, int] = {"walk.steps": 0}
        self.inputs: dict[str, set] = {name: set() for name in INPUT_KEYS}
        self.enabled = True

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name: str, fn):
        nid = self._id(span_name)
        key = INPUT_KEYS.get(span_name)
        hook = RESULT_HOOKS.get(span_name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if key is not None:
                self.inputs[span_name].add(key(*args, **kwargs))
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        return self_times(self.names, self.name, self.start, self.end, self.parent)

    def write(self, path: str) -> None:
        """Name table and span columns as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "parent": self.parent.tolist(),
                       "counters": self.counters}, fh)


def install(tracer: Tracer) -> int:
    """Wrap every public layer function and the METHODS; returns bindings made."""
    originals: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"coxmin.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            originals[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "coxmin" or name.startswith("coxmin.")):
            continue
        for attr, obj in list(vars(module).items()):
            entry = originals.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])
                bound += 1
    for layer, cls_name, attr, span_name in METHODS:
        cls = getattr(importlib.import_module(f"coxmin.{layer}"), cls_name)
        setattr(cls, attr, tracer.wrap(span_name, vars(cls)[attr]))
        bound += 1
    return bound


def self_times(names, name, start, end, parent) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, self seconds), from span columns.

    Span i is named names[name[i]], runs from start[i] to end[i] and was
    caused by span parent[i] (-1 for none). Its self time is its duration
    minus the part of it that its child spans cover. Children of one span
    never overlap here (the run is single threaded), so that part is the
    sum of their durations, each clipped to the parent's interval.
    """
    covered = [0.0] * len(name)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += max(0.0, min(end[i], end[p]) - max(start[i], start[p]))
    calls = [0] * len(names)
    busy = [0.0] * len(names)
    for i, n in enumerate(name):
        calls[n] += 1
        busy[n] += (end[i] - start[i]) - covered[i]
    return {names[n]: (calls[n], busy[n]) for n in range(len(names)) if calls[n]}
