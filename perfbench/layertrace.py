"""Per-layer tracing of the amok package, installed from outside it.

A layer is one module of the package.  ``install`` wraps, by
introspection, every public function of each layer module and every
public method of the classes the module defines, plus class
construction (``__init__``) and the arithmetic operators.  Each wrapped
name is then rebound in every loaded ``amok`` module that imported it
(``model`` does ``from .algebra import dilate``, for example), so calls
made through either name are seen.

A call records a span only when it crosses a layer boundary: the caller
runs in another layer, or in the benchmark itself.  Calls inside one
layer pass straight through.  Spans stay in memory; ``write_spans``
stores them when the run ends.

Callables whose body makes no call at all are left unwrapped.  These are
per-component accessors such as ``AlgebraSpec.component_dim``, run about
a million times per circle ``check-axioms`` call; wrapping them would
double the apparent share of their layer while measuring nothing but the
wrapper.  Private helpers (a leading underscore, such as
``algebra._freeze``) stay unwrapped for the same reason: they are
implementation details called from inside their own layer.
"""

from __future__ import annotations

import dis
import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "amok"
LAYERS = ("cli", "suites", "equivalence", "model", "algebra", "kernel",
          "rand", "serialize")

# Python protocol methods that are part of a class's public interface.
_PROTOCOL = frozenset(("__init__", "__add__", "__sub__", "__neg__",
                       "__mul__", "__rmul__", "__matmul__"))


def _makes_calls(fn) -> bool:
    return any(ins.opname.startswith("CALL")
               for ins in dis.get_instructions(fn))


class _Span:
    __slots__ = ("sid", "parent", "child_ns")

    def __init__(self, sid, parent):
        self.sid = sid
        self.parent = parent
        self.child_ns = 0


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.layer = None            # layer now running; None = benchmark
        self.request = 0             # id shared by the spans of one request
        self._stack = []
        self._next_id = 0
        self.spans = []              # (id, parent, request, layer, name, t0, t1)
        self.self_ns = Counter()
        self.calls = Counter()
        self.built = Counter()       # constructions per class name
        self.matrices = 0
        self.max_n = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.norm_calls = 0
        self.bisection_steps = 0
        self.validations = 0
        self.validations_passed = 0
        self.samples_validated = 0
        self._norm_depth = 0
        self._validate_depth = 0
        self._restore = []

    # -- crossing a layer boundary -----------------------------------------

    def _cross(self, fn, layer, name, args, kwargs):
        if layer == "kernel":
            self._count_matrices(args)
            if self._norm_depth:
                self.bisection_steps += 1
        elif layer == "serialize":
            self._count_bytes_in(args)
        parent = self._stack[-1] if self._stack else None
        span = _Span(self._next_id, parent.sid if parent else None)
        self._next_id += 1
        prev = self.layer
        self._stack.append(span)
        self.layer = layer
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.layer = prev
            dur = t1 - t0
            self.self_ns[layer] += dur - span.child_ns
            self.calls[layer] += 1
            if parent is not None:
                parent.child_ns += dur
            self.spans.append((span.sid, span.parent, self.request, layer,
                               name, t0, t1))
        if layer == "serialize" and isinstance(result, str):
            self.bytes_out += len(result.encode())
        return result

    def _count_matrices(self, args):
        for a in args:
            if isinstance(a, np.ndarray):
                if a.ndim >= 2:
                    self.matrices += int(np.prod(a.shape[:-2], dtype=np.int64))
                    self.max_n = max(self.max_n, *a.shape[-2:])
                return

    def _count_bytes_in(self, args):
        for a in args:
            if isinstance(a, str) and len(a) < 4096 and os.path.isfile(a):
                self.bytes_in += os.path.getsize(a)

    # -- wrappers ----------------------------------------------------------

    def _plain(self, fn, layer, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.layer == layer:
                return fn(*args, **kwargs)
            return tracer._cross(fn, layer, name, args, kwargs)
        return traced

    def _constructor(self, fn, layer, name, cls, is_witness):
        tracer = self
        inner = self._plain(fn, layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.built[cls.__name__] += 1
            if is_witness:
                tracer.built["witness"] += 1
            return inner(*args, **kwargs)
        return traced

    def _validation(self, fn, layer, name):
        """Outermost witness-validation calls, their samples and outcomes."""
        tracer = self
        inner = self._plain(fn, layer, name)

        @functools.wraps(fn)
        def traced(witness, *args, **kwargs):
            if tracer._validate_depth:
                return inner(witness, *args, **kwargs)
            tracer.validations += 1
            tracer.samples_validated += len(getattr(witness, "samples", (None,)))
            tracer._validate_depth += 1
            try:
                result = inner(witness, *args, **kwargs)
            finally:
                tracer._validate_depth -= 1
            if result is not False:
                tracer.validations_passed += 1
            return result
        return traced

    def _norm(self, fn, layer, name):
        tracer = self
        inner = self._plain(fn, layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.norm_calls += 1
            tracer._norm_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._norm_depth -= 1
        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer; ``uninstall`` undoes it."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                own = getattr(obj, "__module__", None) == mod.__name__
                if name.startswith("_") or not own:
                    continue
                if inspect.isfunction(obj):
                    if _makes_calls(obj):
                        wrap = (self._norm if name == "order_unit_norm"
                                else self._plain)
                        replaced[obj] = wrap(obj, layer, name)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, name, replaced[obj])

    def _wrap_class(self, cls, layer):
        # witnesses are the classes that can validate themselves
        is_witness = layer == "equivalence" and hasattr(cls, "validate")
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _PROTOCOL:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(member, property):
                if member.fget is not None and _makes_calls(member.fget):
                    self._set(cls, attr, property(
                        self._plain(member.fget, layer, name),
                        member.fset, member.fdel, member.__doc__))
            elif isinstance(member, staticmethod):
                if _makes_calls(member.__func__):
                    self._set(cls, attr, staticmethod(
                        self._plain(member.__func__, layer, name)))
            elif inspect.isfunction(member) and _makes_calls(member):
                if attr == "__init__":
                    wrapped = self._constructor(member, layer, name, cls,
                                                is_witness)
                elif is_witness and attr.startswith("validate"):
                    wrapped = self._validation(member, layer, name)
                else:
                    wrapped = self._plain(member, layer, name)
                self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_ns[layer] / 1e9, "s")
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        witnesses = self.built["witness"]
        out.update({
            "kernel.matrices": (self.matrices, "count"),
            "kernel.max_n": (self.max_n, "count"),
            "algebra.elements_built": (self.built["Element"], "count"),
            "model.norm_calls": (self.norm_calls, "count"),
            "model.bisection_steps": (self.bisection_steps, "count"),
            "equivalence.witnesses_built": (witnesses, "count"),
            "equivalence.validations": (self.validations, "count"),
            "equivalence.validations_per_witness": (
                self.validations / witnesses if witnesses else 0.0, "ratio"),
            "equivalence.samples_validated": (self.samples_validated, "count"),
            "equivalence.validate_pass_ratio": (
                self.validations_passed / self.validations
                if self.validations else 0.0, "ratio"),
            "serialize.bytes_out": (self.bytes_out, "bytes"),
            "serialize.bytes_in": (self.bytes_in, "bytes"),
        })
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON lines: id, parent, request, layer, name,
        start and end in perf_counter nanoseconds."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
