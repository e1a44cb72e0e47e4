"""Per-layer tracer for the benchmark: spans around calls into prodsys.

``Tracer.install`` wraps the public functions and class methods of every
prodsys module, rebinding each wrapped function in every prodsys namespace
that imported it, and wraps ``numpy.linalg.svd``, ``numpy.kron`` and
``numpy.linalg.norm`` as a kernel pseudo-layer beneath them.  Spans are
recorded only inside an op span, so set-up and correctness checks stay out
of the per-layer numbers.  After each op, ``flush`` folds the op's spans
into per-layer totals: a span's self time is its duration minus the
durations of its direct children, so the self times of all layers plus the
op's own self time add up to the op's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("linalg", "lattice", "fock", "amalgam", "cluster", "hyperspace",
          "randomsets", "selfcheck", "cli")
# Entry points whose inclusive time is reported; a nested call of the same
# name is counted once, in its outermost span.
HOT = ("lattice.solve_addit_seeds", "lattice.generate_product_system",
       "lattice.LatticeInclusionSystem", "cluster.ominus_levels",
       "cluster.cluster_inclusion", "randomsets.indicator_projection",
       "randomsets.measure_from_state", "hyperspace.cb_derivative")

_OP = "op"
_CHILD = "child"


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "calls/op"
        units[f"{layer}.self_s"] = "s/op"
    units.update({
        "numpy.svd.calls": "calls/op", "numpy.svd.s": "s/op",
        "numpy.svd.max_rows": "rows", "numpy.svd.in_bytes": "B/op",
        "numpy.kron.calls": "calls/op", "numpy.kron.s": "s/op",
        "numpy.kron.out_bytes": "B/op",
        "numpy.norm.calls": "calls/op", "numpy.norm.s": "s/op",
    })
    for name in HOT:
        units[f"{name}.s"] = "s/op"
    units.update({"cli.startup_s": "s/op", "op.self_s": "s/op",
                  "trace.op_s": "s/op", "trace.overhead": "ratio"})
    return units


class Tracer:
    """Span recorder with per-layer totals summed over the flushed ops."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index]
        self.stack: list = []
        self.totals: dict = {}
        self.ops = 0
        self._cli_ops: set = set()   # op span indices with a child process

    # -- recording ---------------------------------------------------------

    def _add(self, key: str, value: float):
        self.totals[key] = self.totals.get(key, 0.0) + value

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1]])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][1:3] = start, clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    @contextmanager
    def op(self):
        """Root span of one op; yields its index for ``attach_child``."""
        idx = len(self.spans)
        self.spans.append([_OP, 0.0, 0.0, -1])
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield idx
        finally:
            self.spans[idx][1:3] = start, time.perf_counter()
            self.stack.pop()

    def attach_child(self, op_index: int, totals: dict):
        """Fold a child process's totals (from ``cli_shim``) into an op.

        The child's traced wall time becomes a child span of the op, so the
        op's self time is the child's start-up and exit cost, reported as
        ``cli.startup_s``.
        """
        for key, value in totals.items():
            if key == "trace.op_s":
                continue
            if key == "numpy.svd.max_rows":
                self.totals[key] = max(self.totals.get(key, 0.0), value)
            else:
                self._add(key, value)
        self.spans.append([_CHILD, 0.0, totals.get("trace.op_s", 0.0), op_index])
        self._cli_ops.add(op_index)

    # -- reduction ---------------------------------------------------------

    def flush(self):
        """Reduce the recorded spans into totals and clear them."""
        spans = self.spans
        durations = [end - start for _, start, end, _ in spans]
        child_time = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += durations[i]
        for i, (name, _, _, parent) in enumerate(spans):
            own = durations[i] - child_time[i]
            if name == _CHILD:
                continue
            if name == _OP:
                self.ops += 1
                self._add("trace.op_s", durations[i])
                self._add("op.self_s", own)
                if i in self._cli_ops:
                    self._add("cli.startup_s", own)
                continue
            if name.startswith("numpy."):
                self._add(f"{name}.calls", 1)
                self._add(f"{name}.s", durations[i])
                continue
            layer = name.split(".", 1)[0]
            self._add(f"{layer}.calls", 1)
            self._add(f"{layer}.self_s", own)
            if name in HOT:
                ancestor = parent
                while ancestor >= 0 and spans[ancestor][0] != name:
                    ancestor = spans[ancestor][3]
                if ancestor < 0:
                    self._add(f"{name}.s", durations[i])
        spans.clear()
        self._cli_ops.clear()

    def per_op(self) -> dict:
        """Every per-layer metric except ``trace.overhead``, per traced op."""
        out = {}
        for key in metric_units():
            if key == "trace.overhead":
                continue
            value = self.totals.get(key, 0.0)
            if key != "numpy.svd.max_rows" and self.ops:
                value /= self.ops
            out[key] = value
        return out

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the prodsys layers and the numpy kernels in this process."""
        import prodsys

        modules = {layer: importlib.import_module(f"prodsys.{layer}")
                   for layer in LAYERS}
        namespaces = [vars(prodsys)] + [vars(m) for m in modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    _rebind(namespaces, obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", obj)
        self._wrap_kernels()

    def _wrap_class(self, prefix: str, cls):
        for attr, member in list(vars(cls).items()):
            if attr in ("__init__", "__post_init__"):
                name = prefix if attr == "__init__" else f"{prefix}.{attr}"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{prefix}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(name, member.__func__)))
            elif isinstance(member, property):
                setattr(cls, attr, property(self.wrap(name, member.fget),
                                            member.fset, member.fdel, member.__doc__))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(name, member))

    def _wrap_kernels(self):
        totals = self.totals
        stack = self.stack
        svd = self.wrap("numpy.svd", np.linalg.svd)
        kron = self.wrap("numpy.kron", np.kron)

        def svd_counted(a, *args, **kwargs):
            if stack:
                shape = np.shape(a)
                rows = shape[-2] if len(shape) >= 2 else 0
                nbytes = math.prod(shape) * np.asarray(a).itemsize
                totals["numpy.svd.in_bytes"] = totals.get("numpy.svd.in_bytes", 0.0) + nbytes
                totals["numpy.svd.max_rows"] = max(totals.get("numpy.svd.max_rows", 0.0), rows)
            return svd(a, *args, **kwargs)

        def kron_counted(a, b):
            out = kron(a, b)
            if stack:
                totals["numpy.kron.out_bytes"] = (totals.get("numpy.kron.out_bytes", 0.0)
                                                  + math.prod(out.shape) * out.itemsize)
            return out

        np.linalg.svd = svd_counted
        np.kron = kron_counted
        np.linalg.norm = self.wrap("numpy.norm", np.linalg.norm)


def _rebind(namespaces: list, original, wrapped):
    """Replace ``original`` by ``wrapped`` wherever a namespace binds it,
    also inside module-level tuples of functions (such as check lists)."""
    for ns in namespaces:
        for key, value in list(ns.items()):
            if value is original:
                ns[key] = wrapped
            elif isinstance(value, tuple) and any(v is original for v in value):
                ns[key] = tuple(wrapped if v is original else v for v in value)
