"""Span and call-count tracing of stepdist's layers, installed from outside.

``Tracer.install()`` rebinds, for the duration of a traced run only:

* every module-level binding, in the layer modules and in the ``stepdist``
  package namespace, of a traced function: each layer's public functions
  (its ``__all__``), every function one layer imports from another (which
  covers the private quantile kernels that ``copula``, ``measure``,
  ``stochastic`` and ``transform`` import), and the ``_check_*`` functions;
* the methods, static and class methods and properties of
  ``MonotoneStepLinear``, ``Cdf``, ``RealSet`` and ``Interval``.

``Tracer.remove()`` puts every original back.  Calls into the scalar hot
layers (monotone, cdf, realset, measure, transform, and the per-point
copula evaluations) are only aggregated into call counts, total and self
time; the coarser entry points also record a span (id, name, start, end,
parent span, op id) kept in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

import stepdist
from stepdist import cdf, checks, copula, distfile, measure, monotone, realset, stochastic, transform

LAYERS = {
    "monotone": monotone,
    "cdf": cdf,
    "realset": realset,
    "measure": measure,
    "transform": transform,
    "stochastic": stochastic,
    "copula": copula,
    "checks": checks,
    "distfile": distfile,
}
CLASSES = (monotone.MonotoneStepLinear, cdf.Cdf, realset.RealSet, realset.Interval)
SPAN_LAYERS = {"stochastic", "copula", "checks", "distfile"}
AGGREGATE_ONLY = {"copula.copula_eval", "copula.empirical_joint_cdf", "copula.sklar_compose"}
QUANTILE_KERNELS = {
    "cdf._left_quantile_unchecked": "left",
    "cdf._right_quantile_unchecked": "right",
}
NUDGING_KERNELS = {*QUANTILE_KERNELS, "cdf._left_quantiles"}
ARRAY_BOUNDARY = {
    "stochastic.sample_inverse",
    "stochastic.distributional_transform",
    "stochastic.ks_uniformity",
    "stochastic.inversion_check",
}


def _layer_of(module_name: str) -> str | None:
    head, _, tail = module_name.rpartition(".")
    return tail if head == "stepdist" and tail in LAYERS else None


def traced_functions() -> dict:
    """Original function -> traced name ``<layer>.<name>``."""
    out = {}
    for layer, mod in LAYERS.items():
        for name, obj in vars(mod).items():
            if not inspect.isfunction(obj):
                continue
            home = _layer_of(obj.__module__)
            if home is None:
                continue
            public = home == layer and name in getattr(mod, "__all__", ())
            imported = home != layer
            check = home == "checks" and name.startswith("_check_")
            if public or imported or check:
                out[obj] = f"{home}.{obj.__name__}"
    return out


class Tracer:
    """In-memory spans, per-phase [calls, total_s, self_s] tables and counters."""

    def __init__(self):
        self.stats_by_phase: dict[str, dict] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        self.counters_by_phase: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self._seen_levels: set = set()
        self.begin("setup")
        self.stack: list[list] = []  # [child_s, span_id or None, nearest span id, name]
        self.spans: list[tuple] = []
        self.op = -1
        self.check_names: dict[str, str] = {}
        self._undo: list[tuple] = []
        self._wrappers: dict = {}
        self._next_span = 0

    # -- phases ------------------------------------------------------------
    def _flush_levels(self):
        self.counters["quantile_distinct"] += len(self._seen_levels)
        self._seen_levels = set()

    def begin(self, phase: str):
        """Route calls and counters from here on to the tables of ``phase``."""
        if self._seen_levels:
            self._flush_levels()
        self.stats = self.stats_by_phase[phase]
        self.counters = self.counters_by_phase[phase]

    def begin_op(self, i: int):
        """Start op i: distinct quantile levels are counted per op."""
        self._flush_levels()
        self.op = i

    def finish(self):
        self._flush_levels()

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name: str):
        if fn in self._wrappers:
            return self._wrappers[fn]
        layer = name.partition(".")[0]
        span = layer in SPAN_LAYERS and name not in AGGREGATE_ONLY
        hook = self._hook_for(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][2] if stack else None
            if span:
                sid = tracer._next_span
                tracer._next_span += 1
                frame = [0.0, sid, sid, name]
            else:
                frame = [0.0, None, parent, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                row = tracer.stats[name]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if span:
                    tracer.spans.append((frame[1], name, t0, t1, parent, tracer.op))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        self._wrappers[fn] = wrapper
        return wrapper

    def _hook_for(self, name: str):
        if name in QUANTILE_KERNELS:
            side = QUANTILE_KERNELS[name]

            def hook(args, kwargs, result):
                self._seen_levels.add((id(args[0]), side, float(args[1])))

            return hook
        if name.startswith("checks._check_"):

            def hook(args, kwargs, result):
                self.check_names[name] = result.name

            return hook
        if name in ARRAY_BOUNDARY:

            def hook(args, kwargs, result):
                arrays = [a for a in (*args, result) if isinstance(a, np.ndarray)]
                if isinstance(result, stochastic.InversionReport):
                    self.counters["stochastic.elements"] += result.n
                    self.counters["stochastic.bytes_computed"] += 8 * result.n
                for a in arrays:
                    self.counters["stochastic.elements"] += a.size
                    self.counters["stochastic.bytes_computed"] += a.nbytes

            return hook
        if name in ("monotone.MonotoneStepLinear.value", "monotone.MonotoneStepLinear.values"):

            def hook(args, kwargs, result):
                # a quantile kernel evaluates F only to confirm or nudge a ramp solve
                if self.stack and self.stack[-1][3] in NUDGING_KERNELS:
                    self.counters["cdf.nudge_evals"] += 1

            return hook
        if name == "copula.empirical_joint_cdf":

            def hook(args, kwargs, result):
                self.counters["copula.rows_scanned"] += args[0].size

            return hook
        if name == "copula.copula_eval":

            def hook(args, kwargs, result):
                if args[0].sample is not None:
                    self.counters["copula.rows_scanned"] += args[0].sample.shape[0]

            return hook
        return None

    def _rebind(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        funcs = traced_functions()
        for mod in (stepdist, *LAYERS.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in funcs:
                    self._rebind(mod, attr, self._wrap(obj, funcs[obj]))
        for cls in CLASSES:
            layer = _layer_of(cls.__module__)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("__") and attr != "__post_init__":
                    continue
                name = f"{layer}.{cls.__name__}.{attr}"
                if isinstance(obj, staticmethod):
                    new = staticmethod(self._wrap(obj.__func__, name))
                elif isinstance(obj, classmethod):
                    new = classmethod(self._wrap(obj.__func__, name))
                elif isinstance(obj, property):
                    new = property(self._wrap(obj.fget, name), obj.fset, obj.fdel, obj.__doc__)
                elif inspect.isfunction(obj):
                    new = self._wrap(obj, name)
                else:
                    continue
                self._rebind(cls, attr, new)

    def remove(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        self._wrappers.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

