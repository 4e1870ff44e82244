"""Spans around the package's public functions, recorded from outside the package.

:func:`install` wraps every public module-level function of the traced
layers and rebinds every copy of it held by any ``lebesgue_lab`` module, so
``quadrature.kernel_values``, ``levelsets.kernel_values`` and the
``convolve`` that ``pmf.convolve_many`` calls all go through the wrapper.
Each call appends one span (name, parent span, start, end, size, status) to
in-memory columns; :meth:`Tracer.dump` writes them out when the run ends,
and :meth:`Tracer.layer_metrics` reduces them to the per-layer metrics.

The tracer keeps one stack of open spans, so it assumes one thread; the
benchmark pins the package's thread count to 1.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("kernel", "quadrature", "levelsets", "pmf", "epi", "cli")

RAISED = 1
NOT_CONVERGED = 2


def _convolve_name(pmf):
    # the package's own path test, with the limit read from the module per call
    def describe(args, kwargs):
        a, b = args
        mults = len(a) * len(b)
        path = "direct" if mults <= pmf.DIRECT_LIMIT else "fft"
        return f"pmf.convolve.{path}", mults

    return describe


def _converged_status(args, kwargs, result):
    return 0 if result[2] else NOT_CONVERGED


def _report_bytes(args, kwargs, result):
    path = (args[0] if args else kwargs["config"]).output_path
    return os.path.getsize(path) if path != "-" else 0


class Tracer:
    """Span columns plus the stack of currently open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.size: list[int] = []
        self.status: list[int] = []
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, fn, name, describe=None, size_after=None, status_after=None):
        """A wrapper that records one span per call of ``fn``.

        ``describe(args, kwargs)`` may return (span name, size) before the
        call; ``size_after`` and ``status_after`` compute them from the
        result instead.
        """
        fixed = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.name)
            if describe is None:
                self.name.append(fixed)
                self.size.append(0)
            else:
                span_name, size = describe(args, kwargs)
                self.name.append(self._name_id(span_name))
                self.size.append(size)
            self.parent.append(self._stack[-1])
            self.status.append(0)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.status[sid] = RAISED
                raise
            finally:
                self.end[sid] = perf_counter()
                self._stack.pop()
            if size_after is not None:
                self.size[sid] = size_after(args, kwargs, result)
            if status_after is not None:
                self.status[sid] = status_after(args, kwargs, result)
            return result

        return traced

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "size": np.asarray(self.size, dtype=np.int64),
            "status": np.asarray(self.status, dtype=np.int8),
        }

    def dump(self, path: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.columns())

    def span_counts(self) -> dict[str, int]:
        counts = np.bincount(np.asarray(self.name, dtype=np.int64), minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts) if c}

    def layer_metrics(self, metric_names) -> dict[str, float]:
        """Reduce the spans to the named per-layer metrics.

        A name is ``<span>.<stat>``: ``calls``; ``self_s``, the span's time
        minus its child spans' time, summed; ``points``, ``levels``, ``mults``
        and ``bytes``, the summed span sizes; ``failures``, the calls that
        raised; ``ok_ratio`` and ``converged_ratio``, the calls that did not
        raise or did converge, over all calls (1 when there were none).  Two
        names are special: ``quadrature.adaptive_integral.integrand_calls``
        counts ``kernel_values`` spans below an ``adaptive_integral`` span, and
        ``levelsets.bisection_kernel_calls`` counts ``kernel_values`` spans
        called directly by ``superlevel_measure_many`` or ``level_crossings``,
        which is where the bisection loop runs.
        """
        c = self.columns()
        n = len(c["name"])
        dur = c["end"] - c["start"]
        has_parent = c["parent"] >= 0
        child_time = np.zeros(n)
        np.add.at(child_time, c["parent"][has_parent], dur[has_parent])
        self_time = dur - child_time
        ids = self._index  # span name -> id

        def of(span):
            return c["name"] == ids.get(span, -1)

        kv = of("kernel.kernel_values")
        out = {}
        for metric in metric_names:
            if metric == "quadrature.adaptive_integral.integrand_calls":
                out[metric] = int(np.count_nonzero(kv & self._below(c, ids, "quadrature.adaptive_integral")))
                continue
            if metric == "levelsets.bisection_kernel_calls":
                parent_name = np.where(has_parent, c["name"][np.maximum(c["parent"], 0)], -1)
                callers = [ids.get(s, -2) for s in ("levelsets.superlevel_measure_many", "levelsets.level_crossings")]
                out[metric] = int(np.count_nonzero(kv & np.isin(parent_name, callers)))
                continue
            span, stat = metric.rsplit(".", 1)
            mask = of(span)
            calls = int(np.count_nonzero(mask))
            if stat == "calls":
                out[metric] = calls
            elif stat == "self_s":
                out[metric] = float(self_time[mask].sum())
            elif stat in ("points", "levels", "mults", "bytes"):
                out[metric] = int(c["size"][mask].sum())
            elif stat == "failures":
                out[metric] = int(np.count_nonzero(c["status"][mask] == RAISED))
            elif stat == "ok_ratio":
                bad = np.count_nonzero(c["status"][mask] == RAISED)
                out[metric] = (calls - bad) / calls if calls else 1.0
            elif stat == "converged_ratio":
                bad = np.count_nonzero(c["status"][mask] == NOT_CONVERGED)
                out[metric] = (calls - bad) / calls if calls else 1.0
            else:
                raise ValueError(f"no rule for per-layer metric {metric!r}")
        return out

    @staticmethod
    def _below(c, ids, ancestor: str) -> np.ndarray:
        """Spans with a span named ``ancestor`` somewhere above them."""
        target = ids.get(ancestor, -1)
        names, parents = c["name"], c["parent"]
        below = np.zeros(len(names), dtype=bool)
        # a span is appended when it opens, so its parent always comes first
        for i in range(len(names)):
            p = parents[i]
            if p >= 0 and (below[p] or names[p] == target):
                below[i] = True
        return below


def _result_size(args, kwargs, result):
    return int(np.size(result))


# per-function hooks; the size of an array result is its number of points or levels
_HOOKS = {
    "kernel.kernel_values": {"size_after": _result_size},
    "kernel.kernel_slope_values": {"size_after": _result_size},
    "levelsets.superlevel_measure_many": {"size_after": _result_size},
    "quadrature.adaptive_integral": {"status_after": _converged_status},
    "cli.write_report": {"size_after": _report_bytes},
}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            yield attr, obj


def install(tracer: Tracer):
    """Wrap the traced layers' public functions and rebind every copy.

    Returns a function that puts every original binding back.
    """
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"lebesgue_lab.{layer}")
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            hooks = dict(_HOOKS.get(name, {}))
            if name == "pmf.convolve":
                hooks["describe"] = _convolve_name(module)
            wrappers[fn] = tracer.wrap(fn, name, **hooks)
    replaced = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "lebesgue_lab" and not mod_name.startswith("lebesgue_lab."):
            continue
        for attr, obj in list(vars(module).items()):
            try:
                wrapper = wrappers.get(obj)
            except TypeError:  # unhashable module attribute
                continue
            if wrapper is not None:
                setattr(module, attr, wrapper)
                replaced.append((module, attr, obj))

    def restore():
        for module, attr, obj in replaced:
            setattr(module, attr, obj)

    return restore
