"""Span tracer for quadconv's layers, installed from outside the package.

`Tracer.install()` wraps every public function defined in the measured
layer modules and rebinds each name in the quadconv package that refers to
one, so `from .dataio import load_csv` inside quadconv.cli is traced as well.
Nothing under src/ changes. Spans stay in memory and are written out by the
caller when the run ends. `summarize()` turns one pass's spans into the
benchmark's per-layer metrics and needs neither quadconv nor numpy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time

# quadconv modules measured as layers; oracle, verify and errors are off the
# hot path and are left unwrapped.
LAYERS = ("dataio", "regressor", "solver", "model", "train", "cli")


def _shape(obj):
    return getattr(getattr(obj, "matrix", obj), "shape", None)


def _load_attrs(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _matrix_attrs(args, kwargs, result):
    shape = _shape(result)
    return {"rows": shape[0], "cols": shape[1]} if shape else {}


def _solve_attrs(args, kwargs, result):
    attrs = {}
    shape = _shape(args[0]) if args else None
    if shape:
        attrs.update(rows=shape[0], cols=shape[1])
    route = getattr(getattr(result, "solve_strategy", None), "value", None)
    if route is not None:
        attrs["route"] = route
    return attrs


def _batch_attrs(args, kwargs, result):
    shape = getattr(result, "shape", None)
    return {"rows": shape[0]} if shape else {}


# extra facts recorded on a span, read from the call's arguments and result
ATTRS = {
    "dataio.load_csv": _load_attrs,
    "regressor.build_regressor": _matrix_attrs,
    "solver.solve_ridge": _solve_attrs,
    "model.predict_batch": _batch_attrs,
    "model.sensitivity_batch": _batch_attrs,
}


class Tracer:
    """Records (name, start, end, parent) spans around layer calls."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def record(self, name, start, end):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent, "attrs": {}})

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else -1, "attrs": {}}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span["attrs"] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"quadconv.{layer}")
            for name, fn in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "quadconv" and not modname.startswith("quadconv."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def _total(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _layer(name):
    return name.split(".", 1)[0]


def _self_time(spans, name):
    """Time inside `name` spans not covered by the outermost spans of other
    layers nested in them (calls within the same layer count as its own)."""
    layer = _layer(name)
    total = 0.0
    for i, span in enumerate(spans):
        if span["name"] != name:
            continue
        covered = 0.0
        for child in spans[i + 1 :]:
            if _layer(child["name"]) == layer:
                continue
            p = child["parent"]
            while p > i and _layer(spans[p]["name"]) == layer:
                p = spans[p]["parent"]
            if p == i:
                covered += child["end"] - child["start"]
        total += span["end"] - span["start"] - covered
    return total


def _attr_sum(spans, name, fn):
    return sum(fn(s["attrs"]) for s in spans if s["name"] == name)


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def _p50_us(spans, name):
    durations = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return statistics.median(durations) * 1e6 if durations else 0.0


def _calls(spans, name):
    return sum(1 for s in spans if s["name"] == name)


def summarize(spans):
    """Per-layer metrics of one pass. A layer that did not run reads 0."""
    load_s = _total(spans, "dataio.load_csv")
    solve_s = _total(spans, "solver.solve_ridge")
    gram_gflop = _attr_sum(spans, "solver.solve_ridge",
                           lambda a: a.get("rows", 0) * a.get("cols", 0) ** 2) / 1e9
    predict_batch_s = _total(spans, "model.predict_batch")
    sens_batch_s = _total(spans, "model.sensitivity_batch")
    routes = [s["attrs"].get("route") for s in spans if s["name"] == "solver.solve_ridge"]
    return {
        "import.s": _total(spans, "import"),
        "dataio.load_csv.s": load_s,
        "dataio.load_csv.mb_per_s": _rate(
            _attr_sum(spans, "dataio.load_csv", lambda a: a.get("bytes", 0)) / 1e6, load_s),
        "dataio.narx_window.s": _total(spans, "dataio.narx_window"),
        "dataio.split.s": _total(spans, "dataio.split"),
        "regressor.build_regressor.calls": _calls(spans, "regressor.build_regressor"),
        "regressor.build_regressor.s": _total(spans, "regressor.build_regressor"),
        "regressor.build_regressor.out_mb": _attr_sum(
            spans, "regressor.build_regressor",
            lambda a: a.get("rows", 0) * a.get("cols", 0) * 8) / 1e6,
        "solver.solve_ridge.calls": _calls(spans, "solver.solve_ridge"),
        "solver.solve_ridge.s": solve_s,
        "solver.route.cholesky": routes.count("cholesky"),
        "solver.route.pseudoinverse": routes.count("pseudoinverse"),
        "solver.gram_gflop": gram_gflop,
        "solver.solve_ridge.gflop_per_s": _rate(gram_gflop, solve_s),
        "model.predict_batch.calls": _calls(spans, "model.predict_batch"),
        "model.predict_batch.s": predict_batch_s,
        "model.predict_batch.rows_per_s": _rate(
            _attr_sum(spans, "model.predict_batch", lambda a: a.get("rows", 0)), predict_batch_s),
        "model.sensitivity_batch.s": sens_batch_s,
        "model.sensitivity_batch.rows_per_s": _rate(
            _attr_sum(spans, "model.sensitivity_batch", lambda a: a.get("rows", 0)), sens_batch_s),
        "model.predict.us_p50": _p50_us(spans, "model.predict"),
        "model.sensitivity.us_p50": _p50_us(spans, "model.sensitivity"),
        "model.serialize.s": _total(spans, "model.serialize"),
        "model.deserialize.s": _total(spans, "model.deserialize"),
        "train.fit.s": _total(spans, "train.fit"),
        "train.fit.self_s": _self_time(spans, "train.fit"),
        "cli.main.s": _total(spans, "cli.main"),
        "cli.main.self_s": _self_time(spans, "cli.main"),
    }
