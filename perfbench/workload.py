"""Workload processes started by run.py, each in a fresh interpreter.

    workload.py wide_fit   --dir SEED_DIR --seconds S --trace 0|1 --out RESULT.json
    workload.py score      --dir SEED_DIR --seconds S --trace 0|1 --out RESULT.json
    workload.py narx_serve --dir SEED_DIR --models PASS_DIR --trace 0|1 --out RESULT.json
    workload.py cli SPANS.json train ...   (the traced form of `python -m quadconv`)

wide_fit and score repeat passes until S seconds have passed; with --trace 1
every second pass runs with the tracer installed. narx_serve checks one
`quadconv train` sweep's outputs and serves queries from its beta-0 model.
Checks compare against perfbench/reference.py and run outside the timed
region. Results are written as JSON to --out.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref
from tracer import Tracer

PREDICT_TOL = 1e-10  # program vs dense reference, relative
SAME_TOL = 1e-12  # single-row vs batch evaluation, relative (rounding only)
MSE_EXACT = 1e-20  # noise-free NARX data is exactly representable at beta 0


class Gates:
    """Checks and operations attempted, and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def close(self, err: float, limit: float, what: str):
        self.check(err <= limit, f"{what}: relative error {err:.3e} > {limit:.0e}")

    def merge(self, other: dict):
        self.attempted += other["attempted"]
        self.failures += other["failures"]

    def as_dict(self):
        return {"attempted": self.attempted, "failed": len(self.failures), "failures": self.failures}


def _import_quadconv():
    t0 = time.perf_counter()
    importlib.import_module("quadconv.cli")
    return t0, time.perf_counter()


def _versions():
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _query_loop(qm, model, Xq):
    """Closed-loop single-row predict + sensitivity queries; latency per query."""
    predict, sensitivity = qm.predict, qm.sensitivity
    predict(model, Xq[0])
    sensitivity(model, Xq[0])
    preds = np.empty(Xq.shape[0])
    grads = np.empty_like(Xq)
    lat = np.empty(Xq.shape[0])
    clock = time.perf_counter
    for i, x in enumerate(Xq):
        t0 = clock()
        preds[i] = predict(model, x)
        grads[i] = sensitivity(model, x)
        lat[i] = clock() - t0
    return preds, grads, {"query_us": (lat * 1e6).tolist()}


def wide_fit_pass(qc, qm, qt, qr, meta, inputs, gates, refdata, k):
    k %= meta["labels"]
    X, y, Xh = inputs["X"], inputs["Y"][:, k], inputs["Xh"]
    spec, params = qc.ConvSpec(meta["n"], meta["f"]), qc.validate_activation(*meta["abc"])
    t0 = time.perf_counter()
    result = qt.fit(qr.Dataset(X, y), spec, params, 0.0)
    pred = qm.predict_batch(result.model, Xh)
    text = qm.serialize(result.model)
    wall = time.perf_counter() - t0
    Xq = Xh[: meta["queries"]]
    q_pred, q_grad, q_stats = _query_loop(qm, result.model, Xq)

    dense = ref.DenseModel.from_json(text)
    gates.close(ref.rel_err(pred, dense.predict(Xh)), PREDICT_TOL, "wide_fit predict_batch")
    gates.close(ref.rel_err(q_pred, dense.predict(Xq)), PREDICT_TOL, "wide_fit predict")
    gates.close(ref.rel_err(q_grad, dense.gradient(Xq)), PREDICT_TOL, "wide_fit sensitivity")
    err = ref.rel_err(dense.theta(), refdata["theta"][:, k])
    return dict(q_stats, wall_s=wall, theta_digits=ref.digits(err, float(refdata["cond"])))


def score_pass(qc, qm, qt, qr, meta, inputs, gates, refdata, k):
    X = inputs["X"]
    path = Path(meta["dir"]) / "model.json"
    t0 = time.perf_counter()
    model = qm.deserialize(path.read_text(encoding="utf-8"))
    pred = qm.predict_batch(model, X)
    grad = qm.sensitivity_batch(model, X)
    text = qm.serialize(model)
    wall = time.perf_counter() - t0
    q_pred, q_grad, q_stats = _query_loop(qm, model, X[: meta["queries"]])

    # the reference is the model the benchmark wrote, not the file as read,
    # so a damaged model file shows up as a mismatch
    if "pred" not in refdata:
        written = ref.DenseModel(meta["n"], meta["f"], *meta["abc"], refdata["band"], refdata["z2"])
        refdata.update(pred=written.predict(X), grad=written.gradient(X), theta=written.theta())
    Q = meta["queries"]
    gates.close(ref.rel_err(pred, refdata["pred"]), PREDICT_TOL, "score predict_batch")
    gates.close(ref.rel_err(grad, refdata["grad"]), PREDICT_TOL, "score sensitivity_batch")
    gates.close(ref.rel_err(q_pred, pred[:Q]), SAME_TOL, "score predict vs batch row")
    gates.close(ref.rel_err(q_grad, grad[:Q]), SAME_TOL, "score sensitivity vs batch row")
    err = ref.rel_err(ref.DenseModel.from_json(text).theta(), refdata["theta"])
    gates.check(err == 0.0, f"score serialize round trip: relative error {err:.3e}")
    return dict(q_stats, wall_s=wall, theta_digits=ref.digits(err))


PASSES = {"wide_fit": wide_fit_pass, "score": score_pass}


def _load_npz(path):
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def run_passes(mode, args):
    t0, t1 = _import_quadconv()
    qc, qm, qt, qr = (sys.modules[f"quadconv.{m}"] for m in ("core", "model", "train", "regressor"))
    meta = json.loads((args.dir / "meta.json").read_text())
    meta["dir"] = str(args.dir)
    inputs = _load_npz(args.dir / "inputs.npz")
    refdata = _load_npz(args.dir / "reference.npz")
    gates = Gates()
    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(passes) % 2 == 1 else None
        if tracer:
            tracer.install()
        try:
            result = PASSES[mode](qc, qm, qt, qr, meta, inputs, gates, refdata, len(passes))
        finally:
            if tracer:
                tracer.uninstall()
        result["traced"] = tracer is not None
        if tracer:
            tracer.record("import", t0, t1)
            result["spans"] = tracer.spans
        passes.append(result)
        if time.perf_counter() - start >= args.seconds and len(passes) >= 1 + args.trace:
            break
    return {"passes": passes, "gates": gates.as_dict(), "versions": _versions()}


def narx_serve(args):
    _import_quadconv()
    qm = sys.modules["quadconv.model"]
    meta = json.loads((args.dir / "meta.json").read_text())
    refdata = _load_npz(args.dir / "reference.npz")
    gates = Gates()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    models = {}
    try:
        for beta in meta["betas"]:
            problem = ""
            try:
                text = (args.models / f"model_beta{beta:g}.json").read_text(encoding="utf-8")
                models[beta] = (text, qm.deserialize(text))
            except (OSError, ValueError) as e:
                problem = str(e)
            gates.check(beta in models, f"model for beta={beta:g}: {problem}")
        X, labels = ref.narx_rows(refdata["u"], refdata["y"], meta["d"])
        X_test, y_test = X[meta["n_train"]:], labels[meta["n_train"]:]
        stats = {}
        if 0.0 in models:
            Xq = X_test[: meta["queries"]]
            q_pred, q_grad, stats = _query_loop(qm, models[0.0][1], Xq)
    finally:
        if tracer:
            tracer.uninstall()
    if 0.0 not in models:
        return {"gates": gates.as_dict(), "versions": _versions()}

    dense = ref.DenseModel.from_json(models[0.0][0])
    gates.close(ref.rel_err(q_pred, dense.predict(Xq)), PREDICT_TOL, "narx predict")
    gates.close(ref.rel_err(q_grad, dense.gradient(Xq)), PREDICT_TOL, "narx sensitivity")
    test_mse = float(np.mean((dense.predict(X_test) - y_test) ** 2))
    gates.check(test_mse <= MSE_EXACT, f"narx beta=0 reference test MSE {test_mse:.3e} > {MSE_EXACT:.0e}")

    try:
        with open(args.models / "metrics.csv", newline="", encoding="utf-8") as fh:
            rows = sorted(csv.DictReader(fh), key=lambda r: float(r["beta"]))
        norms = [float(r["theta_norm"]) for r in rows]
        csv_mse = float(rows[0]["test_mse"]) if rows and float(rows[0]["beta"]) == 0.0 else np.inf
    except (OSError, KeyError, ValueError) as e:
        rows, norms, csv_mse = [], [], np.inf
        gates.check(False, f"narx metrics CSV unreadable: {e}")
    gates.check(len(rows) == len(meta["betas"]), f"narx metrics CSV has {len(rows)} rows")
    gates.check(all(b <= a for a, b in zip(norms, norms[1:])),
                f"narx theta_norm increases with beta: {norms}")
    gates.check(csv_mse <= MSE_EXACT, f"narx beta=0 reported test MSE {csv_mse:.3e} > {MSE_EXACT:.0e}")
    err = ref.rel_err(dense.theta(), refdata["theta"])
    out = dict(stats, gates=gates.as_dict(), versions=_versions(),
               theta_digits=ref.digits(err, float(refdata["cond"])))
    if tracer:
        out["spans"] = tracer.spans
    return out


def traced_cli(argv):
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    t0, t1 = _import_quadconv()
    tracer.record("import", t0, t1)
    tracer.install()
    try:
        return sys.modules["quadconv.cli"].main(cli_args)
    finally:
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "cli":
        return traced_cli(sys.argv[2:])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=["wide_fit", "score", "narx_serve"])
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--models", type=Path)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    result = narx_serve(args) if args.mode == "narx_serve" else run_passes(args.mode, args)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
