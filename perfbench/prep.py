"""Generate one workload's inputs and references for one seed.

    python3 perfbench/prep.py --workload wide_fit --seed 3 --size full --dir DIR

Writes DIR/meta.json last, so a directory with meta.json is complete. The
program under test later receives only the files and arrays written here;
the references stay with the benchmark. Nothing here imports quadconv.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from pathlib import Path

import numpy as np

import reference as ref

# Part of the cache path: bump it whenever the generated inputs change.
VERSION = 1

# quadconv's default activation (RELU_MIMIC), which the CLI also uses.
A, B, C = 0.0937, 0.5, 0.4688

SIZES = {
    "full": {
        "narx_cli": {"T": 200_000, "d": 20, "f": 5, "betas": [0.0, 1.0, 10.0], "queries": 2000},
        "wide_fit": {"N": 20_000, "n": 200, "f": 10, "holdout": 20_000, "labels": 8, "queries": 2000},
        "score": {"N": 20_000, "n": 400, "f": 3, "queries": 2000},
    },
    "tiny": {
        "narx_cli": {"T": 3000, "d": 4, "f": 3, "betas": [0.0, 1.0, 10.0], "queries": 50},
        "wide_fit": {"N": 600, "n": 12, "f": 3, "holdout": 200, "labels": 2, "queries": 50},
        "score": {"N": 300, "n": 16, "f": 3, "queries": 50},
    },
}


def _rng(seed: int, stream: int):
    return np.random.default_rng([seed, stream])


def prep_narx(meta, seed, out: Path):
    u, y = ref.narx_series(meta["T"], seed)
    lines = [f"{a!r},{b!r}" for a, b in zip(u.tolist(), y.tolist())]
    (out / "series.csv").write_text("u,y\n" + "\n".join(lines) + "\n", encoding="utf-8")
    X, labels = ref.narx_rows(u, y, meta["d"])
    k = int(labels.size * 0.5)
    theta, cond = ref.lstsq_reference(ref.regressor(X[:k], meta["f"], A, B, C), labels[:k])
    np.savez(out / "reference.npz", u=u, y=y, theta=theta, cond=cond)
    meta.update(n=2 * meta["d"], n_train=k, x_bytes=X.nbytes,
                h_bytes=k * (ref.band_size(2 * meta["d"], meta["f"]) + 2 * meta["d"]) * 8)


def prep_wide(meta, seed, out: Path):
    rng = _rng(seed, 1)
    N, n, f = meta["N"], meta["n"], meta["f"]
    # raw-sensor-like features: unit noise around an offset of 50
    X = rng.standard_normal((N, n)) + 50.0
    Xh = rng.standard_normal((meta["holdout"], n)) + 50.0
    # One label vector per random banded model, each plus 1% noise. Passes
    # cycle through them: theta's accuracy depends far more on the model than
    # on X, so a median over several models is what makes theta_digits
    # repeatable from seed to seed. Labels carry signal because pure-noise
    # labels push the solver onto its slow SVD route.
    Y = np.empty((N, meta["labels"]))
    for k in range(meta["labels"]):
        truth = ref.DenseModel(n, f, A, B, C,
                               rng.standard_normal(ref.band_size(n, f)) / np.sqrt(f),
                               rng.standard_normal(n))
        y = truth.predict(X)
        Y[:, k] = y + 0.01 * float(y.std()) * rng.standard_normal(N)
    H = ref.regressor(X, f, A, B, C)
    theta, cond = ref.lstsq_reference(H, Y)
    np.savez(out / "inputs.npz", X=X, Y=Y, Xh=Xh)
    np.savez(out / "reference.npz", theta=theta, cond=cond)
    meta.update(x_bytes=X.nbytes + Xh.nbytes, h_bytes=H.nbytes)


def prep_score(meta, seed, out: Path):
    rng = _rng(seed, 2)
    N, n, f = meta["N"], meta["n"], meta["f"]
    model = ref.DenseModel(n, f, A, B, C, rng.standard_normal(ref.band_size(n, f)) / np.sqrt(f),
                           rng.standard_normal(n))
    text = model.to_json()
    (out / "model.json").write_text(text, encoding="utf-8")
    written = ref.DenseModel.from_json(text)
    np.savez(out / "inputs.npz", X=rng.standard_normal((N, n)))
    np.savez(out / "reference.npz", band=written.band, z2=written.z2)
    meta.update(x_bytes=N * n * 8, h_bytes=0)


PREP = {"narx_cli": prep_narx, "wide_fit": prep_wide, "score": prep_score}


def prepare(workload: str, seed: int, size: str, target: Path) -> None:
    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    meta = dict(SIZES[size][workload], workload=workload, seed=seed, size=size, abc=[A, B, C])
    PREP[workload](meta, seed, tmp)
    (tmp / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
    shutil.rmtree(target, ignore_errors=True)
    os.rename(tmp, target)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(PREP))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=sorted(SIZES))
    p.add_argument("--dir", required=True, type=Path)
    args = p.parse_args()
    prepare(args.workload, args.seed, args.size, args.dir)


if __name__ == "__main__":
    main()
