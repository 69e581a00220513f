"""Independent dense reference for quadconv models, in numpy only.

Nothing here imports quadconv. A model file is read with the json module and
its band is laid out by the documented diagonal-major order: the n entries of
the main diagonal first, then the n - 1 entries of the first superdiagonal,
and so on up to diagonal f - 1. The weight vector theta is that band with the
off-diagonal entries doubled, followed by Zbar2. The model output is

    a * x' Z1 x + b * Z2' x + c * trace(Z1)
"""

from __future__ import annotations

import json
import math

import numpy as np

EPS = float(np.finfo(float).eps)


def band_size(n: int, f: int) -> int:
    return sum(n - d for d in range(f))


def dense_band(band, n: int, f: int) -> np.ndarray:
    """Symmetric n x n matrix from diagonal-major band values."""
    band = np.asarray(band, dtype=float)
    if band.shape != (band_size(n, f),):
        raise ValueError(f"band of length {band.size} does not fit n={n}, f={f}")
    Z = np.zeros((n, n))
    pos = 0
    for d in range(f):
        k = n - d
        idx = np.arange(k)
        Z[idx, idx + d] = band[pos : pos + k]
        Z[idx + d, idx] = band[pos : pos + k]
        pos += k
    return Z


class DenseModel:
    """A model held as dense Z1, vector Z2 and activation (a, b, c)."""

    def __init__(self, n, f, a, b, c, band, z2):
        self.n, self.f = int(n), int(f)
        self.a, self.b, self.c = float(a), float(b), float(c)
        self.band = np.array(band, dtype=float)
        self.z2 = np.array(z2, dtype=float)
        self.Z = dense_band(self.band, self.n, self.f)

    @classmethod
    def from_json(cls, text: str) -> "DenseModel":
        doc = json.loads(text)
        return cls(doc["n"], doc["f"], doc["a"], doc["b"], doc["c"], doc["zbar1_band"], doc["zbar2"])

    def to_json(self) -> str:
        """Model file text; json writes floats with repr, which round-trips."""
        doc = {"n": self.n, "f": self.f, "a": self.a, "b": self.b, "c": self.c,
               "zbar1_band": self.band.tolist(), "zbar2": self.z2.tolist()}
        return json.dumps(doc, indent=1) + "\n"

    def theta(self) -> np.ndarray:
        t = self.band.copy()
        t[self.n :] *= 2.0
        return np.concatenate([t, self.z2])

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        quad = np.einsum("ij,ij->i", X @ self.Z, X)
        return self.a * quad + self.b * (X @ self.z2) + self.c * float(np.trace(self.Z))

    def gradient(self, X) -> np.ndarray:
        return 2.0 * self.a * (np.asarray(X, dtype=float) @ self.Z) + self.b * self.z2


def regressor(X, f: int, a: float, b: float, c: float) -> np.ndarray:
    """H with H @ theta equal to the model output at every row of X."""
    X = np.asarray(X, dtype=float)
    N, n = X.shape
    H = np.empty((N, band_size(n, f) + n))
    pos = 0
    for d in range(f):
        k = n - d
        np.multiply(X[:, : n - d], X[:, d:], out=H[:, pos : pos + k])
        pos += k
    H[:, :pos] *= a
    H[:, :n] += c
    np.multiply(X, b, out=H[:, pos:])
    return H


def lstsq_reference(H, y):
    """Minimum-norm least-squares theta and the effective condition number
    (largest over smallest retained singular value) of H."""
    theta, _, rank, s = np.linalg.lstsq(H, y, rcond=None)
    return theta, float(s[0] / s[rank - 1])


def rel_err(x, ref) -> float:
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        return math.inf
    denom = float(np.linalg.norm(ref))
    num = float(np.linalg.norm(x - ref))
    return num / denom if denom > 0 else num


def digits(err: float, cond: float = 1.0) -> float:
    """-log10 of a relative error, capped where a reference computed at
    condition number cond stops being accurate (about cond * eps)."""
    cap = -math.log10(max(cond, 1.0) * EPS)
    if not err > 0:
        return cap
    return min(cap, -math.log10(err))


def narx_series(T: int, seed: int):
    """Noise-free input/output series with the recurrence of
    quadconv.synth_narx, kept here so the benchmark's inputs do not move
    when the program changes."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=T + 4)
    u = np.convolve(raw, np.ones(5) / 5, mode="valid")
    u *= 0.9 / max(float(np.abs(u).max()), 1e-12)
    y = np.zeros(T)
    for t in range(2, T):
        y[t] = (
            0.3 * y[t - 1]
            - 0.2 * y[t - 2]
            + 0.8 * u[t - 1]
            + 0.2 * u[t - 2]
            + 0.05 * u[t - 1] * u[t - 2]
            + 0.02 * u[t - 1] ** 2
            - 0.03 * y[t - 1] * y[t - 2]
            - 0.02 * y[t - 1] ** 2
        )
    return u, y


def narx_rows(u, y, d: int):
    """Lagged rows [u_{t-d} .. u_{t-1}, y_{t-d} .. y_{t-1}] with label y_t."""
    T = u.size
    uw = np.lib.stride_tricks.sliding_window_view(u, d)[: T - d]
    yw = np.lib.stride_tricks.sliding_window_view(y, d)[: T - d]
    return np.hstack([uw, yw]), y[d:]
