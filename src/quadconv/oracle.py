"""Brute-force reference implementations used to cross-check the pipeline.

Everything here is deliberately naive and dense, and shares no band-index
bookkeeping with the main code path: an oracle that reused the subject's
index arithmetic could not catch index bugs. Provided are per-patch
quadratic-form evaluation, zero-padded aggregation into the full-size
model, the explicit neuron double sum, and a dense fit with its own
feature enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ActivationParams, ConvSpec, activation_eval
from .errors import DimensionMismatch
from .model import QuadraticModel
from .regressor import Dataset


@dataclass(frozen=True)
class PatchModelSet:
    """Per-patch blocks: z1[k] is an f x f symmetric matrix, z2[k] a length-f
    vector. The scalar block z4[k] is the trace of z1[k], derived so the
    tie holds structurally."""

    z1: np.ndarray
    z2: np.ndarray
    params: ActivationParams

    def __post_init__(self):
        z1 = np.asarray(self.z1, dtype=float)
        z2 = np.asarray(self.z2, dtype=float)
        if z1.ndim != 3 or z1.shape[1] != z1.shape[2]:
            raise DimensionMismatch(f"z1 must be (K, f, f), got shape {z1.shape}")
        if z2.shape != z1.shape[:2]:
            raise DimensionMismatch(f"z2 must be (K, f), got shape {z2.shape}")
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)

    @property
    def patch_count(self) -> int:
        return self.z1.shape[0]

    @property
    def filter_len(self) -> int:
        return self.z1.shape[1]

    @property
    def input_len(self) -> int:
        return self.patch_count + self.filter_len - 1

    @property
    def z4(self) -> np.ndarray:
        return np.trace(self.z1, axis1=1, axis2=2)


@dataclass(frozen=True)
class NeuronSet:
    """Explicit 2-layer weights: filters (m, f) and per-patch output
    weights alpha (m, K). No normalization is enforced here; the trace tie
    of the induced patch models needs unit-norm filters."""

    filters: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.filters, dtype=float)
        al = np.asarray(self.alpha, dtype=float)
        if w.ndim != 2 or al.ndim != 2 or w.shape[0] != al.shape[0]:
            raise DimensionMismatch(
                f"filters {w.shape} and alpha {al.shape} must share the neuron axis"
            )
        object.__setattr__(self, "filters", w)
        object.__setattr__(self, "alpha", al)


def extract_patches(x, spec: ConvSpec) -> list[np.ndarray]:
    """The K = n - f + 1 sliding windows of length f, stride 1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.n,):
        raise DimensionMismatch(f"expected vector of length {spec.n}, got shape {x.shape}")
    return [x[k : k + spec.f].copy() for k in range(spec.patch_count)]


def eval_patch_model(s: PatchModelSet, x) -> float:
    """Sum over patches of the literal augmented quadratic form
    [chi; 1]' [[a z1, b/2 z2], [b/2 z2', c z4]] [chi; 1]."""
    x = np.asarray(x, dtype=float)
    f = s.filter_len
    if x.shape != (s.input_len,):
        raise DimensionMismatch(
            f"expected vector of length {s.input_len}, got shape {x.shape}"
        )
    a, b, c = s.params.a, s.params.b, s.params.c
    total = 0.0
    for k in range(s.patch_count):
        chi = x[k : k + f]
        v = np.append(chi, 1.0)
        M = np.zeros((f + 1, f + 1))
        M[:f, :f] = a * s.z1[k]
        M[:f, f] = 0.5 * b * s.z2[k]
        M[f, :f] = 0.5 * b * s.z2[k]
        M[f, f] = c * np.trace(s.z1[k])
        total += v @ M @ v
    return float(total)


def aggregate(s: PatchModelSet) -> QuadraticModel:
    """Zero-padded sum of the per-patch blocks into one banded model:
    patch k lands at offset k on both axes. The result is banded with
    bandwidth f and its trace is the sum of the per-patch traces."""
    f = s.filter_len
    n = s.input_len
    Z = np.zeros((n, n))
    z2 = np.zeros(n)
    for k in range(s.patch_count):
        Z[k : k + f, k : k + f] += s.z1[k]
        z2[k : k + f] += s.z2[k]
    return QuadraticModel.from_dense(Z, z2, ConvSpec(n, f), s.params)


def eval_neuron_sum(ns: NeuronSet, params: ActivationParams, x) -> float:
    """Double sum over neurons and patches of alpha_jk * sigma(w_j . chi_k)."""
    x = np.asarray(x, dtype=float)
    m, f = ns.filters.shape
    K = ns.alpha.shape[1]
    n = K + f - 1
    if x.shape != (n,):
        raise DimensionMismatch(f"expected vector of length {n}, got shape {x.shape}")
    total = 0.0
    for j in range(m):
        for k in range(K):
            total += ns.alpha[j, k] * activation_eval(params, ns.filters[j] @ x[k : k + f])
    return float(total)


def induced_patch_models(ns: NeuronSet, params: ActivationParams) -> PatchModelSet:
    """Patch-level parametrization induced by explicit neurons:
    z1[k] = sum_j alpha_jk w_j w_j', z2[k] = sum_j alpha_jk w_j."""
    w = ns.filters
    K = ns.alpha.shape[1]
    outer = w[:, :, None] * w[:, None, :]
    z1 = np.stack([(ns.alpha[:, k, None, None] * outer).sum(axis=0) for k in range(K)])
    z2 = ns.alpha.T @ w
    return PatchModelSet(z1, z2, params)


def dense_qnn_fit(data: Dataset, params: ActivationParams) -> QuadraticModel:
    """Fit the dense (f = n) quadratic model with an independent feature
    enumeration (pair-major upper triangle, not diagonal-major) and an
    SVD-based least-squares solve."""
    X = data.inputs
    y = data.labels
    n = data.n_features
    a, b, c = params.a, params.b, params.c

    cols = []
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for i, j in pairs:
        if i == j:
            cols.append(a * X[:, i] ** 2 + c)
        else:
            cols.append(2.0 * a * X[:, i] * X[:, j])
    for i in range(n):
        cols.append(b * X[:, i])
    G = np.column_stack(cols)

    phi, _, _, _ = np.linalg.lstsq(G, y, rcond=None)

    Z = np.zeros((n, n))
    for idx, (i, j) in enumerate(pairs):
        Z[i, j] = phi[idx]
        Z[j, i] = phi[idx]
    z2 = phi[len(pairs) :]
    return QuadraticModel.from_dense(Z, z2, ConvSpec(n, n), params)


def random_patch_model_set(spec: ConvSpec, params: ActivationParams, rng) -> PatchModelSet:
    """Entries i.i.d. uniform on [-1, 1], symmetrized per patch."""
    K, f = spec.patch_count, spec.f
    M = rng.uniform(-1.0, 1.0, size=(K, f, f))
    z1 = 0.5 * (M + M.transpose(0, 2, 1))
    z2 = rng.uniform(-1.0, 1.0, size=(K, f))
    return PatchModelSet(z1, z2, params)


def random_neuron_set(spec: ConvSpec, n_neurons: int, rng) -> NeuronSet:
    """Unit-norm filters (uniform draws, normalized) and readout weights
    i.i.d. uniform on [-1, 1]."""
    w = rng.uniform(-1.0, 1.0, size=(n_neurons, spec.f))
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    # resample rows that landed too close to the origin to normalize
    while np.any(norms < 1e-6):
        bad = norms[:, 0] < 1e-6
        w[bad] = rng.uniform(-1.0, 1.0, size=(int(bad.sum()), spec.f))
        norms = np.linalg.norm(w, axis=1, keepdims=True)
    w = w / norms
    alpha = rng.uniform(-1.0, 1.0, size=(n_neurons, spec.patch_count))
    return NeuronSet(w, alpha)
