"""Dataset container and assembly of the least-squares regressor matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ActivationParams, ConvSpec, band_products
from .errors import DimensionMismatch, NonFiniteInput


@dataclass(frozen=True, eq=False)
class Dataset:
    """N feature rows of equal length n with N scalar labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.array(self.inputs, dtype=float, copy=True)
        y = np.array(self.labels, dtype=float, copy=True)
        if X.ndim != 2 or X.shape[0] < 1:
            raise DimensionMismatch(f"inputs must be a nonempty 2-D array, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DimensionMismatch(
                f"labels must have shape ({X.shape[0]},), got {y.shape}"
            )
        if not np.isfinite(X).all() or not np.isfinite(y).all():
            raise NonFiniteInput("dataset contains non-finite values")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "labels", y)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_features(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True, eq=False)
class RegressorMatrix:
    """Regressor H with one row per sample and q + n columns.

    Columns [0, q) hold the activation-weighted band products plus the
    constant contribution on the diagonal block; columns [q, q + n) hold
    b times the raw features.
    """

    matrix: np.ndarray
    spec: ConvSpec
    params: ActivationParams

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2 or M.shape[1] != self.spec.n_weights:
            raise DimensionMismatch(
                f"regressor must have {self.spec.n_weights} columns, got shape {M.shape}"
            )
        object.__setattr__(self, "matrix", M)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]


def build_regressor(data: Dataset, spec: ConvSpec, params: ActivationParams) -> RegressorMatrix:
    """Assemble H so that H @ theta is the model output at every sample.

    Row i is [a * vecf(x_i) with c added to the n diagonal entries, b * x_i].
    Deterministic regardless of how rows might be batched. H is allocated
    once and filled in place, so assembly needs no temporaries of its size.
    """
    if data.n_features != spec.n:
        raise DimensionMismatch(
            f"dataset has {data.n_features} features but spec.n = {spec.n}"
        )
    X = data.inputs
    n, q = spec.n, spec.band_size
    H = np.empty((data.n_samples, spec.n_weights))
    quad = band_products(X, spec, H[:, :q])
    quad *= params.a
    quad[:, :n] += params.c
    np.multiply(X, params.b, out=H[:, q:])
    return RegressorMatrix(H, spec, params)
