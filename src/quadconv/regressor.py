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
        _adopt(self, X, y, scan=(X, y))

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_features(self) -> int:
        return self.inputs.shape[1]


def _adopt(data, X, y, scan):
    """Check the shapes of (X, y) and that the arrays in scan are finite,
    make both read-only and store them in data, which shares their memory."""
    if X.ndim != 2 or X.shape[0] < 1:
        raise DimensionMismatch(f"inputs must be a nonempty 2-D array, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise DimensionMismatch(
            f"labels must have shape ({X.shape[0]},), got {y.shape}"
        )
    if not all(np.isfinite(a).all() for a in scan):
        raise NonFiniteInput("dataset contains non-finite values")
    X.setflags(write=False)
    y.setflags(write=False)
    object.__setattr__(data, "inputs", X)
    object.__setattr__(data, "labels", y)


def _dataset(inputs: np.ndarray, labels: np.ndarray) -> Dataset:
    """A Dataset over float arrays that no caller can write, without
    copying them: arrays the caller has just built, or row views of another
    Dataset's. The inputs must be finite already, as values gathered from a
    validated series or dataset are; the labels are checked."""
    data = object.__new__(Dataset)
    _adopt(data, inputs, labels, scan=(labels,))
    return data


def build_regressor(data: Dataset, spec: ConvSpec, params: ActivationParams) -> np.ndarray:
    """Assemble the N x (q + n) array H so that H @ theta is the model
    output at every sample.

    Row i is [a * vecf(x_i) with c added to the n diagonal entries, b * x_i]:
    columns [0, q) hold the activation-weighted band products plus the
    constant contribution on the diagonal block, columns [q, q + n) hold b
    times the raw features. H is Fortran-ordered, allocated once and filled
    in place: all rows of the row source a walked fit reads in blocks.
    """
    rows = _RegressorRows(data, spec, params)
    return rows.fill_rows(slice(0, rows.shape[0]), np.empty(rows.shape, order="F"))


class _RegressorRows:
    """The H of build_regressor(data, spec, params), never held whole: a
    row source for the solver, which walks it in row blocks.

    fill_rows(rows, out) writes H[rows] into out, so the fit holds the
    solver's block buffers rather than N x (q + n) floats.
    """

    def __init__(self, data: Dataset, spec: ConvSpec, params: ActivationParams):
        if data.n_features != spec.n:
            raise DimensionMismatch(
                f"dataset has {data.n_features} features but spec.n = {spec.n}"
            )
        self.shape = (data.n_samples, spec.n_weights)
        self._inputs, self._spec, self._params = data.inputs, spec, params

    def fill_rows(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """Write H[rows] into out, an m x (q + n) array whose columns are
        contiguous, and return out.

        The feature rows are first copied column-major (m x n, small beside
        out), so every band product, scaling and shift reads and writes one
        contiguous column at a time: 2.2-2.5x faster than filling C-ordered
        rows on blocks of the benchmark's geometries (p = 230 and 2155).
        The arithmetic per entry is the same whatever the block, so any row
        block equals the same rows of the whole H bit for bit. An entry
        that overflows is left as inf or nan without a warning: the solver
        finds it from the Gram diagonal and reports it.
        """
        X = np.asfortranarray(self._inputs[rows])
        n, q = self._spec.n, self._spec.band_size
        with np.errstate(over="ignore", invalid="ignore"):
            quad = band_products(X, self._spec, out[:, :q])
            quad *= self._params.a
            quad[:, :n] += self._params.c
            np.multiply(X, self._params.b, out=out[:, q:])
        return out
