"""Dataset container and assembly of the least-squares regressor matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ActivationParams, ConvSpec, _as_rows, _Rows, band_products
from .errors import DimensionMismatch, NonFiniteInput


@dataclass(frozen=True, eq=False)
class Dataset:
    """N feature rows of equal length n with N scalar labels.

    `features` holds the rows as a core._Rows. Dataset(inputs, labels)
    holds a read-only view of each of the caller's arrays, the inputs by
    core._as_rows: a float64 array is shared, not copied, and anything
    else (ints, float32, a list, another byte order) is converted once.
    The caller's arrays keep their own writeable flag, but must not be
    written to while a dataset or a fit made from them is in use; pass
    X.copy() to keep a snapshot. Windowing and split pass a _Rows instead,
    of windows over a series' channels or of row views of another Dataset,
    with a view of the labels; the dataset adopts both without a copy, and
    checks only the labels, since the rows are read-only and finite
    already. The fit and the CLI read the features in blocks, so a
    windowed dataset never holds N x n floats; `inputs` gives them whole.
    The dataset itself writes nothing after construction.
    """

    features: _Rows
    labels: np.ndarray

    def __post_init__(self):
        adopt = isinstance(self.features, _Rows)
        X, y = _as_rows(self.features), np.asarray(self.labels, dtype=float).view()
        if len(X.shape) != 2 or min(X.shape) < 1:
            raise DimensionMismatch(f"inputs must be a nonempty 2-D array, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DimensionMismatch(f"labels must have shape ({X.shape[0]},), got {y.shape}")
        # min and max propagate NaN and +-inf, so they check X without an
        # N x n bool array
        if not (np.isfinite(y).all()
                and (adopt or np.isfinite([X.parts[0].min(), X.parts[0].max()]).all())):
            raise NonFiniteInput("dataset contains non-finite values")
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def inputs(self) -> np.ndarray:
        """The N x n feature array, read-only: a view of a held array, or a
        new array that a windowed dataset builds from its channels at each
        access."""
        X = self.features[0 : self.n_samples]
        X.setflags(write=False)
        return X

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


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
    row source (see core) for the solver, which walks it in row blocks.

    fill_rows(rows, out) writes H[rows] into out, so the fit holds the
    solver's block buffers rather than N x (q + n) floats.
    """

    def __init__(self, data: Dataset, spec: ConvSpec, params: ActivationParams):
        if data.n_features != spec.n:
            raise DimensionMismatch(
                f"dataset has {data.n_features} features but spec.n = {spec.n}"
            )
        self.shape = (data.n_samples, spec.n_weights)
        self._features, self._spec, self._params = data.features, spec, params

    def fill_rows(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """Write H[rows] into out, an m x (q + n) array, column-major as the
        solver's walks pass it, and return out.

        The feature rows are first written into H's own last n columns,
        column-major, so every band product, scaling and shift reads and
        writes one contiguous column at a time: 2.2-2.5x faster than
        filling C-ordered rows on blocks of the benchmark's geometries
        (p = 230 and 2155). They are scaled by b in place once the band
        products have read them, so no m x n copy is made beside out.
        The arithmetic per entry is the same whatever the block, so any row
        block equals the same rows of the whole H bit for bit. An entry
        that overflows is left as inf or nan without a warning: the solver
        finds it from the Gram diagonal and reports it.
        """
        n, q = self._spec.n, self._spec.band_size
        X = self._features.fill_rows(rows, out[:, q:])
        with np.errstate(over="ignore", invalid="ignore"):
            quad = band_products(X, self._spec, out[:, :q])
            quad *= self._params.a
            quad[:, :n] += self._params.c
            X *= self._params.b
        return out
