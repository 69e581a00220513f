"""End-to-end training: dataset  ->  regressor  ->  solve  ->  model."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import ActivationParams, ConvSpec, _slices, _walk_rows
from .dataio import mse
from .errors import DimensionMismatch
from .model import QuadraticModel, reconstruct
from .regressor import Dataset, _RegressorRows, build_regressor
from .solver import SolveReport, _blas_lapack, _check_betas, solve_path, solve_ridge


@dataclass(frozen=True, eq=False)
class FitResult:
    """A trained model, its solve report and the time its fit took.

    The report holds what the solve measured: report.residual_norm ** 2 / N
    is the mean squared error over the N training rows.

    `train_seconds` is regressor assembly plus solve, never file I/O:
    `report.seconds`, plus on the first result the time spent building H
    whole when the N rows fit in one block of the solver's walks. A longer
    fit assembles each block inside the walks, so `report.seconds` already
    holds it. In a sweep the shared work counts towards the first beta, so
    the sweep's train_seconds sum to its fit time.
    """

    model: QuadraticModel
    report: SolveReport
    train_seconds: float


def fit_path(data: Dataset, spec: ConvSpec, params: ActivationParams, betas) -> list[FitResult]:
    """Train one model per ridge weight from a single Gram matrix and at
    most one QR (see solve_path). No N x (q + n) regressor is held unless
    the N rows fit in one block of the solver's walks."""
    betas = _check_betas(betas)
    return _fit(data, spec, params, lambda H, y: solve_path(H, y, betas))


def fit(data: Dataset, spec: ConvSpec, params: ActivationParams, beta: float = 0.0) -> FitResult:
    """Train the banded quadratic model on a dataset in closed form: the
    one-beta fit_path, whose solve is one solve_ridge call."""
    (beta,) = _check_betas([beta])
    return _fit(data, spec, params, lambda H, y: [solve_ridge(H, y, beta)])[0]


def _fit(data, spec, params, solve):
    if data.n_samples <= _walk_rows(spec.n_weights):
        t0 = time.perf_counter()
        H = build_regressor(data, spec, params)
        build_seconds = time.perf_counter() - t0
    else:
        H, build_seconds = _RegressorRows(data, spec, params), 0.0
    return [
        FitResult(reconstruct(report.theta, spec, params), report,
                  report.seconds + (build_seconds if i == 0 else 0.0))
        for i, report in enumerate(solve(H, data.labels))
    ]


def mean_squared_errors(results, data: Dataset) -> list[float]:
    """The mean squared error (dataio.mse) of every result's model on
    `data`, inf or nan where a prediction or its squared error passes the
    float range, from one walk over its feature rows (_predictions)."""
    return [mse(pred, data.labels)
            for pred in _predictions([r.model for r in results], data.features)]


@np.errstate(over="ignore", invalid="ignore")
def _predictions(models, X) -> np.ndarray:
    """predict_batch of every model over the rows of X, a core._Rows, one
    row of the result per model, from one walk over X on scipy's BLAS, the
    library of the solve before it, so a train run keeps to one BLAS
    thread pool (see solver).

    Each block of X is filled column-major into one reused buffer, so
    every band tile's operand is a contiguous column slice of it, and each
    model's prediction is the formula of model._predict_block in its order,
    a * rowsum(X * (X Zbar1)) + b * X Zbar2 + c * Zbar4, with X Zbar1 taken
    by dgemm over the model's own band tiles, the wide ones for a one-row
    block and the narrow ones for more, as model._times_zbar1 picks them.
    It groups the same products as predict_batch, so the two overflow on
    the same rows, but it may round each product differently: they agree
    to rounding, not bit for bit. A prediction past the float range is
    inf or nan, without a warning.
    """
    blas, _ = _blas_lapack()
    N, n = X.shape
    for model in models:
        if model.spec.n != n:
            raise DimensionMismatch(f"dataset has {n} features but spec.n = {model.spec.n}")
    rows = _walk_rows(4 * n)
    buffer = np.empty(2 * min(N, rows) * n)
    out = np.empty((len(models), N))
    for r in _slices(N, rows):
        m = r.stop - r.start
        block = X.fill_rows(r, buffer[: m * n].reshape((m, n), order="F"))
        XZ = buffer[m * n : 2 * m * n].reshape((m, n), order="F")
        for model, predictions in zip(models, out):
            p = model.params
            tiles = model.zbar1_tiles if m == 1 else model.zbar1_block_tiles
            for tile_rows, cols, Z in tiles:
                blas.dgemm(1.0, block[tile_rows], Z.T, trans_b=1, c=XZ[cols], overwrite_c=1)
            predictions[r] = (p.a * np.einsum("ij,ij->i", block, XZ)
                              + p.b * blas.dgemv(1.0, block, model.zbar2) + p.c * model.zbar4)
    return out
