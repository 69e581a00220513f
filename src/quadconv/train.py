"""End-to-end training: dataset  ->  regressor  ->  solve  ->  model."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import ActivationParams, ConvSpec, _walk_rows
from .dataio import mse
from .errors import DimensionMismatch
from .model import QuadraticModel, _predict_block, _walk, reconstruct
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
    holds it. In a sweep the shared work counts towards one beta, as
    report.seconds says: the assembly, validation, Gram walk and correction
    walk towards the first, the QR walk and SVD towards the lowest-index
    beta that falls back. So the sweep's train_seconds sum to its fit time.
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
    float range, without a warning, from one walk over its feature rows
    for all the models (model._walk) on scipy's BLAS, the library of the
    solve before it, so a train run keeps to one BLAS thread pool (see
    solver). It agrees with predict_batch to rounding, not bit for bit."""
    n = data.features.shape[1]
    for model in (r.model for r in results):
        if model.spec.n != n:
            raise DimensionMismatch(f"dataset has {n} features but spec.n = {model.spec.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        predictions = _walk([r.model for r in results], data.features, _predict_block, (),
                            _blas_matmul, order="F")
    return [mse(pred, data.labels) for pred in predictions]


def _blas_matmul(a, b, out=None):
    """The product of a train run's model._walk: a @ b by scipy's dgemm
    into out, a column-major array, or returned by dgemv when b is a vector
    and there is no out. An out that is not column-major raises
    RuntimeError: dgemm would return the product in a new array and leave
    out unwritten."""
    blas, _ = _blas_lapack()
    if out is None:
        return blas.dgemv(1.0, a, b)
    product = blas.dgemm(1.0, a, b.T, trans_b=1, c=out, overwrite_c=1)
    if product is not out:
        raise RuntimeError("dgemm did not write into out, which must be a column-major float array")
    return product
