"""End-to-end training: dataset  ->  regressor  ->  solve  ->  model."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import ActivationParams, ConvSpec
from .model import QuadraticModel, reconstruct
from .regressor import Dataset, _RegressorRows, build_regressor
from .solver import SolveReport, _check_betas, _walk_rows, solve_path, solve_ridge


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
