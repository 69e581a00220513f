"""End-to-end training: dataset  ->  regressor  ->  solve  ->  model."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import ActivationParams, ConvSpec
from .model import QuadraticModel, reconstruct
from .regressor import Dataset, build_regressor
from .solver import SolveReport, _check_betas, solve_path, solve_ridge


@dataclass(frozen=True, eq=False)
class FitResult:
    model: QuadraticModel
    report: SolveReport
    build_seconds: float
    solve_seconds: float

    @property
    def train_seconds(self) -> float:
        """Regressor assembly plus solve; file I/O is never included.

        In a sweep the shared assembly and Gram count towards the first
        beta, so the sweep's train_seconds sum to its fit time."""
        return self.build_seconds + self.solve_seconds


def fit_path(data: Dataset, spec: ConvSpec, params: ActivationParams, betas) -> list[FitResult]:
    """Train one model per ridge weight from a single regressor assembly
    and a single Gram matrix (see solve_path)."""
    betas = _check_betas(betas)
    return _fit(data, spec, params, lambda H, y: solve_path(H, y, betas))


def fit(data: Dataset, spec: ConvSpec, params: ActivationParams, beta: float = 0.0) -> FitResult:
    """Train the banded quadratic model on a dataset in closed form: the
    one-beta fit_path, whose solve is one solve_ridge call."""
    (beta,) = _check_betas([beta])
    return _fit(data, spec, params, lambda H, y: [solve_ridge(H, y, beta)])[0]


def _fit(data, spec, params, solve):
    t0 = time.perf_counter()
    H = build_regressor(data, spec, params)
    build_seconds = time.perf_counter() - t0
    return [
        FitResult(reconstruct(report.theta, spec, params), report,
                  build_seconds if i == 0 else 0.0, report.seconds)
        for i, report in enumerate(solve(H, data.labels))
    ]
