"""End-to-end training: dataset  ->  regressor  ->  solve  ->  model."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import ActivationParams, ConvSpec, _walk_rows
from .model import QuadraticModel, reconstruct
from .regressor import Dataset, _RegressorRows, build_regressor
from .solver import SolveReport, _check_betas, _residual_squares, solve_path, solve_ridge

# mean_squared_errors walks H only while its bound on every intermediate of
# the walk and of the model kernel stays at or below this; the float range
# ends at 2^1024, and the 2^24 between them covers the rounding of every sum.
_SCORE_LIMIT = 2.0 ** 1000


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


def mean_squared_errors(results, data: Dataset) -> list[float] | None:
    """The mean squared error of every result's model on `data`, as
    ||y - H theta||^2 / N for the rows of H on `data` and each result's
    theta, from one walk over them (solver._residual_squares) on scipy's
    BLAS, the library of the solve before it; or None, without a walk, when
    the bound below passes 2^1000 for any result. The results share one
    spec and activation, as a sweep's do. H theta and the model kernel
    group the same products differently, so they agree to rounding, not
    bit for bit.

    The bound makes the walk stand in for the model kernel (predict_batch)
    only where neither can overflow. Let X = max(1, max |x|) over the rows
    of `data`, Y = max |y| over its labels, W = max(1, max |band|, max
    |zbar2|) of a model, K = max(1, a, |b|, c) and T = 3 n (2f - 1) K X^2 W.
    The model kernel forms x'Zbar1, whose entries each sum at most 2f - 1
    nonzero products of size X max|band| (a tile's zeros give exact
    zeros), then x'Zbar1 x, a sum of n such entries times x, and x'zbar2,
    and scales them by a and b and the trace, at most n max|band|, by c:
    every one of these is at most T. A row of H holds a x_r x_c, plus c on
    the n diagonal entries, and b x; theta holds the band, its
    off-diagonal entries doubled, and zbar2. So an entry of H is at most
    2 K X^2, and H theta sums n diagonal terms of at most (a X^2 + c)
    max|band|, at most (f - 1) n off-diagonal ones of at most 2 a X^2
    max|band| and n of at most |b| X max|zbar2|: at most T. A residual is
    then at most T + Y, and the N squared residuals sum to at most
    N (T + Y)^2, the bound. Each computed partial sum exceeds its sum of
    magnitudes by a factor (1 + u)^k for k roundings, far below 2^24. When
    None is returned the caller evaluates the models instead.
    """
    if not results:
        return []
    spec, params = results[0].model.spec, results[0].model.params
    if any(r.model.spec != spec or r.model.params != params for r in results):
        raise ValueError("the results must share one spec and activation")
    N, y = data.n_samples, data.labels
    X = max([1.0] + [float(max(part.max(), -part.min())) for part in data.features.parts])
    Y = float(max(y.max(), -y.min()))
    K = max(1.0, params.a, abs(params.b), params.c)
    for r in results:
        W = max(1.0, float(abs(r.model.zbar1_band).max()), float(abs(r.model.zbar2).max()))
        T = 3.0 * spec.n * (2 * spec.f - 1) * K * X * X * W
        # Python floats: a product past the float range is inf, not an error
        if not N * (T + Y) * (T + Y) <= _SCORE_LIMIT:
            return None
    squares = _residual_squares(_RegressorRows(data, spec, params), y,
                                [r.report.theta for r in results])
    return [square / N for square in squares]
