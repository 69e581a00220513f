"""Normal-equation and pseudoinverse solution of the training problem."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .core import ConvSpec
from .errors import DimensionMismatch, NegativeRegularizer, NonFiniteInput
from .regressor import RegressorMatrix

# Accept the Cholesky solution only when the normal-equation residual is at
# rounding level; otherwise fall through to the SVD route.
_CHOLESKY_ACCEPT = 1e-10


class SolveStrategy(str, Enum):
    CHOLESKY = "cholesky"
    PSEUDOINVERSE = "pseudoinverse"


@dataclass(frozen=True)
class WeightVector:
    """Trained weights: [diagonal of Zbar1; doubled off-diagonal band
    entries, diagonal-major; Zbar2]. Length q + n."""

    theta: np.ndarray
    spec: ConvSpec

    def __post_init__(self):
        t = np.array(self.theta, dtype=float, copy=True)
        if t.shape != (self.spec.n_weights,):
            raise DimensionMismatch(
                f"weight vector must have length {self.spec.n_weights}, got shape {t.shape}"
            )
        t.setflags(write=False)
        object.__setattr__(self, "theta", t)


@dataclass(frozen=True)
class SolveReport:
    """Solution plus diagnostics of a single least-squares solve."""

    theta: WeightVector
    beta: float
    residual_norm: float
    normal_residual_norm: float
    rank_deficient: bool
    solve_strategy: SolveStrategy


def solve_ls(H: RegressorMatrix, y) -> SolveReport:
    """Minimize ||H theta - y||^2.

    Returns the unique minimizer on full-rank systems; the minimum-norm
    minimizer (with rank_deficient set) otherwise.
    """
    return _solve(H, y, 0.0)


def solve_ridge(H: RegressorMatrix, y, beta: float) -> SolveReport:
    """Minimize ||H theta - y||^2 + beta * theta' theta for beta >= 0.

    At beta = 0 this is solve_ls. Note this penalty is a plain 2-norm on
    the weight vector; it is not equivalent to trace-based regularization
    of the constrained convex formulation except at beta = 0.
    """
    if not np.isfinite(beta):
        raise NonFiniteInput(f"beta must be finite, got {beta!r}")
    if beta < 0:
        raise NegativeRegularizer(f"beta must be >= 0, got {beta!r}")
    return _solve(H, y, float(beta))


def _solve(H: RegressorMatrix, y, beta: float) -> SolveReport:
    M = H.matrix
    y = np.asarray(y, dtype=float)
    if y.shape != (M.shape[0],):
        raise DimensionMismatch(
            f"labels must have shape ({M.shape[0]},), got {y.shape}"
        )
    if not np.isfinite(M).all():
        raise NonFiniteInput("regressor matrix contains non-finite values")
    if not np.isfinite(y).all():
        raise NonFiniteInput("labels contain non-finite values")

    p = M.shape[1]
    A = M.T @ M
    if beta > 0:
        A[np.diag_indices_from(A)] += beta
    rhs = M.T @ y
    scale = max(1.0, float(np.linalg.norm(rhs)))

    theta = None
    rank_deficient = False
    strategy = SolveStrategy.PSEUDOINVERSE
    try:
        fac = scipy.linalg.cho_factor(A, lower=False, check_finite=False)
        # a collapsed pivot means the normal matrix is numerically singular;
        # the residual check below cannot see null-space components, so the
        # factor diagonal is the rank-deficiency detector for beta = 0
        pivots = np.abs(np.diag(fac[0]))
        degenerate = beta == 0.0 and bool(
            pivots.min() <= np.sqrt(np.finfo(float).eps * max(M.shape)) * pivots.max()
        )
        if not degenerate:
            th = scipy.linalg.cho_solve(fac, rhs, check_finite=False)
            # one step of iterative refinement tightens stationarity to
            # rounding level on reasonably conditioned systems
            th += scipy.linalg.cho_solve(fac, rhs - A @ th, check_finite=False)
            if np.linalg.norm(rhs - A @ th) <= _CHOLESKY_ACCEPT * scale:
                theta = th
                strategy = SolveStrategy.CHOLESKY
    except np.linalg.LinAlgError:
        pass

    if theta is None:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        smax = float(s[0]) if s.size else 0.0
        cutoff = smax * np.finfo(float).eps * max(M.shape)
        rank = int(np.count_nonzero(s > cutoff))
        rank_deficient = rank < p
        if beta > 0:
            gain = s / (s * s + beta)
        else:
            gain = np.zeros_like(s)
            nz = s > cutoff
            gain[nz] = 1.0 / s[nz]
        theta = Vt.T @ (gain * (U.T @ y))

    residual_norm = float(np.linalg.norm(y - M @ theta))
    normal_residual_norm = float(np.linalg.norm(A @ theta - rhs))
    return SolveReport(
        theta=WeightVector(theta, H.spec),
        beta=beta,
        residual_norm=residual_norm,
        normal_residual_norm=normal_residual_norm,
        rank_deficient=rank_deficient,
        solve_strategy=strategy,
    )
