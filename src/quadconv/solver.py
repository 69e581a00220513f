"""Normal-equation and pseudoinverse solution of the training problem."""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqrt

from .core import ConvSpec
from .errors import DimensionMismatch, NegativeRegularizer, NonFiniteInput
from .regressor import RegressorMatrix

# Accept the Cholesky solution only when the normal-equation residual is at
# rounding level; otherwise fall through to the QR/SVD route.
_CHOLESKY_ACCEPT = 1e-10

# The QR fallback and the residual norms walk H in blocks of at least this
# many rows, and of at least four triangles of the QR, so the triangle
# stacked on each block stays a small share of it. Each QR step factors its
# block by LAPACK's recursive blocked QR with panels this wide.
_BLOCK_ROWS = 4096
_QR_PANEL = 64


class SolveStrategy(str, Enum):
    CHOLESKY = "cholesky"
    PSEUDOINVERSE = "pseudoinverse"


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution plus diagnostics of a single least-squares solve.

    `seconds` is the wall time this beta added to its sweep: the first beta
    of a sweep also carries the shared Gram and the shared walk over H that
    computes every beta's residual norm, and the first beta that falls back
    also carries the sweep's one QR/SVD.
    """

    theta: WeightVector
    beta: float
    residual_norm: float
    normal_residual_norm: float
    rank_deficient: bool
    solve_strategy: SolveStrategy
    seconds: float


def _check_betas(betas) -> list[float]:
    """The ridge weights of a sweep as floats; raises on an empty list or a
    negative or non-finite weight."""
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("need at least one beta")
    for beta in betas:
        if not np.isfinite(beta):
            raise NonFiniteInput(f"beta must be finite, got {beta!r}")
        if beta < 0:
            raise NegativeRegularizer(f"beta must be >= 0, got {beta!r}")
    return betas


def solve_ls(H: RegressorMatrix, y) -> SolveReport:
    """Minimize ||H theta - y||^2.

    Returns the unique minimizer on full-rank systems; the minimum-norm
    minimizer (with rank_deficient set) otherwise.
    """
    return _solve_path(H, y, [0.0])[0]


def solve_ridge(H: RegressorMatrix, y, beta: float) -> SolveReport:
    """Minimize ||H theta - y||^2 + beta * theta' theta for beta >= 0.

    At beta = 0 this is solve_ls. Note this penalty is a plain 2-norm on
    the weight vector; it is not equivalent to trace-based regularization
    of the constrained convex formulation except at beta = 0.
    """
    return _solve_path(H, y, _check_betas([beta]))[0]


def solve_path(H: RegressorMatrix, y, betas) -> list[SolveReport]:
    """solve_ridge for every beta of a sweep, one report per beta in order.

    The Gram matrix H'H and H'y are formed once. Each beta factors
    H'H + beta I by Cholesky; a beta whose factor is degenerate or fails
    the residual check falls back to one QR of [H | y] shared by the whole
    sweep, and one walk over H gives every beta's residual norm. Each
    report's weights and diagnostics equal solve_ridge's for its beta bit
    for bit.
    """
    return _solve_path(H, y, _check_betas(betas))


def _solve_path(H: RegressorMatrix, y, betas: list[float]) -> list[SolveReport]:
    t = time.perf_counter()
    M = H.matrix
    y = np.asarray(y, dtype=float)
    if y.shape != (M.shape[0],):
        raise DimensionMismatch(
            f"labels must have shape ({M.shape[0]},), got {y.shape}"
        )
    if not np.isfinite(y).all():
        raise NonFiniteInput("labels contain non-finite values")

    # a NaN or inf in column j makes A_jj = sum_i M_ij^2 non-finite, so the
    # Gram diagonal stands in for a scan of H
    with np.errstate(invalid="ignore", over="ignore"):
        A = M.T @ M
    gram_diagonal = A.diagonal().copy()
    if not np.isfinite(gram_diagonal).all():
        if not np.isfinite(M).all():
            raise NonFiniteInput("regressor matrix contains non-finite values")
        raise NonFiniteInput("H'H overflows: the regressor entries are too large")
    rhs = M.T @ y
    scale = max(1.0, float(np.linalg.norm(rhs)))
    svd = None
    solved = []  # the fields of each beta's report but its residual norm
    for beta in betas:
        # A holds H'H + beta I; its diagonal is rewritten from the saved
        # one, so every beta sees exactly the matrix a lone solve would
        np.fill_diagonal(A, gram_diagonal + beta)
        theta = _cholesky(A, rhs, beta, scale, max(M.shape))
        rank_deficient = False
        strategy = SolveStrategy.CHOLESKY
        if theta is None:
            if svd is None:
                svd = _rank_revealing(M, y)
            theta, rank_deficient = _pseudoinverse(*svd, beta, max(M.shape))
            strategy = SolveStrategy.PSEUDOINVERSE
        normal_residual_norm = float(np.linalg.norm(A @ theta - rhs))
        now = time.perf_counter()
        solved.append(dict(
            theta=WeightVector(theta, H.spec),
            beta=beta,
            normal_residual_norm=normal_residual_norm,
            rank_deficient=rank_deficient,
            solve_strategy=strategy,
            seconds=now - t,
        ))
        t = now
    residual_norms = _residual_norms(M, y, [s["theta"].theta for s in solved])
    # the shared walk counts towards the first beta, as the Gram does
    solved[0]["seconds"] += time.perf_counter() - t
    return [SolveReport(**s, residual_norm=float(r)) for s, r in zip(solved, residual_norms)]


def _block_rows(p):
    """Rows per block of a p-column H."""
    return max(_BLOCK_ROWS, 4 * (p + 1))


def _row_blocks(N, p):
    """Slices of consecutive rows that cover N rows of a p-column H."""
    rows = _block_rows(p)
    return [slice(start, min(N, start + rows)) for start in range(0, N, rows)]


def _residual_norms(M, y, thetas):
    """||y - M theta|| for every theta, reading each row block of M once.

    Each theta gets its own product per block, so its norm does not depend
    on which other thetas share the walk.
    """
    squares = np.zeros(len(thetas))
    for rows in _row_blocks(*M.shape):
        block, labels = M[rows], y[rows]
        for i, theta in enumerate(thetas):
            r = labels - block @ theta
            squares[i] += r @ r
    return np.sqrt(squares)


def _cholesky(A, rhs, beta, scale, size):
    """The refined Cholesky solution of A theta = rhs, or None when the
    factor is degenerate (beta = 0) or the normal residual is above the
    acceptance level."""
    try:
        fac = scipy.linalg.cho_factor(A, lower=False, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    # a collapsed pivot means the normal matrix is numerically singular;
    # the residual check below cannot see null-space components, so the
    # factor diagonal is the rank-deficiency detector for beta = 0
    pivots = np.abs(np.diag(fac[0]))
    if beta == 0.0 and pivots.min() <= np.sqrt(np.finfo(float).eps * size) * pivots.max():
        return None
    theta = scipy.linalg.cho_solve(fac, rhs, check_finite=False)
    # one step of iterative refinement tightens stationarity to rounding
    # level on reasonably conditioned systems
    theta += scipy.linalg.cho_solve(fac, rhs - A @ theta, check_finite=False)
    if np.linalg.norm(rhs - A @ theta) <= _CHOLESKY_ACCEPT * scale:
        return theta
    return None


def _rank_revealing(M, y):
    """Singular values s, right singular vectors Vt and U'y of H, from a
    QR of [H | y] and an SVD of its small triangle.

    With [H | y] = Q [R z], H = (Q U_R) S Vt for the SVD R = U_R S Vt, so
    U'y = U_R' z. The QR is a tall-skinny QR over row blocks: the triangle
    of the rows so far is stacked on the next block in one Fortran-ordered
    buffer, and the buffer is factored in place; the triangle of the stack
    is the triangle of all rows so far. Neither Q, an N-row copy of H nor
    the N-row left factor U is formed.
    """
    N, p = M.shape
    width = p + 1
    buffer = np.empty((min(N, _block_rows(p)) + width) * width)
    R = np.zeros((0, width))
    for rows in _row_blocks(N, p):
        k = len(R)
        m = k + rows.stop - rows.start
        # a contiguous m-row view, so the factorization works in place
        stack = buffer[: m * width].reshape((m, width), order="F")
        stack[:k] = R
        stack[k:, :p] = M[rows]
        stack[k:, p] = y[rows]
        qr, _, info = dgeqrt(min(_QR_PANEL, m, width), stack, overwrite_a=True)
        if info:
            raise RuntimeError(f"dgeqrt rejected argument {-info}")
        R = np.triu(qr[: min(m, width)])
    k = min(N, p)
    U_R, s, Vt = np.linalg.svd(R[:k, :p], full_matrices=False)
    return s, Vt, U_R.T @ R[:k, p]


def _pseudoinverse(s, Vt, Uty, beta, size):
    """Minimum-norm (beta = 0) or ridge (beta > 0) solution from the SVD
    of H; also whether H is numerically rank deficient."""
    smax = float(s[0]) if s.size else 0.0
    cutoff = smax * np.finfo(float).eps * size
    nz = s > cutoff
    if beta > 0:
        gain = s / (s * s + beta)
    else:
        gain = np.zeros_like(s)
        gain[nz] = 1.0 / s[nz]
    theta = Vt.T @ (gain * Uty)
    return theta, int(np.count_nonzero(nz)) < Vt.shape[1]
