"""Normal-equation and pseudoinverse solution of the training problem.

The solver reads the regressor H only in row blocks, by three walks: one
accumulates H'H and H'y, one factors [H | y] by a tall-skinny QR when a beta
falls back, and one gives every beta's residual norm. H is a held 2-D array
of any memory order or a row source: an object with shape (N, p) whose
fill_rows(rows, out) writes H[rows] into out, an m x p array with contiguous
columns, and returns out. A row source lets a fit assemble each block when a
walk needs it, so no N x p array is ever held. Every walk reads blocks with
contiguous columns, so each report depends only on the values of H.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import _slices, _walk_rows
from .errors import DimensionMismatch, NegativeRegularizer, NonFiniteInput

# Accept the Cholesky solution only when the normal-equation residual is at
# rounding level; otherwise fall through to the QR/SVD route.
_CHOLESKY_ACCEPT = 1e-10

# The QR fallback walks H in blocks of at least this many rows, and of at
# least four triangles of the QR, so the triangle stacked on each block
# stays a small share of it. Each QR step factors its block by LAPACK's
# recursive blocked QR with panels this wide.
_BLOCK_ROWS = 4096
_QR_PANEL = 64

# Each walk calls one BLAS library only: the Gram and QR walks scipy's, the
# residual walk numpy's. numpy and scipy each bundle their own OpenBLAS, with
# its own thread pool, and a pool whose threads still spin after a call slows
# the other's next call. A numpy H'y product between dsyrk calls made the
# Gram walk 1.9x slower at p = 2155, and a numpy product with each stacked
# block between dgeqrt calls made the QR walk 2.2x slower at p = 230.
# Assembling a block uses no BLAS.


class SolveStrategy(str, Enum):
    CHOLESKY = "cholesky"
    PSEUDOINVERSE = "pseudoinverse"


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution plus diagnostics of a single least-squares solve.

    `seconds` is the wall time this beta added to its sweep: the first beta
    of a sweep also carries the shared Gram walk and the shared walk that
    computes every beta's residual norm, and the first beta that falls back
    also carries the sweep's one QR walk and SVD. When H comes from a row
    source, these walks include assembling its blocks. `theta` is
    read-only, one weight per column of H, in the layout that
    model.reconstruct inverts.
    """

    theta: np.ndarray
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


def solve_ridge(H, y, beta: float) -> SolveReport:
    """Minimize ||H theta - y||^2 + beta * theta' theta for beta >= 0 over
    the columns of H, a 2-D array or a row source (see the module docstring).

    At beta = 0 this is plain least squares: the unique minimizer on
    full-rank systems, the minimum-norm minimizer (with rank_deficient set)
    otherwise. Note this penalty is a plain 2-norm on the weight vector;
    it is not equivalent to trace-based regularization of the constrained
    convex formulation except at beta = 0.
    """
    return _solve_path(H, y, _check_betas([beta]))[0]


def solve_path(H, y, betas) -> list[SolveReport]:
    """solve_ridge for every beta of a sweep, one report per beta in order.

    The Gram matrix H'H and H'y are formed once, by one walk over H. Each
    beta factors H'H + beta I by Cholesky; a beta whose factor is degenerate
    or fails the residual check falls back to one QR of [H | y] shared by
    the whole sweep, and one more walk gives every beta's residual norm. So
    H is read twice, or three times when a beta falls back. Each report's
    weights and diagnostics equal solve_ridge's for its beta bit for bit.
    """
    return _solve_path(H, y, _check_betas(betas))


def _solve_path(H, y, betas: list[float]) -> list[SolveReport]:
    # scipy loads at the first solve, not on import, so that serving a model
    # never pays for it; loading it before the clock starts keeps that
    # one-time cost out of the first report's seconds
    import scipy.linalg.lapack  # noqa: F401

    t = time.perf_counter()
    if not hasattr(H, "fill_rows"):
        H = np.asarray(H, dtype=float)
        if H.ndim != 2:
            raise DimensionMismatch(f"regressor must be a 2-D array, got shape {H.shape}")
    y = np.asarray(y, dtype=float)
    if y.shape != (H.shape[0],):
        raise DimensionMismatch(
            f"labels must have shape ({H.shape[0]},), got {y.shape}"
        )
    if not np.isfinite(y).all():
        raise NonFiniteInput("labels contain non-finite values")
    # finite labels whose squares sum past the float range would make the
    # acceptance scale and every residual norm infinite
    with np.errstate(over="ignore"):
        if not np.isfinite(y @ y):
            raise NonFiniteInput("labels are too large: the sum of their squares overflows")

    A, rhs = _gram(H, y)
    # a NaN or inf in column j makes A_jj = sum_i H_ij^2 non-finite, so the
    # Gram diagonal stands in for a scan of H
    gram_diagonal = A.diagonal().copy()
    if not np.isfinite(gram_diagonal).all():
        blocks = _blocks(H, y, _walk_rows(H.shape[1]))
        if not all(np.isfinite(block).all() for block, _ in blocks):
            raise NonFiniteInput(
                "regressor matrix contains non-finite values; if the features "
                "are finite, a product of two of them overflowed"
            )
        raise NonFiniteInput("H'H overflows: the regressor entries are too large")
    # H'y can overflow in norm where y'y does not: each entry sums up to N
    # label-sized terms, and the acceptance test needs a finite scale
    with np.errstate(over="ignore"):
        scale = max(1.0, float(np.linalg.norm(rhs)))
    if not np.isfinite(scale):
        raise NonFiniteInput("the norm of H'y overflows: the labels are too large")
    svd = None
    solved = []  # the fields of each beta's report but its residual norm
    for beta in betas:
        # A holds H'H + beta I; its diagonal is rewritten from the saved
        # one, so every beta sees exactly the matrix a lone solve would
        np.fill_diagonal(A, gram_diagonal + beta)
        theta = _cholesky(A, rhs, beta, scale, max(H.shape))
        rank_deficient = False
        strategy = SolveStrategy.CHOLESKY
        if theta is None:
            if svd is None:
                svd = _rank_revealing(H, y)
            theta, rank_deficient = _pseudoinverse(*svd, beta, max(H.shape))
            strategy = SolveStrategy.PSEUDOINVERSE
        theta.setflags(write=False)
        normal_residual_norm = float(np.linalg.norm(A @ theta - rhs))
        now = time.perf_counter()
        solved.append(dict(
            theta=theta,
            beta=beta,
            normal_residual_norm=normal_residual_norm,
            rank_deficient=rank_deficient,
            solve_strategy=strategy,
            seconds=now - t,
        ))
        t = now
    residual_norms = _residual_norms(H, y, [s["theta"] for s in solved])
    # the shared walk counts towards the first beta, as the Gram does
    solved[0]["seconds"] += time.perf_counter() - t
    return [SolveReport(**s, residual_norm=float(r)) for s, r in zip(solved, residual_norms)]


def _block_rows(p):
    """Rows per block of the QR walk over a p-column H."""
    return max(_BLOCK_ROWS, 4 * (p + 1))


def _blocks(H, y, rows):
    """(H[r], y[r]) for consecutive row slices r of `rows` rows, each block
    with contiguous columns: a held H's rows, copied unless they are already
    (as in build_regressor's one-block H), or rows a row source writes into
    one buffer, which every block reuses and which is freed when the walk
    ends."""
    N, p = H.shape
    buffer = np.empty(min(N, rows) * p) if hasattr(H, "fill_rows") else None
    for r in _slices(N, rows):
        m = r.stop - r.start
        out = None if buffer is None else buffer[: m * p].reshape((m, p), order="F")
        yield np.asfortranarray(H[r] if out is None else H.fill_rows(r, out)), y[r]


def _gram(H, y):
    """H'H and H'y, accumulated block by block in place by scipy's dsyrk
    and dgemv, each reading the column-major blocks of _blocks."""
    from scipy.linalg.blas import dgemv, dsyrk

    p = H.shape[1]
    A = np.zeros((p, p), order="F")
    rhs = np.zeros(p)
    for block, labels in _blocks(H, y, _walk_rows(p)):
        A = dsyrk(1.0, block, beta=1.0, c=A, trans=1, overwrite_c=1)
        rhs = dgemv(1.0, block, labels, beta=1.0, y=rhs, trans=1, overwrite_y=1)
    # dsyrk fills the upper triangle; mirror it so A @ theta reads all of A
    A += np.triu(A, 1).T
    return A, rhs


def _residual_norms(H, y, thetas):
    """||y - H theta|| for every theta, from one walk over H.

    Each theta gets its own product per block, so its norm does not depend
    on which other thetas share the walk.
    """
    squares = np.zeros(len(thetas))
    for block, labels in _blocks(H, y, _walk_rows(H.shape[1])):
        for i, theta in enumerate(thetas):
            r = labels - block @ theta
            squares[i] += r @ r
    return np.sqrt(squares)


def _cholesky(A, rhs, beta, scale, size):
    """The refined Cholesky solution of A theta = rhs, or None when the
    factor is degenerate (beta = 0) or the normal residual is above the
    acceptance level."""
    from scipy.linalg import cho_factor, cho_solve

    try:
        fac = cho_factor(A, lower=False, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    # a collapsed pivot means the normal matrix is numerically singular;
    # the residual check below cannot see null-space components, so the
    # factor diagonal is the rank-deficiency detector for beta = 0
    pivots = np.abs(np.diag(fac[0]))
    if beta == 0.0 and pivots.min() <= np.sqrt(np.finfo(float).eps * size) * pivots.max():
        return None
    theta = cho_solve(fac, rhs, check_finite=False)
    # one step of iterative refinement tightens stationarity to rounding
    # level on reasonably conditioned systems
    theta += cho_solve(fac, rhs - A @ theta, check_finite=False)
    if np.linalg.norm(rhs - A @ theta) <= _CHOLESKY_ACCEPT * scale:
        return theta
    return None


def _rank_revealing(H, y):
    """Singular values s, right singular vectors Vt and U'y of H, from a
    QR of [H | y] and an SVD of its small triangle.

    With [H | y] = Q [R z], H = (Q U_R) S Vt for the SVD R = U_R S Vt, so
    U'y = U_R' z. The QR is a tall-skinny QR over row blocks: the triangle
    of the rows so far is stacked on the next block in one Fortran-ordered
    buffer, and the buffer is factored in place; the triangle of the stack
    is the triangle of all rows so far. Neither Q, an N-row copy of H nor
    the N-row left factor U is formed; a row source fills each block
    straight into the buffer.
    """
    from scipy.linalg.lapack import dgeqrt

    N, p = H.shape
    width = p + 1
    buffer = np.empty((min(N, _block_rows(p)) + width) * width)
    R = np.zeros((0, width))
    for rows in _slices(N, _block_rows(p)):
        k = len(R)
        m = k + rows.stop - rows.start
        # a contiguous m-row view, so the factorization works in place
        stack = buffer[: m * width].reshape((m, width), order="F")
        stack[:k] = R
        if hasattr(H, "fill_rows"):
            H.fill_rows(rows, stack[k:, :p])
        else:
            stack[k:, :p] = H[rows]
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
