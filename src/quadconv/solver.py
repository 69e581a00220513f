"""Normal-equation and pseudoinverse solution of the training problem.

The solver reads the regressor H only in row blocks, by three walks: one
accumulates H'H and H'y, one factors [H | y] by a tall-skinny QR when a beta
falls back, and one gives every beta's residual norm. H is a held 2-D array
of any memory order or a row source (see core), which lets a fit assemble
each block when a walk needs it, so no N x p array is ever held; a held H
is read as the row source core._Rows([H]). Every walk reads blocks with
contiguous columns, so each report depends only on the values of H.

A solve fills its blocks into one workspace, a flat buffer that every walk
reuses: it is made when a walk first has to fill a block (a held H whose
blocks are already column-major is read in place and needs none), and a walk
that needs more room drops it before making a larger one, so at most one
block buffer is alive at a time.

A sweep holds one p x p array. The Gram walk writes H'H into its lower
triangle, which every product with the normal matrix reads and nothing
else writes, so with a saved copy of its diagonal it keeps H'H for the
whole sweep. Each beta copies the strict lower triangle up and makes its
Cholesky factor in place in the upper triangle, so no second p x p array
is ever made.

The walks and factorizations call seven of scipy's f2py wrappers (dsyrk,
dgemv, dsymv, dpotrf, dpotrs, dgeqrt, dgesdd), which live in its extension
modules scipy.linalg._fblas and _flapack. _blas_lapack loads those two
modules by the import system's path finder, without running
scipy/linalg/__init__: that package's array-API layer imports numpy.f2py,
numpy.testing and numpy.ma, and after numpy it cost 0.25 s and 28 MB of RSS,
where the two modules cost 0.03 s and 5 MB. The wrappers are the very
objects that scipy.linalg.blas and scipy.linalg.lapack re-export, so the
results are the same bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import threading
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import _Rows, _slices, _walk_rows
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

# Each beta copies the Gram up from the lower triangle of its array in panels
# of this many columns, so no p x p temporary is made.
_MIRROR_PANEL = 64

# Each walk calls one BLAS library only: the Gram walk, and the QR walk with
# the SVD of its triangle, call scipy's, the residual walk numpy's. numpy and
# scipy each bundle their own OpenBLAS, with its own thread pool, and a pool
# whose threads still spin after a call slows the other's next call. A numpy
# H'y product between dsyrk calls made the Gram walk 1.9x slower at p =
# 2155, and a numpy product with each stacked block between dgeqrt calls made
# the QR walk 2.2x slower at p = 230. Assembling a block uses no BLAS.


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
    """The ridge weights of a sweep as floats, with -0.0 as 0.0, the same
    weight, so that it is named and reported as 0; raises on an empty list
    or a negative or non-finite weight."""
    betas = [0.0 if b == 0 else b for b in map(float, betas)]
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


def _blas_lapack():
    """scipy's BLAS and LAPACK wrappers: the modules scipy.linalg._fblas and
    scipy.linalg._flapack, each reused from sys.modules once loaded.

    Each is loaded on its own, without scipy.linalg: finding the package's
    spec imports only the top-level scipy package (which on Windows sets up
    the path to its DLLs), and the module is registered in sys.modules under
    its own name, where scipy.linalg.blas's `from scipy.linalg import _fblas`
    finds it, so a later `import scipy.linalg` does not load the extension
    again. Where the path finder cannot see a module, as in an editable
    build, scipy.linalg.blas or scipy.linalg.lapack is imported in its
    place; it re-exports the same wrappers.
    """
    return _extension_module("_fblas", "blas"), _extension_module("_flapack", "lapack")


# fits in two threads must not both find a module missing and load it
_LOADING = threading.Lock()


def _extension_module(name, public):
    full = f"scipy.linalg.{name}"
    with _LOADING:
        module = sys.modules.get(full)
        if module is not None:
            return module
        package = importlib.util.find_spec("scipy.linalg")
        spec = importlib.machinery.PathFinder.find_spec(full, package.submodule_search_locations)
        if spec is None:
            return importlib.import_module(f"scipy.linalg.{public}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[full]
            raise
        return module


def _solve_path(H, y, betas: list[float]) -> list[SolveReport]:
    # scipy's BLAS and LAPACK load at the first solve, not on import, so
    # that serving a model never pays for them; loading them before the
    # clock starts keeps that one-time cost out of the first report's seconds
    _blas_lapack()

    t = time.perf_counter()
    if not hasattr(H, "fill_rows"):
        H = np.asarray(H, dtype=float)
        if H.ndim == 2:
            H = _Rows([H])
    if len(H.shape) != 2 or min(H.shape) < 1:
        raise DimensionMismatch(f"regressor must be a nonempty 2-D array, got shape {H.shape}")
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

    workspace = _Workspace()
    A, rhs = _gram(H, y, workspace)
    # a NaN or inf in column j makes A_jj = sum_i H_ij^2 non-finite, so the
    # Gram diagonal stands in for a scan of H
    gram_diagonal = A.diagonal().copy()
    if not np.isfinite(gram_diagonal).all():
        blocks = _blocks(H, y, workspace)
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
        diagonal = gram_diagonal + beta
        accepted = _cholesky(A, diagonal, rhs, beta, scale, max(H.shape))
        rank_deficient = False
        strategy = SolveStrategy.CHOLESKY
        if accepted is not None:
            theta, normal_residual_norm = accepted
        else:
            if svd is None:
                svd = _rank_revealing(H, y, workspace)
            theta, rank_deficient = _pseudoinverse(*svd, beta, max(H.shape))
            # an accepted Cholesky theta is finite, as its normal residual is
            if not np.isfinite(theta).all():
                raise NonFiniteInput(
                    f"the least-squares weights overflow at beta={beta:g}: the regressor's "
                    "entries are too small for the float range"
                )
            strategy = SolveStrategy.PSEUDOINVERSE
            normal_residual_norm = float(np.linalg.norm(_normal_residual(A, diagonal, theta, rhs)))
        theta.setflags(write=False)
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
    residual_norms = _residual_norms(H, y, [s["theta"] for s in solved], workspace)
    # the shared walk counts towards the first beta, as the Gram does
    solved[0]["seconds"] += time.perf_counter() - t
    return [SolveReport(**s, residual_norm=float(r)) for s, r in zip(solved, residual_norms)]


def _block_rows(p):
    """Rows per block of the QR walk over a p-column H."""
    return max(_BLOCK_ROWS, 4 * (p + 1))


class _Workspace:
    """The one block buffer of a solve, which every walk fills its blocks
    into: made at the first take, and replaced only when a walk needs more
    room, after the old buffer is dropped."""

    def __init__(self):
        self._buffer = np.empty(0)

    def take(self, size):
        """A flat float buffer of at least `size` entries."""
        if self._buffer.size < size:
            self._buffer = None
            self._buffer = np.empty(size)
        return self._buffer


def _blocks(H, y, workspace):
    """(H[r], y[r]) for consecutive row slices r of the walk's block size,
    each block column-major: a held H's rows in place when they are already
    (as in build_regressor's one-block H), else rows that fill_rows writes
    into the solve's workspace, which every block reuses."""
    N, p = H.shape
    rows = _walk_rows(p)
    held = H.parts[0] if isinstance(H, _Rows) and len(H.parts) == 1 else None
    for r in _slices(N, rows):
        m = r.stop - r.start
        block = None if held is None else held[r]
        if block is None or not block.flags.f_contiguous:
            buffer = workspace.take(min(N, rows) * p)
            block = H.fill_rows(r, buffer[: m * p].reshape((m, p), order="F"))
        yield block, y[r]


def _gram(H, y, workspace):
    """A Fortran-ordered p x p array whose lower triangle holds H'H (its
    strict upper triangle is zero), and H'y, accumulated block by block in
    place by scipy's dsyrk and dgemv, each reading the column-major blocks
    of _blocks."""
    blas, _ = _blas_lapack()
    p = H.shape[1]
    A = np.zeros((p, p), order="F")
    rhs = np.zeros(p)
    for block, labels in _blocks(H, y, workspace):
        A = blas.dsyrk(1.0, block, beta=1.0, c=A, trans=1, lower=1, overwrite_c=1)
        rhs = blas.dgemv(1.0, block, labels, beta=1.0, y=rhs, trans=1, overwrite_y=1)
    return A, rhs


def _mirror(A):
    """Copy the strict lower triangle of the square array A into its strict
    upper triangle, in place, in column panels."""
    p = len(A)
    for j in range(0, p, _MIRROR_PANEL):
        k = min(p, j + _MIRROR_PANEL)
        # the rows right of the panel's diagonal block take, transposed, the
        # panel below it; then the block's strict upper triangle its lower
        A[j:k, k:] = A[k:, j:k].T
        below, above = np.tril_indices(k - j, -1)
        block = A[j:k, j:k]
        block[above, below] = block[below, above]


def _residual_norms(H, y, thetas, workspace):
    """||y - H theta|| for every theta, from one walk over H.

    Each theta gets its own product per block, so its norm does not depend
    on which other thetas share the walk.
    """
    squares = np.zeros(len(thetas))
    for block, labels in _blocks(H, y, workspace):
        for i, theta in enumerate(thetas):
            r = labels - block @ theta
            squares[i] += r @ r
    return np.sqrt(squares)


def _normal_residual(A, diagonal, theta, rhs):
    """rhs - (H'H + beta I) theta, by scipy's dsymv on the Gram in A's lower
    triangle, after writing `diagonal`, H'H + beta I's diagonal, on A's.

    The product must read the lower triangle: on the same values, dsymv's
    upper-triangle kernel lost 0.04-0.38 digits of theta on each of
    wide_fit's eight labels (seed 3) against numpy's full product, where
    this one moved them by -0.19 to +0.23.
    """
    blas, _ = _blas_lapack()
    np.fill_diagonal(A, diagonal)
    return rhs - blas.dsymv(1.0, A, theta, lower=1)


# weights past the float range, from a pivot or singular value near the
# smallest float, are not accepted (Cholesky) or refused by the caller
# (pseudoinverse), so computing them warns of nothing
@np.errstate(over="ignore", invalid="ignore")
def _cholesky(A, diagonal, rhs, beta, scale, size):
    """The refined Cholesky solution of (H'H + beta I) theta = rhs and the
    norm of its normal residual, which the acceptance test measured, or None
    when the factor is degenerate (beta = 0) or that norm is above the
    acceptance level.

    A holds H'H in its strict lower triangle, and `diagonal` is H'H + beta
    I's diagonal. Copying the strict lower triangle up and writing the
    diagonal puts H'H + beta I in the upper triangle, exactly the matrix a
    lone solve would see, whatever an earlier beta's factor left there.
    LAPACK's dpotrf factors that triangle in place, overwriting some or all
    of it (all when it succeeds), and dpotrs reads the factor there.
    """
    _, lapack = _blas_lapack()
    _mirror(A)
    np.fill_diagonal(A, diagonal)
    _, info = lapack.dpotrf(A, lower=0, clean=0, overwrite_a=1)
    if info < 0:
        raise RuntimeError(f"dpotrf rejected argument {-info}")
    if info > 0:
        return None
    # a collapsed pivot means the normal matrix is numerically singular;
    # the residual check below cannot see null-space components, so the
    # factor diagonal is the rank-deficiency detector for beta = 0
    pivots = A.diagonal().copy()
    if beta == 0.0 and pivots.min() <= np.sqrt(np.finfo(float).eps * size) * pivots.max():
        return None
    theta = lapack.dpotrs(A, rhs)[0]
    # one step of iterative refinement tightens stationarity to rounding
    # level on reasonably conditioned systems; the product overwrites the
    # factor's diagonal, which the second solve puts back
    residual = _normal_residual(A, diagonal, theta, rhs)
    np.fill_diagonal(A, pivots)
    theta += lapack.dpotrs(A, residual)[0]
    norm = float(np.linalg.norm(_normal_residual(A, diagonal, theta, rhs)))
    if norm <= _CHOLESKY_ACCEPT * scale:
        return theta, norm
    return None


def _rank_revealing(H, y, workspace):
    """Singular values s, right singular vectors Vt and U'y of H, from a
    QR of [H | y] and an SVD of its small triangle.

    With [H | y] = Q [R z], H = (Q U_R) S Vt for the SVD R = U_R S Vt, so
    U'y = U_R' z. The QR is a tall-skinny QR over row blocks: the triangle
    of the rows so far is stacked on the next block in one Fortran-ordered
    buffer, and the buffer is factored in place; the triangle of the stack
    is the triangle of all rows so far. Neither Q, an N-row copy of H nor
    the N-row left factor U is formed; fill_rows writes each block
    straight into the buffer, which the solve's workspace lends.
    """
    _, lapack = _blas_lapack()
    N, p = H.shape
    width = p + 1
    buffer = workspace.take((min(N, _block_rows(p)) + width) * width)
    R = np.zeros((0, width))
    for rows in _slices(N, _block_rows(p)):
        k = len(R)
        m = k + rows.stop - rows.start
        # a contiguous m-row view, so the factorization works in place
        stack = buffer[: m * width].reshape((m, width), order="F")
        stack[:k] = R
        H.fill_rows(rows, stack[k:, :p])
        stack[k:, p] = y[rows]
        qr, _, info = lapack.dgeqrt(min(_QR_PANEL, m, width), stack, overwrite_a=True)
        if info:
            raise RuntimeError(f"dgeqrt rejected argument {-info}")
        R = np.triu(qr[: min(m, width)])
    k = min(N, p)
    U_R, s, Vt, info = lapack.dgesdd(R[:k, :p], compute_uv=1, full_matrices=0)
    if info:
        raise RuntimeError(f"dgesdd failed: info {info}")
    return s, Vt, U_R.T @ R[:k, p]


@np.errstate(over="ignore", invalid="ignore")
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
