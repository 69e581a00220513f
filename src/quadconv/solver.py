"""Normal-equation and pseudoinverse solution of the training problem.

The solver reads the regressor H only in row blocks, by three walks: one
accumulates H'H and H'y, one factors [H | y] by a tall-skinny QR when a beta
falls back, and one reads the correction of every Cholesky beta's weights
from H. Each beta's residual norm comes from what its route already holds:
the correction walk's residual of the uncorrected weights on the Cholesky
route, the triangle of [H | y] on the QR route. H is a held 2-D array of any
memory order or a row source (see core), which lets a fit assemble each
block when a walk needs it, so no N x p array is ever held; a held H is read
as the row source core._as_rows(H), a read-only view of it. Every walk reads
blocks with contiguous columns, so each report depends only on the values
of H.

A Cholesky beta solves the normal equations (H'H + beta I) theta0 = H'y and
then takes one step of corrected semi-normal equations (CSNE): the walk
forms g = H'(y - H theta0) from the rows, and theta = theta0 + (H'H + beta
I)^-1 (g - beta theta0). The residual is read from H, not from H'H, so theta
has the accuracy of a QR solve while kappa(H)^2 u is well below 1 (Björck,
"Stability analysis of the method of seminormal equations for linear least
squares problems", BIT 27, 1987; Higham, "Accuracy and Stability of
Numerical Algorithms", 2nd ed., ch. 20). A beta whose normal matrix is too
ill-conditioned for that, by LAPACK's condition estimate from its factor
(dpocon), goes to the QR route instead. That one rule routes every beta,
beta = 0 too; the QR route's SVD then finds the rank.

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
is ever made; a beta whose factor a later beta overwrote makes it again
for its correction step.

The walks and factorizations call nine of scipy's f2py wrappers (dsyrk,
dgemv, dsymv, dlange, dpotrf, dpotrs, dpocon, dgeqrt, dgesdd), which live
in its extension modules scipy.linalg._fblas and _flapack. _blas_lapack
loads those two modules by the import system's path finder, without running
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

from .core import _as_rows, _Rows, _slices, _walk_rows
from .errors import DimensionMismatch, NegativeRegularizer, NonFiniteInput

# Accept the Cholesky solution only when the normal-equation residual is at
# rounding level; otherwise fall through to the QR/SVD route.
_CHOLESKY_ACCEPT = 1e-10

# A beta goes to the QR/SVD route, before its correction step, when u / rcond
# of its normal matrix exceeds this (u the unit roundoff, rcond the estimate
# of 1 / cond_1(H'H + beta I) from its factor). The CSNE step is accurate
# while kappa(H)^2 u is well below 1: wide_fit's p = 2155 system reads
# 1.2e-2 and meets its accuracy cap, features offset by +1e3 read about 7e3
# and miss it.
_ROUTE_LIMIT = 0.1
_UNIT_ROUNDOFF = np.finfo(float).eps / 2

# The QR fallback walks H in blocks of at least this many rows, and of at
# least four triangles of the QR, so the triangle stacked on each block
# stays a small share of it. Each QR step factors its block by LAPACK's
# recursive blocked QR with panels this wide.
_BLOCK_ROWS = 4096
_QR_PANEL = 64

# Each beta copies the Gram up from the lower triangle of its array in
# panels of this many columns, so no p x p temporary is made.
_MIRROR_PANEL = 64

# Every walk calls scipy's BLAS and LAPACK only: the Gram walk, the
# correction walk, and the QR walk with the SVD of its triangle. numpy and
# scipy each bundle their own OpenBLAS, with its own thread pool, and a pool
# whose threads still spin after a call slows the other's next call. A numpy
# H'y product between dsyrk calls made the Gram walk 1.9x slower at
# p = 2155, and a numpy product with each stacked block between dgeqrt calls
# made the QR walk 2.2x slower at p = 230. The correction walk runs between
# scipy's dpotrf and dpotrs: at p = 2155 it took 0.09-0.10 s on scipy's
# dgemv and 0.14-0.19 s on numpy's products. Assembling a block uses no BLAS.


class SolveStrategy(str, Enum):
    CHOLESKY = "cholesky"
    PSEUDOINVERSE = "pseudoinverse"


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution plus diagnostics of a single least-squares solve.

    `seconds` is the wall time this beta added to its sweep: the first beta
    of a sweep also carries the shared Gram walk and the shared walk that
    reads every Cholesky beta's correction from H, and the first beta that
    falls back also carries the sweep's one QR walk and SVD. When H comes
    from a row source, these walks include assembling its blocks. `theta` is
    read-only, one weight per column of H, in the layout that
    model.reconstruct inverts. `residual_norm` is ||y - H theta|| of the
    reported theta, taken from the quantities of its own route.

    `rcond` estimates the reciprocal condition number of H'H + beta I: on
    the Cholesky route LAPACK's dpocon estimate of 1 / cond_1 from the
    factor, on the QR/SVD route (s_min^2 + beta) / (s_max^2 + beta) from
    the singular values of H (s_min = 0 when H has fewer rows than columns).
    """

    theta: np.ndarray
    beta: float
    residual_norm: float
    normal_residual_norm: float
    rank_deficient: bool
    solve_strategy: SolveStrategy
    seconds: float
    rcond: float


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
    beta factors H'H + beta I by Cholesky and solves the normal equations,
    and one walk reads every Cholesky beta's correction step, and the
    residual of its uncorrected weights, from H (see the module docstring).
    A beta whose factor is degenerate or too ill-conditioned, or whose
    corrected weights fail the residual check, falls back to one QR of
    [H | y] shared by the whole sweep. Each beta's residual norm comes from
    its own route, with no walk of its own. So H is read twice, or three
    times when a beta falls back (twice when every beta does). Each report's
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
        H = _as_rows(H)
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
    size = max(H.shape)
    svd = None
    solved = [dict(beta=beta, seconds=0.0) for beta in betas]
    pending = []  # the Cholesky betas, by index, that await their correction

    def tick(fields):
        # add the time since the last tick to a beta's seconds
        nonlocal t
        now = time.perf_counter()
        fields["seconds"] += now - t
        t = now

    def fall_back(fields, diagonal):
        nonlocal svd
        if svd is None:
            svd = _rank_revealing(H, y, workspace)
        theta, rank_deficient, rcond, residual = _pseudoinverse(*svd, fields["beta"], size)
        # an accepted Cholesky theta is finite, as its normal residual is
        if not np.isfinite(theta).all():
            raise NonFiniteInput(
                f"the least-squares weights overflow at beta={fields['beta']:g}: the "
                "regressor's entries are too small for the float range"
            )
        fields.update(
            theta=theta, rank_deficient=rank_deficient, rcond=rcond, residual_norm=residual,
            solve_strategy=SolveStrategy.PSEUDOINVERSE,
            normal_residual_norm=float(np.linalg.norm(_normal_residual(A, diagonal, theta, rhs))),
        )

    _, lapack = _blas_lapack()
    for i, s in enumerate(solved):
        diagonal = gram_diagonal + s["beta"]
        # each factor writes over the last; this names the beta whose whole
        # factor A's upper triangle holds
        factored = None
        norm = _factor(A, diagonal)
        rcond = 0.0 if norm is None else _rcond(A, norm)
        if rcond >= _UNIT_ROUNDOFF / _ROUTE_LIMIT:
            s.update(theta=lapack.dpotrs(A, rhs)[0], rank_deficient=False, rcond=rcond,
                     solve_strategy=SolveStrategy.CHOLESKY)
            pending.append(i)
            factored = i
        else:
            fall_back(s, diagonal)
        tick(s)
    thetas = [solved[i]["theta"] for i in pending]
    corrections = dict(zip(pending, _normal_gradients(H, y, thetas, workspace)))
    # the correction walk counts towards the first beta, as the Gram walk does
    tick(solved[0])
    # the beta whose factor A holds goes first; each other one makes its
    # factor again, from the same matrix, so with the same bits
    for i in sorted(pending, key=lambda i: i != factored):
        s = solved[i]
        diagonal = gram_diagonal + s["beta"]
        if i != factored:
            _factor(A, diagonal)
        factored = None  # the acceptance test writes over its diagonal
        theta, norm, residual = _correct(
            A, gram_diagonal, s["beta"], s["theta"], *corrections[i], rhs
        )
        if norm <= _CHOLESKY_ACCEPT * scale:
            s.update(theta=theta, normal_residual_norm=norm, residual_norm=residual)
        else:
            fall_back(s, diagonal)
        tick(s)
    for s in solved:
        s["theta"].setflags(write=False)
    return [SolveReport(**s) for s in solved]


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


@np.errstate(over="ignore", invalid="ignore")
def _normal_gradients(H, y, thetas, workspace):
    """(H'r0, ||r0||^2) with r0 = y - H theta for every theta, from one walk
    over H, or none without a walk when there are no thetas.

    Each theta gets its own products per block, so what it gets does not
    depend on which other thetas share the walk. The products are scipy's
    dgemv, the library of the factor calls around the walk; ||r0||^2 too is
    a dgemv, of r0 as a one-column matrix, so the walk runs no other kernel.
    A theta past the float range gives a non-finite gradient, which the
    acceptance test refuses.
    """
    blas, _ = _blas_lapack()
    gradients = [np.zeros(H.shape[1]) for _ in thetas]
    squares = [0.0 for _ in thetas]
    if thetas:
        for block, labels in _blocks(H, y, workspace):
            for j, (g, theta) in enumerate(zip(gradients, thetas)):
                residual = blas.dgemv(-1.0, block, theta, beta=1.0, y=labels)
                blas.dgemv(1.0, block, residual, beta=1.0, y=g, trans=1, overwrite_y=1)
                squares[j] += blas.dgemv(1.0, residual[:, None], residual, trans=1)[0]
    return list(zip(gradients, squares))


def _normal_residual(A, diagonal, theta, rhs):
    """rhs - (H'H + beta I) theta, by scipy's dsymv on the Gram in A's lower
    triangle, after writing `diagonal`, H'H + beta I's diagonal, on A's.

    The product reads the lower triangle because it is the only one that
    keeps H'H for the whole sweep: the upper one holds a Cholesky factor.
    No theta passes through it; it gives the normal-residual norm that the
    acceptance test measures and the report keeps, and _correct's
    delta'H'H delta.
    """
    blas, _ = _blas_lapack()
    np.fill_diagonal(A, diagonal)
    return rhs - blas.dsymv(1.0, A, theta, lower=1)


def _factor(A, diagonal):
    """Make the Cholesky factor of H'H + beta I in A's upper triangle, and
    return the 1-norm of H'H + beta I; None when the factor is degenerate.

    A holds H'H in its strict lower triangle, and `diagonal` is H'H + beta
    I's diagonal. Copying the strict lower triangle up and writing the
    diagonal puts H'H + beta I in the whole of A, exactly the matrix a lone
    solve would see, whatever an earlier beta's factor left there. LAPACK's
    dlange reads its 1-norm then (inf when a column sum passes the float
    range), and dpotrf factors the upper triangle in place, overwriting some
    or all of it (all when it succeeds).
    """
    _, lapack = _blas_lapack()
    _mirror(A)
    np.fill_diagonal(A, diagonal)
    norm = lapack.dlange("1", A)
    _, info = lapack.dpotrf(A, lower=0, clean=0, overwrite_a=1)
    if info < 0:
        raise RuntimeError(f"dpotrf rejected argument {-info}")
    return norm if info == 0 else None


def _rcond(A, norm):
    """LAPACK's dpocon estimate of 1 / cond_1(H'H + beta I), from its factor
    in A's upper triangle and its 1-norm `norm`, which _factor gives: 0 when
    the norm or the estimated norm of the inverse passes the float range."""
    _, lapack = _blas_lapack()
    rcond, info = lapack.dpocon(A, norm)
    if info < 0:
        raise RuntimeError(f"dpocon rejected argument {-info}")
    return rcond


# weights past the float range, from a pivot near the smallest float, fail
# the acceptance test, so computing them warns of nothing
@np.errstate(over="ignore", invalid="ignore")
def _correct(A, gram_diagonal, beta, theta0, g, r0_square, rhs):
    """The CSNE step theta = theta0 + (H'H + beta I)^-1 (g - beta theta0),
    with g = H'r0 and r0_square = ||r0||^2 for r0 = y - H theta0, by the
    factor in A's upper triangle; the norm of theta's normal residual, which
    the acceptance test measures and the report keeps; and ||y - H theta||.

    With delta = theta - theta0, ||y - H theta||^2 = ||r0||^2 - 2 delta'g +
    delta'H'H delta, whose terms are of the size of ||r0||^2, not ||y||^2,
    so it resolves residuals far below sqrt(eps) ||y||; rounding may take it
    below 0, where it is clamped. The last term reads the Gram in A's lower
    triangle, with `gram_diagonal`, H'H's diagonal, written back on A's.
    Forming the two products writes over the factor's diagonal.
    """
    blas, lapack = _blas_lapack()
    theta = theta0 + lapack.dpotrs(A, g - beta * theta0)[0]
    norm = float(np.linalg.norm(_normal_residual(A, gram_diagonal + beta, theta, rhs)))
    np.fill_diagonal(A, gram_diagonal)
    delta = theta - theta0
    square = r0_square - 2.0 * (delta @ g) + delta @ blas.dsymv(1.0, A, delta, lower=1)
    return theta, norm, float(np.sqrt(max(0.0, square)))


def _rank_revealing(H, y, workspace):
    """The triangle R of a QR of [H | y], and the singular values s, right
    singular vectors Vt and U'y of H, from an SVD of R's first p columns.

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
    # the SVD factors a copy of the triangle in the idle block buffer, in
    # place: the wrapper's own copy of its input, stacked on its work
    # arrays, set the peak memory of a fit that falls back
    a = buffer[: k * p].reshape((k, p), order="F")
    a[...] = R[:k, :p]
    U_R, s, Vt, info = lapack.dgesdd(a, compute_uv=1, full_matrices=0, overwrite_a=1)
    if info:
        raise RuntimeError(f"dgesdd failed: info {info}")
    return R, s, Vt, U_R.T @ R[:k, p]


@np.errstate(over="ignore", invalid="ignore")
def _pseudoinverse(R, s, Vt, Uty, beta, size):
    """Minimum-norm (beta = 0) or ridge (beta > 0) solution from the SVD
    of H; also whether H is numerically rank deficient, the reciprocal
    condition number of H'H + beta I (0 when it is zero), and the residual
    norm ||y - H theta|| = ||R [theta; -1]||, from the triangle R of [H | y],
    since Q's columns are orthonormal. That is the residual of the computed
    theta, which the exact minimizer's residual, read from s and U'y, is
    not."""
    smax = float(s[0])
    smin = float(s[-1]) if s.size == Vt.shape[1] else 0.0
    if beta > 0:
        rcond = (smin * smin + beta) / (smax * smax + beta)
    else:
        rcond = (smin / smax) ** 2 if smax > 0 else 0.0
    cutoff = smax * np.finfo(float).eps * size
    nz = s > cutoff
    if beta > 0:
        gain = s / (s * s + beta)
    else:
        gain = np.zeros_like(s)
        gain[nz] = 1.0 / s[nz]
    theta = Vt.T @ (gain * Uty)
    residual = float(np.linalg.norm(R[:, :-1] @ theta - R[:, -1]))
    return theta, int(np.count_nonzero(nz)) < Vt.shape[1], rcond, residual
