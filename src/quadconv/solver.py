"""Normal-equation and pseudoinverse solution of the training problem.

The solver reads the regressor H only in row blocks, by three walks: one
accumulates H'H and H'y, one factors [H | y] by a tall-skinny QR when a beta
falls back, and one reads the correction of every Cholesky beta's weights,
and of a rank-deficient beta's null block, from H. Each beta's residual
norm comes from what its route already holds: the correction walk's
residual of the uncorrected weights on the Cholesky route, the triangle of
[H | y] on the QR route. H is a held 2-D array of any
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
beta = 0 too.

A beta = 0 that the rule refuses may have a rank-deficient H, as noise-free
NARX rows do. Before it falls back, LAPACK's pivoted Cholesky (dpstrf, at
its default tolerance) factors P'H'HP = R'R with R = [R11 R12; 0 0] of rank
r < p. If R11 passes the same rule, the beta stays on the Cholesky route:
it solves the basic columns' normal equations for theta0 = P [x_B; 0], and
the correction walk reads, besides theta0's g, G = H'(-H N0) and ||H N0||_F^2
for the null block N0 = P [-W0; I], W0 = R11^-1 R12. The CSNE step corrects
both x_B and W through R11, and theta = P [x_B - W z; z] is the minimum-norm
solution, z = (I + W'W)^-1 W'x_B. It is accepted only if its normal residual
passes the acceptance test and the corrected null block N has ||H N||_F at
most the QR route's SVD cutoff, sqrt(max diag H'H) eps max(N, p), which
bounds s_max eps max(N, p) from below: so a direction is dropped only where
the SVD would drop it. Any other beta goes to the QR route, whose SVD finds
the rank. A Gram hides H's rank once kappa(H)^2 u nears 1, as at features
that sit at +1e3, where LAPACK's tolerance drops directions that H keeps;
the null check sends those to the QR.

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
for its correction step. A beta on the pivoted route keeps a copy of its
r x r factor R11 instead, and the r x (p - r) W0 of its null block, which
is made whole, p x (p - r), for the correction walk only.

A solve calls fifteen of scipy's f2py wrappers (ddot, dsyrk, dgemv, dgemm,
dsymv, dtrmm, dlange, dpotrf, dpotrs, dposv, dpocon, dpstrf, dtrtrs,
dgeqrt, dgesdd), and train's scoring of test rows two (dgemm, dgemv),
which live in its extension modules scipy.linalg._fblas and _flapack.
_blas_lapack loads those two modules by the import system's path finder,
without running scipy/linalg/__init__: that package's array-API layer
imports numpy.f2py, numpy.testing and numpy.ma, and after numpy it cost
0.25 s and 28 MB of RSS, where the two modules cost 0.03 s and 5 MB. The
wrappers are the very objects that scipy.linalg.blas and
scipy.linalg.lapack re-export, so the results are the same bits.
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

# A solve calls scipy's BLAS and LAPACK for every product that OpenBLAS
# may thread: the label check's y'y, the Gram walk, the correction walk,
# the QR walk with the SVD of its triangle, and the pseudoinverse's
# products with the SVD's factors and the triangle. numpy and scipy each
# bundle their own OpenBLAS, with its own thread pool, and a pool whose
# threads still spin after a call slows the other's next call. A numpy H'y
# product between dsyrk calls made the Gram walk 1.9x slower at p = 2155,
# and a numpy product with each stacked block between dgeqrt calls made the
# QR walk 2.2x slower at p = 230. The correction walk runs between scipy's
# dpotrf and dpotrs: at p = 2155 it took 0.09-0.10 s on scipy's dgemv and
# 0.14-0.19 s on numpy's products. A numpy y'y on 99,990 labels, just
# before the Gram walk, made that walk take 168-232 ms against 111-139 ms.
# What numpy still computes in a solve is a product of p-vectors, which
# OpenBLAS runs on the calling thread. Assembling a block uses no BLAS.


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
    A rank-deficient beta = 0 on the Cholesky route (its pivoted factor; see
    the module docstring) reports 0.0, since its H'H is singular.

    `rank` is the numerical rank: p on a full-rank Cholesky beta, the rank
    of the pivoted factor on a rank-deficient one, and the count of
    singular values the SVD keeps on the QR/SVD route.
    """

    theta: np.ndarray
    beta: float
    residual_norm: float
    normal_residual_norm: float
    rank: int
    solve_strategy: SolveStrategy
    seconds: float
    rcond: float

    @property
    def rank_deficient(self) -> bool:
        """Whether the numerical rank is below the number of weights."""
        return self.rank < self.theta.size


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
    A beta = 0 whose factor is degenerate or too ill-conditioned tries the
    pivoted Cholesky factor of the Gram, whose null block rides the same
    walk. A beta whose factor is degenerate or too ill-conditioned, or
    whose corrected weights fail the checks, falls back to one QR of [H | y]
    shared by the whole sweep. Each beta's residual norm comes from its own
    route, with no walk of its own. So H is read twice, a rank-deficient
    beta = 0 that the pivoted route takes included, or three times when a
    beta falls back (twice when every beta falls back before the
    correction walk). Each report's weights and diagnostics equal
    solve_ridge's for its beta bit for bit.
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
    blas, lapack = _blas_lapack()

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
    if not np.isfinite(blas.ddot(y, y)):
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
    p = H.shape[1]
    # a pivoted beta's null vectors are dropped only where the SVD route's
    # cutoff, s_max eps max(N, p), would drop them, with s_max bounded from
    # below by the largest column norm of H
    null_cutoff = np.sqrt(gram_diagonal.max()) * np.finfo(float).eps * size
    svd = None
    solved = [dict(beta=beta, seconds=0.0) for beta in betas]
    pending = []  # the Cholesky betas, by index, that await their correction
    bases = {}  # the pending betas on the pivoted route, by index (see _pivoted)

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
        theta, rank, rcond, residual = _pseudoinverse(*svd, fields["beta"], size)
        # an accepted Cholesky theta is finite, as its normal residual is
        if not np.isfinite(theta).all():
            raise NonFiniteInput(
                f"the least-squares weights overflow at beta={fields['beta']:g}: the "
                "regressor's entries are too small for the float range"
            )
        fields.update(
            theta=theta, rank=rank, rcond=rcond,
            residual_norm=residual, solve_strategy=SolveStrategy.PSEUDOINVERSE,
            normal_residual_norm=float(np.linalg.norm(_normal_residual(A, diagonal, theta, rhs))),
        )

    for i, s in enumerate(solved):
        diagonal = gram_diagonal + s["beta"]
        # each factor writes over the last; this names the beta whose whole
        # factor A's upper triangle holds
        factored = None
        norm = _factor(A, diagonal)
        rcond = 0.0 if norm is None else _rcond(A, norm)
        if rcond >= _UNIT_ROUNDOFF / _ROUTE_LIMIT:
            s.update(theta=lapack.dpotrs(A, rhs)[0], rank=p, rcond=rcond,
                     solve_strategy=SolveStrategy.CHOLESKY)
            pending.append(i)
            factored = i
        elif s["beta"] == 0 and (pivoted := _pivoted(A, diagonal, rhs)) is not None:
            bases[i], theta = pivoted
            # H'H is singular, so its reciprocal condition number is 0
            s.update(theta=theta, rank=len(bases[i].factor), rcond=0.0,
                     solve_strategy=SolveStrategy.CHOLESKY)
            pending.append(i)
        else:
            fall_back(s, diagonal)
        tick(s)
    walked = _normal_gradients(
        H, y, [solved[i]["theta"] for i in pending] + [bases[i].null() for i in bases], workspace
    )
    corrections = dict(zip(pending, walked))
    nulls = dict(zip(bases, walked[len(pending):]))
    del walked
    # the correction walk counts towards the first beta, as the Gram walk does
    tick(solved[0])
    # the beta whose factor A holds goes first; each other one makes its
    # factor again, from the same matrix, so with the same bits
    for i in sorted(pending, key=lambda i: i != factored):
        s = solved[i]
        diagonal = gram_diagonal + s["beta"]
        if i in bases:
            # popped, as are the walk's p x (p - r) products with the null
            # block (and `walked` deleted), so that a beta the checks refuse
            # holds none of them through the QR walk
            corrected = _correct_basic(
                A, gram_diagonal, bases.pop(i), s["theta"], *corrections[i], *nulls.pop(i),
                rhs, null_cutoff,
            )
        else:
            if i != factored:
                _factor(A, diagonal)
            corrected = _correct(A, gram_diagonal, s["beta"], s["theta"], *corrections[i], rhs)
        factored = None  # the acceptance test writes over its diagonal
        if corrected is not None and corrected[1] <= _CHOLESKY_ACCEPT * scale:
            theta, norm, residual = corrected
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
    over H, or none without a walk when there are no thetas. A theta may
    also be a column-major p x k block N of null vectors, whose labels are
    0: it gets (H'r0, ||r0||_F^2) with r0 = -H N.

    Each theta gets its own products per block, so what it gets does not
    depend on which other thetas share the walk: scipy's dgemv forms r0 and
    adds H'r0 (dgemm for a block), and ddot sums r0's squares, the library
    of the factor calls around the walk. A theta past the float range gives
    a non-finite gradient, which the acceptance test refuses.
    """
    blas, _ = _blas_lapack()
    gradients = [np.zeros(theta.shape, order="F") for theta in thetas]
    squares = [0.0 for _ in thetas]
    if thetas:
        for block, labels in _blocks(H, y, workspace):
            for j, theta in enumerate(thetas):
                if theta.ndim == 1:
                    residual = blas.dgemv(-1.0, block, theta, beta=1.0, y=labels)
                    blas.dgemv(1.0, block, residual, beta=1.0, y=gradients[j], trans=1,
                               overwrite_y=1)
                else:
                    residual = blas.dgemm(-1.0, block, theta)
                    blas.dgemm(1.0, block, residual, beta=1.0, c=gradients[j], trans_a=1,
                               overwrite_c=1)
                residual = residual.reshape(-1, order="F")
                squares[j] += blas.ddot(residual, residual)
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


def _lay_out(A, diagonal):
    """Put H'H + beta I in the whole of A and return its 1-norm.

    A holds H'H in its strict lower triangle, and `diagonal` is H'H + beta
    I's diagonal. Copying the strict lower triangle up and writing the
    diagonal puts H'H + beta I in the whole of A, exactly the matrix a lone
    solve would see, whatever an earlier beta's factor left there. LAPACK's
    dlange reads its 1-norm then (inf when a column sum passes the float
    range).
    """
    _, lapack = _blas_lapack()
    _mirror(A)
    np.fill_diagonal(A, diagonal)
    return lapack.dlange("1", A)


def _factor(A, diagonal):
    """Make the Cholesky factor of H'H + beta I in A's upper triangle, and
    return the 1-norm of H'H + beta I; None when the factor is degenerate.

    _lay_out puts the matrix in A, and dpotrf factors the upper triangle in
    place, overwriting some or all of it (all when it succeeds).
    """
    _, lapack = _blas_lapack()
    norm = _lay_out(A, diagonal)
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


@dataclass(frozen=True, eq=False)
class _Basis:
    """A rank-deficient beta = 0 on the pivoted route (see _pivoted): the
    order of H's columns, basic ones first; the r x r factor R11 of the
    basic columns' Gram; and W0 = R11^-1 R12, r x (p - r)."""

    order: np.ndarray
    factor: np.ndarray
    W0: np.ndarray

    def null(self):
        """The null block N0 = P [-W0; I], column-major p x (p - r): made for
        the correction walk only, as it is far larger than W0 when r is
        small."""
        p, rank = len(self.order), len(self.factor)
        null = np.zeros((p, p - rank), order="F")
        null[self.order[:rank]] = -self.W0
        null[self.order[rank:], np.arange(p - rank)] = 1.0
        return null


def _pivoted(A, diagonal, rhs):
    """The basic solution of a rank-deficient beta = 0 and what its null
    block is made from, by LAPACK's pivoted Cholesky factor of H'H: a
    _Basis and theta0; None when the factor finds full rank or none, or
    when its basic part is too ill-conditioned for the CSNE step.

    dpstrf, at LAPACK's default tolerance, factors P' H'H P = R'R in A's
    upper triangle, with R = [R11 R12; 0 0] of rank r; the Gram in A's
    lower triangle is left as it was. R11 passes the routing rule when u /
    rcond(R11'R11) is at most _ROUTE_LIMIT; dpocon reads it with the 1-norm
    of the whole of H'H, which bounds that of R11'R11 from above, so the
    estimate errs towards the QR route. Then theta0 = P [x_B; 0] with R11'R11
    x_B = (H'y)_B, the basic columns' own normal equations, and N0 = P [-W0;
    I] with W0 = R11^-1 R12 spans the null space of the factored Gram. R11
    is copied out of A, which later betas' factors write over.
    """
    _, lapack = _blas_lapack()
    norm = _lay_out(A, diagonal)
    _, piv, rank, info = lapack.dpstrf(A, lower=0, overwrite_a=1)
    if info < 0:
        raise RuntimeError(f"dpstrf rejected argument {-info}")
    p = len(A)
    if not 0 < rank < p:
        return None
    factor = np.array(A[:rank, :rank], order="F")
    if _rcond(factor, norm) < _UNIT_ROUNDOFF / _ROUTE_LIMIT:
        return None
    order = piv - 1
    W0, info = lapack.dtrtrs(factor, A[:rank, rank:])
    if info:
        raise RuntimeError(f"dtrtrs failed: info {info}")
    theta0 = np.zeros(p)
    theta0[order[:rank]] = lapack.dpotrs(factor, rhs[order[:rank]])[0]
    return _Basis(order, factor, W0), theta0


# weights past the float range, from a pivot near the smallest float, fail
# the acceptance test, so computing them warns of nothing
@np.errstate(over="ignore", invalid="ignore")
def _correct(A, gram_diagonal, beta, theta0, g, r0_square, rhs):
    """The CSNE step theta = theta0 + (H'H + beta I)^-1 (g - beta theta0),
    with g = H'r0 and r0_square = ||r0||^2 for r0 = y - H theta0, by the
    factor in A's upper triangle; the norm of theta's normal residual, which
    the acceptance test measures and the report keeps; and ||y - H theta||
    (_residual_norm). The last reads the Gram in A's lower triangle, with
    `gram_diagonal`, H'H's diagonal, written back on A's. Forming the two
    products writes over the factor's diagonal.
    """
    _, lapack = _blas_lapack()
    theta = theta0 + lapack.dpotrs(A, g - beta * theta0)[0]
    norm = float(np.linalg.norm(_normal_residual(A, gram_diagonal + beta, theta, rhs)))
    np.fill_diagonal(A, gram_diagonal)
    return theta, norm, _residual_norm(A, r0_square, g, theta - theta0)


def _residual_norm(A, r0_square, g, delta):
    """||y - H (theta0 + delta)|| from r0_square = ||r0||^2 and g = H'r0 for
    r0 = y - H theta0, with the Gram in A's lower triangle and on its
    diagonal: ||r0||^2 - 2 delta'g + delta'H'H delta, whose terms are of the
    size of ||r0||^2, not ||y||^2, so it resolves residuals far below
    sqrt(eps) ||y||; rounding may take it below 0, where it is clamped."""
    blas, _ = _blas_lapack()
    square = r0_square - 2.0 * (delta @ g) + delta @ blas.dsymv(1.0, A, delta, lower=1)
    return float(np.sqrt(max(0.0, square)))


@np.errstate(over="ignore", invalid="ignore")
def _correct_basic(A, gram_diagonal, basis, theta0, g, r0_square, G, null_square, rhs, cutoff):
    """The CSNE step of a pivoted beta = 0 (see _pivoted), which corrects
    both its basic solution and its null block by the factor R11 of the
    basic Gram, and the minimum-norm theta it gives. With g = H'r0 and
    r0_square = ||r0||^2 for r0 = y - H theta0, and G = H'(-H N0) and
    null_square = ||H N0||_F^2 from the correction walk:

        x_B = x_B0 + (R11'R11)^-1 g_B,  W = W0 - (R11'R11)^-1 G_B,
        z = (I + W'W)^-1 W'x_B,  theta = P [x_B - W z; z],

    where z minimizes ||theta|| over the solutions P [x_B - W z; z] of the
    basic least-squares problem (I + W'W >= I, so its factor exists while W
    is finite; a non-finite W gives a non-finite theta, which the checks
    refuse).

    None when the corrected null block N = P [-W; I] has ||H N||_F above
    `cutoff`, which is checked before theta is formed. With S = W0 - W, the
    rows of N - N0 on the basic columns (the others are zero), ||H N||_F^2 is
    ||H N0||_F^2 - 2 <S, G_B> + <S, H_B'H_B S>, and the last term is read as
    ||R11 S||_F^2: R11'R11 is the basic block of the Gram to rounding, and
    the product costs r^2 (p - r) where one with the whole Gram costs
    p^2 (p - r). Else theta; its normal residual norm, as _correct gives;
    and the residual norm of the basic part P [x_B; 0] (_residual_norm, with
    delta on the basic rows only: with the null part in delta, that
    identity is off by about u ||H'H|| ||z||^2).
    """
    blas, lapack = _blas_lapack()
    basic = basis.order[: len(basis.factor)]
    free = basis.order[len(basis.factor):]
    G = np.asfortranarray(G[basic])
    step = lapack.dpotrs(basis.factor, G)[0]  # S = W0 - W
    product = blas.dtrmm(1.0, basis.factor, step).reshape(-1, order="F")
    null_square += blas.ddot(product, product) - 2.0 * blas.ddot(
        step.reshape(-1, order="F"), G.reshape(-1, order="F")
    )
    if not null_square <= cutoff * cutoff:
        return None
    x = theta0[basic] + lapack.dpotrs(basis.factor, g[basic])[0]
    W = basis.W0 - step
    normal = blas.dsyrk(1.0, W, trans=1)
    np.fill_diagonal(normal, normal.diagonal() + 1.0)
    z = lapack.dposv(normal, blas.dgemv(1.0, W, x, trans=1), overwrite_a=1)[1]
    theta = np.empty_like(theta0)
    theta[basic] = x - blas.dgemv(1.0, W, z)
    theta[free] = z
    # with beta = 0 this also writes the Gram's diagonal on A's
    norm = float(np.linalg.norm(_normal_residual(A, gram_diagonal, theta, rhs)))
    delta = np.zeros_like(theta0)
    delta[basic] = x - theta0[basic]
    return theta, norm, _residual_norm(A, r0_square, g, delta)


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
    blas, lapack = _blas_lapack()
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
    return R, s, Vt, blas.dgemv(1.0, U_R, R[:k, p], trans=1)


@np.errstate(over="ignore", invalid="ignore")
def _pseudoinverse(R, s, Vt, Uty, beta, size):
    """Minimum-norm (beta = 0) or ridge (beta > 0) solution from the SVD
    of H; also the numerical rank of H (the count of singular values that
    it keeps), the reciprocal
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
    blas, _ = _blas_lapack()
    theta = blas.dgemv(1.0, Vt, gain * Uty, trans=1)
    residual = float(np.linalg.norm(blas.dgemv(1.0, R.T, np.append(theta, -1.0), trans=1)))
    return theta, int(np.count_nonzero(nz)), rcond, residual
