"""Core domain types: activation coefficients, filter geometry, and the
diagonal-major band vectorization that turns quadratic fitting into a
linear regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidActivation


@dataclass(frozen=True)
class ActivationParams:
    """Coefficients (a, b, c) of the quadratic activation a*z**2 + b*z + c.

    The constructor does not validate; use :func:`validate_activation` to
    enforce a > 0, c > 0 and b**2 - 4ac >= 0, the conditions under which
    the unconstrained least-squares fit is also the solution of the
    constrained convex training problem.
    """

    a: float
    b: float
    c: float

    @property
    def discriminant(self) -> float:
        return self.b * self.b - 4.0 * self.a * self.c


#: Coefficients that mimic a ReLU over a moderate input range; used as the
#: default throughout the CLI.
RELU_MIMIC = ActivationParams(a=0.0937, b=0.5, c=0.4688)


def validate_activation(a: float, b: float, c: float) -> ActivationParams:
    """Return ActivationParams iff a, b and c are finite, a > 0, c > 0 and
    b**2 - 4ac >= 0.

    Raises InvalidActivation naming the violated condition otherwise.
    """
    if not np.isfinite([a, b, c]).all():
        # an infinite b would pass the discriminant check as inf >= 0
        raise InvalidActivation(
            f"activation coefficients must be finite, got (a, b, c) = ({a!r}, {b!r}, {c!r})"
        )
    if not a > 0:
        raise InvalidActivation(f"quadratic coefficient a must be > 0, got {a!r}")
    if not c > 0:
        raise InvalidActivation(f"constant coefficient c must be > 0, got {c!r}")
    disc = b * b - 4.0 * a * c
    if not disc >= 0:
        raise InvalidActivation(
            f"discriminant b**2 - 4ac must be >= 0, got {disc!r} "
            f"for (a, b, c) = ({a!r}, {b!r}, {c!r})"
        )
    return ActivationParams(float(a), float(b), float(c))


def activation_eval(params: ActivationParams, z):
    """Evaluate a*z**2 + b*z + c; broadcasts over array-valued z."""
    z = np.asarray(z, dtype=float)
    out = params.a * z * z + params.b * z + params.c
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a length-f filter sliding with stride 1 over n inputs.

    Derived quantities:
      patch_count  K = n - f + 1   windows the filter visits
      band_size    q = (2n - f + 1) f / 2   entries in the first f diagonals
      n_weights    q + n   length of the trained weight vector
    """

    n: int
    f: int

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "f", int(self.f))
        if not 1 <= self.f <= self.n:
            raise ValueError(f"need 1 <= f <= n, got f={self.f}, n={self.n}")

    @property
    def patch_count(self) -> int:
        return self.n - self.f + 1

    @property
    def band_size(self) -> int:
        return (2 * self.n - self.f + 1) * self.f // 2

    @property
    def n_weights(self) -> int:
        return self.band_size + self.n


@dataclass(frozen=True)
class BandIndexMap:
    """Zero-based (row, col) indices of the first f diagonals of an n x n
    matrix, diagonal-major: all of diagonal 0, then diagonal 1, and so on
    up to diagonal f - 1. Single source of truth for the band ordering.
    """

    spec: ConvSpec
    rows: np.ndarray
    cols: np.ndarray
    #: diagonals[d] is the slice of the band holding diagonal d, whose
    #: entries pair x[:n - d] with x[d:]
    diagonals: tuple[slice, ...]

    def __len__(self) -> int:
        return self.rows.size

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.rows.tolist(), self.cols.tolist()))


@lru_cache(maxsize=128)
def band_index_map(spec: ConvSpec) -> BandIndexMap:
    """Build (and cache) the band index map for a filter geometry."""
    n, f = spec.n, spec.f
    diagonals = []
    start = 0
    for d in range(f):
        diagonals.append(slice(start, start + n - d))
        start += n - d
    rows = np.concatenate([np.arange(n - d) for d in range(f)])
    cols = np.concatenate([np.arange(d, n) for d in range(f)])
    rows.setflags(write=False)
    cols.setflags(write=False)
    return BandIndexMap(spec, rows, cols, tuple(diagonals))


def band_products(X: np.ndarray, spec: ConvSpec, out: np.ndarray) -> np.ndarray:
    """Write the band products X[:, r] * X[:, c] of every row of X into
    out (shape N x spec.band_size), one diagonal at a time, and return out.

    Each diagonal is one elementwise product of two column slices of X, so
    no N-row index gather is ever materialized.
    """
    n = spec.n
    for d, s in enumerate(band_index_map(spec).diagonals):
        np.multiply(X[:, : n - d], X[:, d:], out=out[:, s])
    return out


def vecf(x, spec: ConvSpec) -> np.ndarray:
    """Products x_r * x_c over the first f diagonals of x x^T.

    Diagonal-major layout: the n squares first, then the f - 1 upper
    off-diagonals in order. Length is spec.band_size.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.n,):
        raise DimensionMismatch(f"expected vector of length {spec.n}, got shape {x.shape}")
    return band_products(x[None, :], spec, np.empty((1, spec.band_size)))[0]


# The solver's Gram and residual walks over H and the model's walks over
# feature rows take blocks of this many bytes: about 490 rows of H at p =
# 2155, where in-place dsyrk runs within 3% of its speed on 1000-row
# blocks, and 4600 at p = 230, where a row source's buffer then holds 2.5%
# of a 100k-row H.
_WALK_BYTES = 1 << 23


def _walk_rows(width: int) -> int:
    """Rows per block of a walk that holds `width` floats per row."""
    return max(1, _WALK_BYTES // (8 * width))


def _slices(N: int, rows: int) -> list[slice]:
    """Slices of consecutive blocks of `rows` rows that cover N rows."""
    return [slice(start, min(N, start + rows)) for start in range(0, N, rows)]


# A feature-row source is what a Dataset holds and the fit and the model
# kernels read: an object with shape (N, n) whose source[r] is the rows of
# the slice r as an array. There are two kinds, a held read-only 2-D array
# and a _WindowRows; the helpers below are the only code that tells them
# apart.


class _WindowRows:
    """Feature rows laid side by side from row windows of a series: row i
    is the concatenation of row i of every part, a read-only 2-D view
    (such as a sliding window) of a channel.

    rows[r] builds the rows of the slice r as a new array, so the N x n
    features are never held.
    """

    def __init__(self, parts):
        self.parts = tuple(parts)
        self.shape = (len(self.parts[0]), sum(p.shape[1] for p in self.parts))

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.hstack([p[rows] for p in self.parts])

    def view(self, rows: slice) -> "_WindowRows":
        """The rows of a slice, as windows over the same channels."""
        return _WindowRows(p[rows] for p in self.parts)


def _row_source(X):
    """Caller input as a feature-row source: a _WindowRows as it is,
    anything else as a float array (not copied if it is one)."""
    return X if isinstance(X, _WindowRows) else np.asarray(X, dtype=float)


def _row_view(source, rows: slice):
    """The rows of a slice of a source, as a source of the same kind that
    shares its memory."""
    return source.view(rows) if isinstance(source, _WindowRows) else source[rows]


def _held_rows(source) -> np.ndarray:
    """Every row of a source as one read-only array: a held array as it
    is, or the rows of a _WindowRows built into a new one."""
    if not isinstance(source, _WindowRows):
        return source
    X = source[0 : source.shape[0]]
    X.setflags(write=False)
    return X


def format_float(v) -> str:
    """Text for a float with 17 significant digits, which round-trips
    float64 exactly. Non-finite values format as 'nan'/'inf'; writers that
    must reject them check before formatting."""
    return format(float(v), ".17g")


class WeightCounts(NamedTuple):
    cqnn_weights: int
    banded_weights: int


def band_counts(spec: ConvSpec) -> WeightCounts:
    """Unique trainable weights of the per-patch parametrization versus the
    aggregated banded form. The banded count never exceeds the per-patch
    count for f > 1 (they coincide at f = 1 and f = n).
    """
    n, f = spec.n, spec.f
    return WeightCounts((f + 3) * (n - f + 1) * f // 2, spec.band_size + n)
