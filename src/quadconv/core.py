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
        """b**2 - 4ac, or b**2 (1 - 4 (a/b)(c/b)), which keeps its sign,
        where both products overflow and the difference is inf - inf."""
        a, b, c = self.a, self.b, self.c
        disc = b * b - 4.0 * a * c
        return b * (b * (1.0 - 4.0 * (a / b) * (c / b))) if disc != disc else disc


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
    params = ActivationParams(float(a), float(b), float(c))
    if not params.discriminant >= 0:
        raise InvalidActivation(
            f"discriminant b**2 - 4ac must be >= 0, got {params.discriminant!r} "
            f"for (a, b, c) = ({a!r}, {b!r}, {c!r})"
        )
    return params


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

    Only the diagonals' slices are kept; `rows` and `cols` are built, as new
    read-only arrays, on each access.
    """

    spec: ConvSpec
    #: diagonals[d] is the slice of the band holding diagonal d, whose
    #: entries pair x[:n - d] with x[d:]
    diagonals: tuple[slice, ...]

    @property
    def rows(self) -> np.ndarray:
        n, f = self.spec.n, self.spec.f
        return _read_only(np.concatenate([np.arange(n - d) for d in range(f)]))

    @property
    def cols(self) -> np.ndarray:
        n, f = self.spec.n, self.spec.f
        return _read_only(np.concatenate([np.arange(d, n) for d in range(f)]))

    def __len__(self) -> int:
        return self.diagonals[-1].stop

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.rows.tolist(), self.cols.tolist()))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=128)
def band_index_map(spec: ConvSpec) -> BandIndexMap:
    """Build (and cache) the band index map for a filter geometry."""
    n, f = spec.n, spec.f
    diagonals = []
    start = 0
    for d in range(f):
        diagonals.append(slice(start, start + n - d))
        start += n - d
    return BandIndexMap(spec, tuple(diagonals))


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


# The solver's Gram and correction walks over H take blocks of this many
# bytes: about 490 rows of H at p = 2155, where in-place dsyrk runs
# within 3% of its speed on 1000-row blocks, and 4600 at p = 230, where a row
# source's buffer then holds 2.5% of a 100k-row H. The model's walks over
# feature rows take half as many, so evaluation after a fit stays under it.
_WALK_BYTES = 1 << 23


def _walk_rows(width: int) -> int:
    """Rows per block of a walk that holds `width` floats per row."""
    return max(1, _WALK_BYTES // (8 * width))


def _slices(N: int, rows: int) -> list[slice]:
    """Slices of consecutive blocks of `rows` rows that cover N rows."""
    return [slice(start, min(N, start + rows)) for start in range(0, N, rows)]


# A row source is an object with shape (N, p) whose fill_rows(rows, out)
# writes the rows of the slice rows into out, an m x p array of either
# memory order (a view with room to spare around it, too), and returns out.
# The solver walks row sources. A _Rows, which a caller's array becomes only
# through _as_rows, is the row source of feature rows and of a held H; the
# regressor's is regressor._RegressorRows, which assembles H[rows] when a
# walk reads it.


class _Rows:
    """Rows laid side by side from read-only 2-D parts: row i is the
    concatenation of row i of every part. A held inputs array is the single
    part of its _Rows; a windowed dataset's parts are sliding or block
    windows over a series' channels, so its N x n features are never held.

    rows[r] is the part's own rows when there is one part, and a new
    C-ordered array that fill_rows builds when there are several.
    """

    def __init__(self, parts):
        self.parts = tuple(parts)
        self.shape = (len(self.parts[0]), sum(p.shape[1] for p in self.parts))

    def __getitem__(self, rows: slice) -> np.ndarray:
        first = self.parts[0][rows]
        if len(self.parts) == 1:
            return first
        return self.fill_rows(rows, np.empty((len(first), self.shape[1])))

    def fill_rows(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """Write the rows of the slice rows into out and return out."""
        stop = 0
        for part in self.parts:
            start, stop = stop, stop + part.shape[1]
            out[:, start:stop] = part[rows]
        return out

    def view(self, rows: slice) -> "_Rows":
        """The rows of a slice, as a _Rows that shares this one's memory."""
        return _Rows(p[rows] for p in self.parts)


def _as_rows(X):
    """Caller rows as a _Rows: a _Rows as it is, a 2-D array as the single
    part of a new one, held as a read-only view of np.asarray(X, dtype=float)
    (a float64 array is shared, not copied; anything else is converted
    once), and any other shape as that array, for the caller to refuse."""
    if isinstance(X, _Rows):
        return X
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        return X
    X = X.view()
    X.setflags(write=False)
    return _Rows([X])


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
