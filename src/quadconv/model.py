"""Banded quadratic input-output model: reconstruction from the weight
vector, prediction, input sensitivity, and JSON (de)serialization.

This module owns the weight-vector layout theta = [diagonal of Zbar1;
doubled off-diagonal band entries, diagonal-major; Zbar2], of length q + n,
which build_regressor's columns follow and reconstruct inverts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import ActivationParams, ConvSpec, band_index_map, format_float, validate_activation
from .core import _as_rows, _slices, _walk_rows
from .errors import DimensionMismatch, InvalidActivation, MalformedModelFile, NonFiniteInput

_MODEL_FIELDS = ("n", "f", "a", "b", "c", "zbar1_band", "zbar2")

# Columns of Zbar1 per band tile of the evaluation kernel, for a single row
# and for a block of two or more rows (see below); 256 made both slower.
_ROW_TILE = 128
_BLOCK_TILE = 64


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """Output map a * x' Zbar1 x + b * Zbar2' x + c * Zbar4.

    Zbar1 is symmetric with zero entries wherever |row - col| >= f and is
    stored as its band coefficients (diagonal-major, true values). A model
    holds no n x n array: dense_zbar1(model) builds the dense Zbar1 on
    request, the inverse of from_dense. Three read-only values are derived
    from the band once, on construction: two sets of band tiles of Zbar1
    that predict and sensitivity multiply by (see the evaluation kernel),
    `zbar1_tiles`, 128 columns wide, for a single row, and
    `zbar1_block_tiles`, 64 wide and views of the wide tiles, for a block of
    two or more rows; and `zbar4`, the trace of Zbar1, which is never stored
    in a model file so the trace tie cannot drift; a band whose trace is not
    finite is refused.
    Activation coefficients travel with the model so it is self-contained
    for prediction.
    """

    zbar1_band: np.ndarray
    zbar2: np.ndarray
    spec: ConvSpec
    params: ActivationParams
    zbar1_tiles: tuple = field(init=False, repr=False)
    zbar1_block_tiles: tuple = field(init=False, repr=False)
    zbar4: float = field(init=False, repr=False)

    def __post_init__(self):
        band = np.array(self.zbar1_band, dtype=float, copy=True)
        z2 = np.array(self.zbar2, dtype=float, copy=True)
        if band.shape != (self.spec.band_size,):
            raise DimensionMismatch(
                f"band must have length {self.spec.band_size}, got shape {band.shape}"
            )
        if z2.shape != (self.spec.n,):
            raise DimensionMismatch(
                f"zbar2 must have length {self.spec.n}, got shape {z2.shape}"
            )
        # a finite diagonal can still sum past the float range; such a trace
        # would turn every prediction into inf or nan
        with np.errstate(over="ignore"):
            trace = float(band[: self.spec.n].sum())
        if not math.isfinite(trace):
            raise NonFiniteInput(
                f"the trace of Zbar1 (zbar4) is non-finite: the band diagonal sums to {trace!r}"
            )
        for a in (band, z2):
            a.setflags(write=False)
        tiles, block_tiles = _band_tiles(band, self.spec)
        object.__setattr__(self, "zbar1_band", band)
        object.__setattr__(self, "zbar2", z2)
        object.__setattr__(self, "zbar1_tiles", tiles)
        object.__setattr__(self, "zbar1_block_tiles", block_tiles)
        object.__setattr__(self, "zbar4", trace)

    @classmethod
    def from_dense(cls, zbar1, zbar2, spec: ConvSpec, params: ActivationParams) -> "QuadraticModel":
        """Build from a dense Zbar1, which must be symmetric and exactly
        zero outside the first f diagonals."""
        Z = np.asarray(zbar1, dtype=float)
        if Z.shape != (spec.n, spec.n):
            raise DimensionMismatch(f"expected {spec.n} x {spec.n} matrix, got {Z.shape}")
        if not np.array_equal(Z, Z.T):
            raise ValueError("dense Zbar1 must be symmetric")
        r, c = np.indices(Z.shape)
        if np.any(Z[np.abs(r - c) >= spec.f] != 0.0):
            raise ValueError(f"dense Zbar1 has nonzero entries outside bandwidth f={spec.f}")
        m = band_index_map(spec)
        return cls(Z[m.rows, m.cols], zbar2, spec, params)


def dense_zbar1(model: QuadraticModel) -> np.ndarray:
    """The model's Zbar1 as a dense n x n array, built anew on each call:
    the inverse of QuadraticModel.from_dense."""
    m = band_index_map(model.spec)
    rows, cols = m.rows, m.cols
    Z = np.zeros((model.spec.n, model.spec.n))
    Z[rows, cols] = model.zbar1_band
    Z[cols, rows] = model.zbar1_band
    return Z


def _band_tiles(band: np.ndarray, spec: ConvSpec) -> tuple[tuple, tuple]:
    """The band tiles of Zbar1 gathered from its band: the wide tiles,
    _ROW_TILE columns each, and the block tiles, _BLOCK_TILE columns each,
    which are views of the wide ones. Each is (rows, cols, tile) with the
    index tuples that the evaluation kernel slices by."""
    n, f = spec.n, spec.f
    starts = np.array([d.start for d in band_index_map(spec).diagonals])

    def rows(j0, j1):
        return max(0, j0 - f + 1), min(n, j1 + f - 1)

    wide, block = [], []
    for j0 in range(0, n, _ROW_TILE):
        j1 = min(n, j0 + _ROW_TILE)
        lo, hi = rows(j0, j1)
        r, c = np.ogrid[lo:hi, j0:j1]
        d = np.abs(r - c)
        inside = d < f
        # Zbar1[r, c] is entry min(r, c) of diagonal |r - c| of the band
        T = np.zeros(d.shape)
        T[inside] = band[starts[d[inside]] + np.minimum(r, c)[inside]]
        T.setflags(write=False)
        wide.append((np.s_[:, lo:hi], np.s_[:, j0:j1], T))
        # _ROW_TILE is a multiple of _BLOCK_TILE, and a narrower tile's rows
        # lie inside its wide tile's rows
        for k0 in range(j0, j1, _BLOCK_TILE):
            k1 = min(n, k0 + _BLOCK_TILE)
            klo, khi = rows(k0, k1)
            block.append((np.s_[:, klo:khi], np.s_[:, k0:k1],
                          T[klo - lo : khi - lo, k0 - j0 : k1 - j0]))
    return tuple(wide), tuple(block)


def reconstruct(theta, spec: ConvSpec, params: ActivationParams) -> QuadraticModel:
    """Invert the weight-vector layout of a length q + n theta.

    Off-diagonal band entries are stored doubled in theta (each unordered
    pair appears once in the regressor), so they are halved here.
    """
    t = np.asarray(theta, dtype=float)
    if t.shape != (spec.n_weights,):
        raise DimensionMismatch(
            f"weight vector must have length {spec.n_weights}, got shape {t.shape}"
        )
    band = t[: spec.band_size].copy()
    band[spec.n :] *= 0.5
    return QuadraticModel(band, t[spec.band_size :], spec, params)


def to_weight_vector(model: QuadraticModel) -> np.ndarray:
    """Inverse of reconstruct: the model's theta, with the off-diagonal band
    entries doubled."""
    band = model.zbar1_band.copy()
    band[model.spec.n :] *= 2.0
    return np.concatenate([band, model.zbar2])


# The evaluation kernel. Both maps read the same product X @ Zbar1:
#   output   a * rowsum(X * (X Zbar1)) + b * X Zbar2 + c * Zbar4
#   gradient 2a * X Zbar1 + b * Zbar2
# One walk, _walk, takes either over the rows of X for a list of models, in
# blocks that hold two m x n arrays (its rows of X and their product with
# Zbar1) in half the solver's walk budget, so evaluation after a fit stays
# under the fit's own peak. Its argument is the product: serving passes
# np.matmul and reads a held array's blocks as views, so it never loads
# scipy; train.mean_squared_errors passes scipy's dgemm and dgemv, the BLAS
# of the solve before it, so a train run keeps to one thread pool (see
# solver), and fills column-major blocks, so every tile's operand is a
# contiguous column slice. predict and sensitivity call the block kernels
# on their one row without the walk, whose setup would cost a query some
# microseconds. All group the same products, so they overflow on the same
# rows, but rounding may depend on the library, the memory order, the rows
# beside a row and on one row (gemv) or many (gemm): they agree to
# rounding, not bit for bit.
# Zbar1 is zero wherever |i - j| >= f, so the product is formed in band
# tiles of w columns: columns [j0, j1) of X Zbar1 are
# X[:, lo:hi] @ Zbar1[lo:hi, j0:j1] with lo = max(0, j0 - f + 1) and
# hi = min(n, j1 + f - 1), the only rows of Zbar1 that can be nonzero in
# those columns. That is one BLAS product per tile and about
# N * n * (w + 2f - 2) flops in place of N * n^2. The width follows the
# rows of the block: a single row takes w = _ROW_TILE (128), since each
# product call costs about a microsecond whatever its size, and a block of
# two or more rows takes w = _BLOCK_TILE (64), whose fewer wasted flops
# outweigh the calls. A model with n <= w has one tile of that width, the
# whole Zbar1, and one product as a dense X @ Zbar1 would be, with the same
# bits. The model gathers each wide tile from the band once, with its index
# tuples, and takes the narrow tiles as views of the wide ones, so it holds
# about n * min(n, 128 + 2f - 2) floats, not a dense Zbar1, and a query does
# no slice arithmetic.


def _walk(models, X, block_kernel, row_shape: tuple, matmul, order="C") -> np.ndarray:
    """block_kernel(model, block, out[k, r], matmul, order) for every model
    k over row blocks r of X, taken through core._as_rows; out, made once
    X's width is checked, holds an array of row_shape per row and model.
    matmul(A, B, out=C) writes A @ B into C, and matmul(A, v) returns A @ v.
    Order "C" reads a held array's blocks as they are; "F" fills each block
    column-major into one reused buffer, and the kernels make their
    products column-major too."""
    X = _as_rows(X)
    for n in (model.spec.n for model in models):
        if len(X.shape) != 2 or X.shape[1] != n:
            raise DimensionMismatch(f"expected rows of length {n}, got shape {X.shape}")
    N, n = X.shape
    rows = _walk_rows(4 * n)
    out = np.empty((len(models), N, *row_shape))
    buffer = np.empty(min(N, rows) * n) if order == "F" else None
    for r in _slices(N, rows):
        m = r.stop - r.start
        block = (X[r] if buffer is None
                 else X.fill_rows(r, buffer[: m * n].reshape((m, n), order="F")))
        for model, model_out in zip(models, out):
            block_kernel(model, block, model_out[r], matmul, order)
    return out


def _times_zbar1(model: QuadraticModel, block, out, matmul) -> np.ndarray:
    """Write block @ Zbar1 into out, one band tile at a time: the wide
    tiles for one row, the narrow ones for more."""
    tiles = model.zbar1_tiles if len(block) == 1 else model.zbar1_block_tiles
    for rows, cols, Z in tiles:
        matmul(block[rows], Z, out=out[cols])
    return out


def _predict_block(model: QuadraticModel, block, out, matmul, order) -> np.ndarray:
    # the product is freed on return, before the next model or block
    p = model.params
    XZ = _times_zbar1(model, block, np.empty(block.shape, order=order), matmul)
    out[...] = (p.a * np.einsum("ij,ij->i", block, XZ) + p.b * matmul(block, model.zbar2)
                + p.c * model.zbar4)
    return out


def _sensitivity_block(model: QuadraticModel, block, out, matmul, order) -> np.ndarray:
    grad = _times_zbar1(model, block, out, matmul)
    grad *= 2.0 * model.params.a
    grad += model.params.b * model.zbar2
    return grad


def _as_row(model: QuadraticModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.spec.n,):
        raise DimensionMismatch(f"expected input of length {model.spec.n}, got shape {x.shape}")
    return x[None, :]


def predict(model: QuadraticModel, x) -> float:
    """Evaluate a * x' Zbar1 x + b * Zbar2' x + c * Zbar4 at one input."""
    return float(_predict_block(model, _as_row(model, x), np.empty(1), np.matmul, "C")[0])


def predict_batch(model: QuadraticModel, X) -> np.ndarray:
    """Vectorized predict over the rows of X, a 2-D array or the features
    of a Dataset."""
    return _walk([model], X, _predict_block, (), np.matmul)[0]


def sensitivity(model: QuadraticModel, x0) -> np.ndarray:
    """Gradient of the output with respect to the input at x0:
    2a * Zbar1 x0 + b * Zbar2."""
    row = _as_row(model, x0)
    return _sensitivity_block(model, row, np.empty(row.shape), np.matmul, "C")[0]


def sensitivity_batch(model: QuadraticModel, X0) -> np.ndarray:
    """Vectorized sensitivity over the rows of X0, a 2-D array or the
    features of a Dataset."""
    return _walk([model], X0, _sensitivity_block, (model.spec.n,), np.matmul)[0]


def serialize(model: QuadraticModel) -> str:
    """Render the model as JSON with 17-significant-digit numbers, which
    round-trip float64 exactly. Zbar4 is derived on load and not stored.
    Raises InvalidActivation for an activation that deserialize would
    refuse, and ValueError for a non-finite weight, which JSON cannot carry.
    """
    p = model.params
    validate_activation(p.a, p.b, p.c)
    if not np.isfinite(np.concatenate([model.zbar1_band, model.zbar2])).all():
        raise ValueError("cannot serialize non-finite value")
    band = ", ".join(map(format_float, model.zbar1_band))
    z2 = ", ".join(map(format_float, model.zbar2))
    return (
        "{\n"
        f'  "n": {model.spec.n},\n'
        f'  "f": {model.spec.f},\n'
        f'  "a": {format_float(p.a)},\n'
        f'  "b": {format_float(p.b)},\n'
        f'  "c": {format_float(p.c)},\n'
        f'  "zbar1_band": [{band}],\n'
        f'  "zbar2": [{z2}]\n'
        "}\n"
    )


def _reject_constant(token: str):
    raise MalformedModelFile(f"non-finite number {token!r} is not allowed")


def _parse_int(token: str):
    # serialize writes a negative zero as "-0", which int() would read as 0
    if token == "-0":
        return -0.0
    try:
        return int(token)
    except ValueError:
        # past Python's limit on the digits of an integer string
        digits = len(token.lstrip("-"))
        raise MalformedModelFile(f"an integer of {digits} digits is too long") from None


def _unique_fields(pairs):
    # json.loads would keep the last of two equal names; a model file names
    # each field once, as a CSV header names each column once
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise MalformedModelFile(f"field {key!r} appears twice")
        doc[key] = value
    return doc


def _require_int(doc: dict, key: str) -> int:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise MalformedModelFile(f"field {key!r} must be an integer, got {v!r}")
    return v


def _require_num(doc: dict, key: str) -> float:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MalformedModelFile(f"field {key!r} must be a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        raise MalformedModelFile(f"field {key!r} must be finite, got {v!r}")
    return v


def _require_num_list(doc: dict, key: str, length: int, why: str) -> np.ndarray:
    v = doc[key]
    if not isinstance(v, list):
        raise MalformedModelFile(f"field {key!r} must be an array, got {type(v).__name__}")
    if len(v) != length:
        raise MalformedModelFile(
            f"field {key!r} must have {length} entries ({why}), got {len(v)}"
        )
    out = np.empty(length)
    for i, item in enumerate(v):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise MalformedModelFile(f"field {key!r}, entry {i}: not a number: {item!r}")
        out[i] = item
    if not np.isfinite(out).all():
        raise MalformedModelFile(f"field {key!r} contains non-finite values")
    return out


def deserialize(text: str) -> QuadraticModel:
    """Parse a model file, reporting the offending line or field on error."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant, parse_int=_parse_int,
                         object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as e:
        raise MalformedModelFile(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except RecursionError:
        raise MalformedModelFile("JSON arrays or objects are nested too deeply") from None
    if not isinstance(doc, dict):
        raise MalformedModelFile("model file must contain a JSON object")

    missing = [k for k in _MODEL_FIELDS if k not in doc]
    if missing:
        raise MalformedModelFile(f"missing field(s): {', '.join(missing)}")
    unknown = sorted(set(doc) - set(_MODEL_FIELDS) - {"zbar4"})
    if unknown:
        raise MalformedModelFile(f"unexpected field(s): {', '.join(unknown)}")

    n = _require_int(doc, "n")
    f = _require_int(doc, "f")
    try:
        spec = ConvSpec(n, f)
    except ValueError as e:
        raise MalformedModelFile(f"fields 'n'/'f': {e}") from None
    try:
        params = validate_activation(
            _require_num(doc, "a"), _require_num(doc, "b"), _require_num(doc, "c")
        )
    except InvalidActivation as e:
        raise MalformedModelFile(f"activation fields: {e}") from None

    band = _require_num_list(
        doc, "zbar1_band", spec.band_size, f"the first f={f} diagonals of an {n} x {n} matrix"
    )
    z2 = _require_num_list(doc, "zbar2", n, "one entry per input feature")
    model = QuadraticModel(band, z2, spec, params)

    if "zbar4" in doc:
        stored = _require_num(doc, "zbar4")
        trace = model.zbar4
        if abs(stored - trace) > 1e-9 * max(1.0, abs(trace)):
            raise MalformedModelFile(
                f"field 'zbar4' ({stored!r}) violates the trace tie (trace is {trace!r})"
            )
    return model
