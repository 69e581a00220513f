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
from .core import _row_source, _slices, _walk_rows
from .errors import DimensionMismatch, InvalidActivation, MalformedModelFile, NonFiniteInput

_MODEL_FIELDS = ("n", "f", "a", "b", "c", "zbar1_band", "zbar2")


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """Output map a * x' Zbar1 x + b * Zbar2' x + c * Zbar4.

    Zbar1 is symmetric with zero entries wherever |row - col| >= f and is
    stored as its band coefficients (diagonal-major, true values). Two
    read-only values are derived from the band once, on construction: the
    dense `zbar1` that predict and sensitivity multiply by, and `zbar4`,
    the trace of Zbar1, which is never stored in a model file so the trace
    tie cannot drift; a band whose trace is not finite is refused.
    Activation coefficients travel with the model so it is self-contained
    for prediction.
    """

    zbar1_band: np.ndarray
    zbar2: np.ndarray
    spec: ConvSpec
    params: ActivationParams
    zbar1: np.ndarray = field(init=False, repr=False)
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
        m = band_index_map(self.spec)
        Z = np.zeros((self.spec.n, self.spec.n))
        Z[m.rows, m.cols] = band
        Z[m.cols, m.rows] = band
        for a in (band, z2, Z):
            a.setflags(write=False)
        object.__setattr__(self, "zbar1_band", band)
        object.__setattr__(self, "zbar2", z2)
        object.__setattr__(self, "zbar1", Z)
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
# Each walks the rows of X in blocks sized by the solver's walk rule for the
# two m x n arrays a block holds: its rows of X, read from a feature-row
# source or viewed in a held array, and their product with Zbar1. The
# single-row entry points call these on a one-row matrix. BLAS may round a
# one-row product (gemv) differently from a many-row one (gemm), and a
# product's rounding may depend on the rows beside it, so the entry points,
# and one row evaluated alone or within a block, agree to rounding, not bit
# for bit.


def _block_slices(model: QuadraticModel, N: int) -> list[slice]:
    return _slices(N, _walk_rows(2 * model.spec.n))


def _predict_rows(model: QuadraticModel, X) -> np.ndarray:
    p = model.params
    out = np.empty(X.shape[0])
    for r in _block_slices(model, X.shape[0]):
        block = X[r]
        XZ = block @ model.zbar1
        out[r] = (p.a * np.einsum("ij,ij->i", block, XZ) + p.b * (block @ model.zbar2)
                  + p.c * model.zbar4)
    return out


def _sensitivity_rows(model: QuadraticModel, X) -> np.ndarray:
    p = model.params
    out = np.empty(X.shape)
    for r in _block_slices(model, X.shape[0]):
        grad = np.matmul(X[r], model.zbar1, out=out[r])
        grad *= 2.0 * p.a
        grad += p.b * model.zbar2
    return out


def _as_row(model: QuadraticModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.spec.n,):
        raise DimensionMismatch(f"expected input of length {model.spec.n}, got shape {x.shape}")
    return x[None, :]


def _as_rows(model: QuadraticModel, X):
    X = _row_source(X)
    if len(X.shape) != 2 or X.shape[1] != model.spec.n:
        raise DimensionMismatch(
            f"expected rows of length {model.spec.n}, got shape {X.shape}"
        )
    return X


def predict(model: QuadraticModel, x) -> float:
    """Evaluate a * x' Zbar1 x + b * Zbar2' x + c * Zbar4 at one input."""
    return float(_predict_rows(model, _as_row(model, x))[0])


def predict_batch(model: QuadraticModel, X) -> np.ndarray:
    """Vectorized predict over the rows of X, a 2-D array or the features
    of a Dataset."""
    return _predict_rows(model, _as_rows(model, X))


def sensitivity(model: QuadraticModel, x0) -> np.ndarray:
    """Gradient of the output with respect to the input at x0:
    2a * Zbar1 x0 + b * Zbar2."""
    return _sensitivity_rows(model, _as_row(model, x0))[0]


def sensitivity_batch(model: QuadraticModel, X0) -> np.ndarray:
    """Vectorized sensitivity over the rows of X0, a 2-D array or the
    features of a Dataset."""
    return _sensitivity_rows(model, _as_rows(model, X0))


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
    return -0.0 if token == "-0" else int(token)


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
        doc = json.loads(text, parse_constant=_reject_constant, parse_int=_parse_int)
    except json.JSONDecodeError as e:
        raise MalformedModelFile(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
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
