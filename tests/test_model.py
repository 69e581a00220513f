import json
import tracemalloc

import numpy as np
import pytest

from quadconv import (
    ActivationParams,
    ConvSpec,
    DimensionMismatch,
    InvalidActivation,
    MalformedModelFile,
    NonFiniteInput,
    QuadraticModel,
    dense_zbar1,
    deserialize,
    predict,
    predict_batch,
    reconstruct,
    sensitivity,
    sensitivity_batch,
    serialize,
    to_weight_vector,
)
from quadconv import core
from quadconv import model as model_module

_RELU = ActivationParams(0.0937, 0.5, 0.4688)


def _random_model(rng, n=None, f=None, params=None):
    n = n if n is not None else int(rng.integers(1, 12))
    f = f if f is not None else int(rng.integers(1, n + 1))
    spec = ConvSpec(n, f)
    theta = rng.uniform(-1, 1, size=spec.n_weights)
    return reconstruct(theta, spec, params if params is not None else _RELU)


def test_reconstruct_zero_weights():
    spec = ConvSpec(3, 2)
    m = reconstruct(np.zeros(spec.n_weights), spec, _RELU)
    np.testing.assert_array_equal(m.zbar1_band, 0.0)
    np.testing.assert_array_equal(m.zbar2, 0.0)
    assert m.zbar4 == 0.0


def test_reconstruct_halves_off_diagonals():
    spec = ConvSpec(2, 2)
    m = reconstruct(np.array([1.0, 2.0, 4.0, 5.0, 6.0]), spec, _RELU)
    np.testing.assert_array_equal(dense_zbar1(m), [[1.0, 2.0], [2.0, 2.0]])
    np.testing.assert_array_equal(m.zbar2, [5.0, 6.0])
    assert m.zbar4 == 3.0


def test_reconstruct_diagonal_model():
    spec = ConvSpec(3, 1)
    m = reconstruct(np.arange(1.0, 7.0), spec, _RELU)
    np.testing.assert_array_equal(dense_zbar1(m), np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(m.zbar2, [4.0, 5.0, 6.0])
    assert m.zbar4 == 6.0


@pytest.mark.parametrize(
    "theta", [np.zeros(4), np.zeros(6), np.zeros((1, 5)), np.zeros((5, 1))],
    ids=["short", "long", "row", "column"],
)
def test_reconstruct_validates_length(theta):
    with pytest.raises(DimensionMismatch, match="length 5"):
        reconstruct(theta, ConvSpec(2, 2), _RELU)


def test_to_weight_vector_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        spec = ConvSpec(n, int(rng.integers(1, n + 1)))
        theta = rng.uniform(-1, 1, size=spec.n_weights)
        back = to_weight_vector(reconstruct(theta, spec, _RELU))
        np.testing.assert_allclose(back, theta, rtol=0, atol=0)


def test_predict_zero_input_is_constant_term():
    rng = np.random.default_rng(1)
    m = _random_model(rng, n=5, f=3)
    assert predict(m, np.zeros(5)) == pytest.approx(m.params.c * m.zbar4, rel=1e-15)


def test_predict_hand_value():
    spec = ConvSpec(2, 2)
    m = reconstruct(np.array([1.0, 2.0, 4.0, 5.0, 6.0]), spec, ActivationParams(1, 1, 1))
    assert predict(m, [1.0, 0.0]) == pytest.approx(9.0, rel=1e-15)


# Single-row and batch evaluation agree to rounding, not bit for bit: BLAS
# rounds a one-row product (gemv) differently from a batch (gemm). Each
# evaluation of an output is within gamma_k * (sum of its terms' magnitudes)
# of the exact value, with k = 2n + 4 operations in its longest chain for
# predict and k = n + 2 for sensitivity (Higham, Accuracy and Stability of
# Numerical Algorithms, ch. 3), so the two differ by at most about
# k * eps * |terms|. The bounds below take twice that.
_EPS = np.finfo(float).eps


def _predict_rounding_bound(m, X):
    p = m.params
    absX = np.abs(X)
    terms = (
        abs(p.a) * np.einsum("ij,ij->i", absX, absX @ np.abs(dense_zbar1(m)))
        + abs(p.b) * (absX @ np.abs(m.zbar2))
        + abs(p.c) * abs(m.zbar4)
    )
    return 2 * (2 * m.spec.n + 4) * _EPS * terms


def _sensitivity_rounding_bound(m, X):
    p = m.params
    terms = 2 * abs(p.a) * (np.abs(X) @ np.abs(dense_zbar1(m))) + abs(p.b) * np.abs(m.zbar2)
    return 2 * (m.spec.n + 2) * _EPS * terms


# The original geometry, then n = 1, f = 1 and f = n; then models around
# the width of the row blocks' band tiles, 64 (one full tile at 63 and 64,
# two with a one-column last tile at 65), and of a single row's, 128 (one
# full tile at 127 and 128, two with a one-column last tile at 129), three
# row tiles with a ragged last tile (300, 4), and f = n, where every tile
# reads every row.
_TILE_GEOMETRIES = [(63, 3), (64, 3), (65, 3), (127, 3), (128, 3), (129, 3), (300, 4),
                    (300, 300)]


@pytest.mark.parametrize("n,f", [(6, 4), (1, 1), (6, 1), (8, 8)] + _TILE_GEOMETRIES)
def test_predict_batch_matches_scalar(monkeypatch, n, f):
    rng = np.random.default_rng(2)
    m = _random_model(rng, n=n, f=f)
    X = rng.uniform(-1, 1, size=(8, n))
    singles = np.array([predict(m, x) for x in X])
    # one block, then blocks of 3 rows, the last one partial
    for walk_bytes in (core._WALK_BYTES, 3 * 16 * n):
        monkeypatch.setattr(core, "_WALK_BYTES", walk_bytes)
        batch = predict_batch(m, X)
        assert np.all(np.abs(batch - singles) <= _predict_rounding_bound(m, X))


def test_predict_rejects_wrong_length():
    rng = np.random.default_rng(3)
    m = _random_model(rng, n=4, f=2)
    with pytest.raises(DimensionMismatch):
        predict(m, np.zeros(5))


def test_sensitivity_at_origin_is_linear_term():
    rng = np.random.default_rng(4)
    m = _random_model(rng, n=5, f=2)
    np.testing.assert_allclose(sensitivity(m, np.zeros(5)), m.params.b * m.zbar2, rtol=1e-15)


def test_sensitivity_identity_quadratic():
    # Zbar1 = I, Zbar2 = 0, a = 1, b = 0: gradient of ||x||^2 is 2x
    spec = ConvSpec(4, 4)
    m = QuadraticModel.from_dense(np.eye(4), np.zeros(4), spec, ActivationParams(1.0, 0.0, 1.0))
    x0 = np.array([0.3, -1.2, 0.7, 2.0])
    np.testing.assert_allclose(sensitivity(m, x0), 2.0 * x0, rtol=1e-15)


def test_sensitivity_matches_central_differences():
    rng = np.random.default_rng(5)
    step = 1e-5
    for _ in range(25):
        m = _random_model(rng)
        n = m.spec.n
        x0 = rng.uniform(-1, 1, size=n)
        g = sensitivity(m, x0)
        g_fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            g_fd[i] = (predict(m, x0 + e) - predict(m, x0 - e)) / (2 * step)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


@pytest.mark.parametrize("n,f", [(7, 3), (1, 1), (7, 1), (7, 7)] + _TILE_GEOMETRIES)
def test_sensitivity_batch_matches_scalar(monkeypatch, n, f):
    rng = np.random.default_rng(6)
    m = _random_model(rng, n=n, f=f)
    X0 = rng.uniform(-1, 1, size=(5, n))
    singles = np.array([sensitivity(m, x) for x in X0])
    # one block, then blocks of 3 rows, the last one partial
    for walk_bytes in (core._WALK_BYTES, 3 * 16 * n):
        monkeypatch.setattr(core, "_WALK_BYTES", walk_bytes)
        batch = sensitivity_batch(m, X0)
        assert np.all(np.abs(batch - singles) <= _sensitivity_rounding_bound(m, X0))


def _dense_predict(m, X):
    # the evaluation before band tiles, on the dense Zbar1
    p = m.params
    return p.a * np.einsum("ij,ij->i", X, X @ dense_zbar1(m)) + p.b * (X @ m.zbar2) + p.c * m.zbar4


def _dense_sensitivity(m, X):
    grad = X @ dense_zbar1(m)
    grad *= 2.0 * m.params.a
    grad += m.params.b * m.zbar2
    return grad


@pytest.mark.parametrize("n,f", [(5, 2), (128, 128)] + _TILE_GEOMETRIES)
def test_band_tiles_match_the_dense_zbar1(n, f):
    rng = np.random.default_rng(7)
    m = _random_model(rng, n=n, f=f)
    X = rng.uniform(-1, 1, size=(6, n))
    row_tiles = -(-n // model_module._ROW_TILE)
    block_tiles = -(-n // model_module._BLOCK_TILE)
    assert len(m.zbar1_tiles) == row_tiles
    assert len(m.zbar1_block_tiles) == block_tiles
    # each block tile is a view of a wide tile, and every tile is its slice
    # of the dense Zbar1, bit for bit
    assert all(any(np.shares_memory(T, W) for *_, W in m.zbar1_tiles)
               for *_, T in m.zbar1_block_tiles)
    Z = dense_zbar1(m)
    for (_, rows), (_, cols), T in m.zbar1_tiles + m.zbar1_block_tiles:
        np.testing.assert_array_equal(T, Z[rows, cols])
    bounds = {_dense_predict: _predict_rounding_bound,
              _dense_sensitivity: _sensitivity_rounding_bound}
    # (result, dense formula, its rows, tiles of the path taken): a batch of
    # one row takes a single row's tiles, a batch of two or more the row
    # blocks' tiles
    cases = []
    for rows in (X, X[:1], X[:2]):
        tiles = row_tiles if len(rows) == 1 else block_tiles
        cases += [(predict_batch(m, rows), _dense_predict, rows, tiles),
                  (sensitivity_batch(m, rows), _dense_sensitivity, rows, tiles)]
    for x in X:
        cases += [(predict(m, x), _dense_predict, x[None, :], row_tiles),
                  (sensitivity(m, x), _dense_sensitivity, x[None, :], row_tiles)]
    for got, dense, rows, tiles in cases:
        want = dense(m, rows)
        got = np.reshape(got, want.shape)
        if tiles == 1:
            # one tile is the whole Zbar1: the same product, with the same bits
            np.testing.assert_array_equal(got, want)
        else:
            assert np.all(np.abs(got - want) <= bounds[dense](m, rows))


def test_a_long_input_with_a_narrow_band_holds_no_dense_zbar1():
    # n = 20000, f = 2: a dense Zbar1 would take 3.2 GB, the band tiles take
    # n * (128 + 2f - 2) floats, 21 MB
    n, f = 20000, 2
    spec = ConvSpec(n, f)
    rng = np.random.default_rng(12)
    band, z2 = rng.uniform(-1, 1, spec.band_size), rng.uniform(-1, 1, n)
    X = rng.uniform(-1, 1, size=(3, n))
    tracemalloc.start()
    try:
        m = QuadraticModel(band, z2, spec, _RELU)
        results = [[predict(m, x) for x in X], predict_batch(m, X),
                   [sensitivity(m, x) for x in X], sensitivity_batch(m, X)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    # the band's formulas: x' Zbar1 x from the band products of vecf, and
    # Zbar1 x from its two diagonals
    d0, d1 = band[:n], band[n:]
    p = _RELU
    for x, *got in zip(X, *results):
        quad = core.vecf(x, spec) @ to_weight_vector(m)[: spec.band_size]
        y = p.a * quad + p.b * (z2 @ x) + p.c * d0.sum()
        zx = d0 * x
        zx[:-1] += d1 * x[1:]
        zx[1:] += d1 * x[:-1]
        g = 2 * p.a * zx + p.b * z2
        for value, want in zip(got, (y, y, g, g)):
            assert np.linalg.norm(value - want) <= 1e-12 * np.linalg.norm(want)


def test_tile_width_follows_the_rows_of_the_block(monkeypatch):
    # one row takes the 128-column tiles, two or more rows the 64-column ones
    widths = []
    matmul = np.matmul

    def recorded(a, b, out):
        widths.append(b.shape[1])
        return matmul(a, b, out=out)

    monkeypatch.setattr(model_module.np, "matmul", recorded)
    rng = np.random.default_rng(8)
    m = _random_model(rng, n=200, f=3)
    X = rng.uniform(-1, 1, size=(2, 200))
    calls = [(lambda: predict(m, X[0]), [128, 72]),
             (lambda: sensitivity(m, X[0]), [128, 72]),
             (lambda: predict_batch(m, X[:1]), [128, 72]),
             (lambda: predict_batch(m, X), [64, 64, 64, 8]),
             (lambda: sensitivity_batch(m, X), [64, 64, 64, 8])]
    for call, want in calls:
        widths.clear()
        call()
        assert widths == want


def test_band_structure_is_preserved():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = _random_model(rng)
        Z = dense_zbar1(m)
        r, c = np.indices(Z.shape)
        assert np.all(Z[np.abs(r - c) >= m.spec.f] == 0.0)
        np.testing.assert_array_equal(Z, Z.T)


def test_prediction_is_exactly_quadratic_along_lines():
    rng = np.random.default_rng(8)
    h = 0.37
    for _ in range(20):
        m = _random_model(rng)
        x = rng.uniform(-1, 1, size=m.spec.n)
        d = rng.uniform(-1, 1, size=m.spec.n)
        vals = np.array([predict(m, x + t * d) for t in (0.0, h, 2 * h, 3 * h)])
        third = vals[3] - 3 * vals[2] + 3 * vals[1] - vals[0]
        assert abs(third) <= 1e-9 * max(1.0, np.abs(vals).max())


def test_trace_tie_holds_by_construction():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = _random_model(rng)
        assert m.zbar4 == float(np.trace(dense_zbar1(m)))


def test_from_dense_rejects_out_of_band():
    Z = np.zeros((4, 4))
    Z[0, 3] = Z[3, 0] = 1.0
    with pytest.raises(ValueError, match="bandwidth"):
        QuadraticModel.from_dense(Z, np.zeros(4), ConvSpec(4, 2), _RELU)


def test_from_dense_rejects_asymmetric():
    Z = np.zeros((3, 3))
    Z[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticModel.from_dense(Z, np.zeros(3), ConvSpec(3, 2), _RELU)


def _models_identical(a, b):
    return (
        np.array_equal(a.zbar1_band, b.zbar1_band)
        and np.array_equal(a.zbar2, b.zbar2)
        and a.spec == b.spec
        and a.params == b.params
    )


def test_array_holding_dataclasses_compare_by_identity():
    # comparing ndarray fields elementwise would raise "truth value of an
    # array is ambiguous"; these classes compare by identity instead
    from quadconv import Dataset, FitResult, SolveReport, TimeSeries

    rng = np.random.default_rng(12)
    m1 = _random_model(rng, n=5, f=3)
    m2 = QuadraticModel(m1.zbar1_band, m1.zbar2, m1.spec, m1.params)
    assert _models_identical(m1, m2)
    assert (m1 == m2) is False
    assert (m1 == m1) is True
    assert m1 != m2
    data = Dataset(np.ones((2, 3)), np.ones(2))
    assert (data == Dataset(data.inputs, data.labels)) is False
    ts = TimeSeries({"u": [1.0, 2.0]})
    assert (ts == TimeSeries(ts.channels)) is False
    assert SolveReport.__eq__ is object.__eq__
    assert FitResult.__eq__ is object.__eq__


def test_serialize_round_trip_zero_model():
    spec = ConvSpec(3, 2)
    m = reconstruct(np.zeros(spec.n_weights), spec, _RELU)
    back = deserialize(serialize(m))
    assert _models_identical(back, m)


def test_serialize_round_trip_random_models_bit_exact():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        m = _random_model(rng)
        back = deserialize(serialize(m))
        assert np.array_equal(back.zbar1_band, m.zbar1_band)
        assert np.array_equal(back.zbar2, m.zbar2)
        assert back.spec == m.spec
        assert back.params == m.params


def _random_doubles(rng, size):
    # any finite float64: random sign, exponent and mantissa, with zeros,
    # subnormals and the extremes mixed in
    bits = rng.integers(0, 2**63 - 2**52, size=size, dtype=np.int64)  # below inf
    bits |= rng.integers(0, 2, size=size, dtype=np.int64) << 63
    values = bits.view(np.float64)
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1.0]
    picks = rng.random(size) < 0.2
    values[picks] = rng.choice(special, size=int(picks.sum()))
    return values


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_serialize_round_trip_is_bit_exact_for_random_specs():
    rng = np.random.default_rng(14)
    overflowed = 0
    shapes = [(1, 1), (2, 1), (2, 2), (7, 1), (7, 7)]
    shapes += [(n, int(rng.integers(1, n + 1))) for n in rng.integers(1, 40, size=195)]
    for n, f in shapes:
        spec = ConvSpec(int(n), int(f))
        a = float(np.exp(rng.uniform(-30, 30)))
        c = float(np.exp(rng.uniform(-30, 30)))
        b = float(rng.choice([-1.0, 1.0]) * 2.0 * np.sqrt(a * c) * np.exp(rng.uniform(0, 5)))
        if b * b - 4.0 * a * c < 0:
            b = 2.0 * b  # |b| = 2 sqrt(ac) can round below the discriminant's zero
        band = _random_doubles(rng, spec.band_size)
        z2 = _random_doubles(rng, spec.n)
        params = ActivationParams(a, b, c)
        # the derived trace zbar4 of an extreme band can overflow, and such a
        # model is refused
        with np.errstate(over="ignore"):
            overflows = not np.isfinite(band[: spec.n].sum())
        if overflows:
            with pytest.raises(NonFiniteInput, match="trace"):
                QuadraticModel(band, z2, spec, params)
            overflowed += 1
            continue
        m = QuadraticModel(band, z2, spec, params)
        back = deserialize(serialize(m))
        assert back.spec == m.spec
        for field in ("zbar1_band", "zbar2"):
            np.testing.assert_array_equal(_bits(getattr(back, field)), _bits(getattr(m, field)))
        np.testing.assert_array_equal(_bits(dense_zbar1(back)), _bits(dense_zbar1(m)))
        for value in ("a", "b", "c"):
            assert _bits(getattr(back.params, value)) == _bits(getattr(m.params, value))
        # zbar4 is not stored but derived again from the same band
        assert _bits(back.zbar4) == _bits(m.zbar4)
    assert 0 < overflowed < len(shapes)


def test_serialize_uses_17_significant_digits():
    spec = ConvSpec(1, 1)
    m = QuadraticModel(np.array([0.1]), np.array([2.0]), spec, _RELU)
    text = serialize(m)
    assert "0.10000000000000001" in text
    assert "zbar4" not in text


def test_serialize_rejects_non_finite_values():
    spec = ConvSpec(2, 1)
    for band, z2 in [([1.0, np.nan], [0.0, 0.0]), ([1.0, 1.0], [np.inf, 0.0])]:
        with pytest.raises(ValueError, match="non-finite"):
            serialize(QuadraticModel(np.array(band), np.array(z2), spec, _RELU))


def test_serialize_refuses_an_activation_that_deserialize_would():
    # b**2 - 4ac = -3: a model can hold it, a model file cannot
    m = reconstruct(np.arange(1.0, 9.0), ConvSpec(3, 2), ActivationParams(1, 1, 1))
    with pytest.raises(InvalidActivation, match="discriminant"):
        serialize(m)


def test_zbar1_is_read_only():
    # the band, zbar2 and every band tile, wide or block
    m = _random_model(np.random.default_rng(11), n=5, f=2)
    for a in (m.zbar1_band, m.zbar2, *(T for *_, T in m.zbar1_tiles + m.zbar1_block_tiles)):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_deserialize_reports_json_location():
    with pytest.raises(MalformedModelFile, match="line 1"):
        deserialize("{oops")


@pytest.mark.parametrize(
    "mutation,fragment",
    [
        (lambda d: d.pop("zbar2"), "missing"),
        (lambda d: d.__setitem__("extra", 1), "unexpected"),
        (lambda d: d.__setitem__("zbar1_band", [1.0, 2.0]), "zbar1_band"),
        (lambda d: d.__setitem__("zbar2", [1.0]), "zbar2"),
        (lambda d: d.__setitem__("f", 9), "n"),
        (lambda d: d.__setitem__("a", -1.0), "activation"),
        (lambda d: d.__setitem__("b", True), "number"),
        (lambda d: d.__setitem__("n", 2.5), "integer"),
        (lambda d: d.__setitem__("zbar2", [1.0, "x"]), "not a number"),
        # a mutation that returns text is the document: a field named twice,
        # each value valid alone, where JSON would keep the last
        (lambda d: json.dumps(d)[:-1] + ', "zbar2": [7.0, 8.0]}', "'zbar2' appears twice"),
    ],
)
def test_deserialize_rejects_malformed_documents(mutation, fragment):
    spec = ConvSpec(2, 2)
    m = reconstruct(np.arange(1.0, 6.0), spec, _RELU)
    doc = json.loads(serialize(m))
    text = mutation(doc)
    with pytest.raises(MalformedModelFile, match=fragment):
        deserialize(text if isinstance(text, str) else json.dumps(doc))


def test_deserialize_rejects_non_finite_numbers():
    text = serialize(reconstruct(np.zeros(5), ConvSpec(2, 2), _RELU))
    with pytest.raises(MalformedModelFile, match="non-finite|finite"):
        deserialize(text.replace('"a": 0.0937', '"a": NaN'))
    with pytest.raises(MalformedModelFile, match="finite"):
        deserialize(text.replace('"a": 0.0937', '"a": 1e999'))


def test_deserialize_optional_zbar4_checked_against_trace():
    spec = ConvSpec(2, 2)
    m = reconstruct(np.array([1.0, 2.0, 4.0, 5.0, 6.0]), spec, _RELU)
    text = serialize(m)
    ok = text.rstrip().rstrip("}") + ', "zbar4": 3.0}\n'
    assert _models_identical(deserialize(ok), m)
    bad = text.rstrip().rstrip("}") + ', "zbar4": 3.5}\n'
    with pytest.raises(MalformedModelFile, match="trace"):
        deserialize(bad)
