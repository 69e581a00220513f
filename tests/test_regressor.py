import dataclasses
import tracemalloc

import numpy as np
import pytest

from quadconv import (
    ActivationParams,
    ConvSpec,
    Dataset,
    DimensionMismatch,
    NonFiniteInput,
    band_index_map,
    build_regressor,
    predict_batch,
    narx_window,
    reconstruct,
    synth_narx,
)
from quadconv.regressor import _RegressorRows


def _single_row(x, spec, params):
    data = Dataset(np.asarray(x, float)[None, :], np.zeros(1))
    return build_regressor(data, spec, params)[0]


def test_zero_input_row_is_constant_block():
    params = ActivationParams(0.0937, 0.5, 0.4688)
    spec = ConvSpec(3, 2)
    row = _single_row([0.0, 0.0, 0.0], spec, params)
    expected = np.concatenate([np.full(3, 0.4688), np.zeros(spec.band_size - 3), np.zeros(3)])
    np.testing.assert_array_equal(row, expected)


def test_scalar_feature_row():
    params = ActivationParams(0.25, -1.5, 2.0)
    t = 1.7
    row = _single_row([t], ConvSpec(1, 1), params)
    np.testing.assert_allclose(row, [0.25 * t * t + 2.0, -1.5 * t], rtol=1e-15)


def test_hand_expanded_row_n2_f2():
    row = _single_row([1.0, 1.0], ConvSpec(2, 2), ActivationParams(1, 1, 1))
    np.testing.assert_array_equal(row, [2.0, 2.0, 1.0, 1.0, 1.0])


def test_rows_match_model_predictions():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(1, 10))
        f = int(rng.integers(1, n + 1))
        spec = ConvSpec(n, f)
        params = ActivationParams(*rng.uniform(0.1, 2.0, size=3))
        data = Dataset(rng.uniform(-2, 2, size=(6, n)), rng.uniform(-1, 1, size=6))
        H = build_regressor(data, spec, params)
        theta = rng.uniform(-1, 1, size=spec.n_weights)
        model = reconstruct(theta, spec, params)
        via_row = H @ theta
        via_model = predict_batch(model, data.inputs)
        np.testing.assert_allclose(via_row, via_model, rtol=1e-12, atol=1e-12)


def test_quadratic_block_decomposes_linearly_in_a_and_c():
    rng = np.random.default_rng(3)
    spec = ConvSpec(4, 3)
    q = spec.band_size
    data = Dataset(rng.uniform(-1, 1, size=(5, 4)), np.zeros(5))

    def qblock(a, c):
        return build_regressor(data, spec, ActivationParams(a, 0.7, c))[:, :q]

    base_a = (qblock(2.0, 1.0) - qblock(1.0, 1.0)) / 1.0
    base_c = (qblock(1.0, 2.0) - qblock(1.0, 1.0)) / 1.0
    for a, c in [(0.3, 0.9), (1.7, 0.2)]:
        np.testing.assert_allclose(qblock(a, c), a * base_a + c * base_c, rtol=1e-12, atol=1e-13)
    # the parameter-free pieces: products of features, and ones on the diagonal block
    ones = np.zeros((5, q))
    ones[:, :4] = 1.0
    np.testing.assert_allclose(base_c, ones, atol=1e-14)


def test_linear_block_scales_with_b():
    rng = np.random.default_rng(4)
    spec = ConvSpec(3, 2)
    data = Dataset(rng.uniform(-1, 1, size=(4, 3)), np.zeros(4))
    h1 = build_regressor(data, spec, ActivationParams(1.0, 0.5, 1.0))
    h2 = build_regressor(data, spec, ActivationParams(1.0, 1.5, 1.0))
    np.testing.assert_allclose(h2[:, -3:], 3.0 * h1[:, -3:], rtol=1e-14)


def _assembly_cases():
    # 24 geometries with random activations and 1 to 49 feature rows
    rng = np.random.default_rng(12)
    geometries = [(1, 1), (9, 1), (9, 9), (40, 5)]
    geometries += [(n, int(rng.integers(1, n + 1))) for n in rng.integers(1, 30, size=20)]
    for n, f in geometries:
        params = ActivationParams(*rng.uniform(0.1, 2.0, size=3))
        yield ConvSpec(n, f), params, rng.standard_normal((int(rng.integers(1, 50)), n))


def test_assembly_matches_gathered_band_bit_for_bit():
    # H assembled independently by gathering the band index map's (row, col)
    # pairs; the in-place per-diagonal fill must reproduce it exactly
    for spec, params, X in _assembly_cases():
        n = spec.n
        m = band_index_map(spec)
        quad = params.a * (X[:, m.rows] * X[:, m.cols])
        quad[:, :n] += params.c
        expected = np.hstack([quad, params.b * X])
        H = build_regressor(Dataset(X, np.zeros(X.shape[0])), spec, params)
        np.testing.assert_array_equal(H, expected)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_row_blocks_match_build_regressor_bit_for_bit():
    # the blocks a fit walks are the rows of the held H, whatever the block
    # size; each is written into a column-major view with room to spare, as
    # the QR walk's stacked buffer is
    for spec, params, X in _assembly_cases():
        data = Dataset(X, np.zeros(X.shape[0]))
        H = build_regressor(data, spec, params)
        source = _RegressorRows(data, spec, params)
        N, p = H.shape
        assert source.shape == (N, p)
        for size in (1, 7, N):
            for start in range(0, N, size):
                rows = slice(start, min(N, start + size))
                m = rows.stop - rows.start
                out = np.full((m + 2, p + 1), np.nan, order="F")[2:, :p]
                assert source.fill_rows(rows, out) is out
                assert np.array_equal(_bits(out), _bits(H[rows]))


def test_assembly_allocates_little_beyond_h():
    rng = np.random.default_rng(13)
    data = Dataset(rng.standard_normal((4000, 30)), np.zeros(4000))
    spec = ConvSpec(30, 6)
    band_index_map(spec)  # cached; keep its allocation out of the measurement
    tracemalloc.start()
    try:
        H = build_regressor(data, spec, ActivationParams(0.5, 1.0, 0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * H.nbytes


def test_build_regressor_rejects_feature_mismatch():
    data = Dataset(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatch):
        build_regressor(data, ConvSpec(4, 2), ActivationParams(1, 1, 1))


def test_dataset_validation():
    with pytest.raises(DimensionMismatch):
        Dataset(np.ones(3), np.ones(3))  # 1-D inputs
    with pytest.raises(DimensionMismatch):
        Dataset(np.ones((3, 2)), np.ones(2))  # label count
    with pytest.raises(NonFiniteInput):
        Dataset(np.array([[1.0, np.nan]]), np.ones(1))
    with pytest.raises(NonFiniteInput):
        Dataset(np.ones((1, 2)), np.array([np.inf]))


def test_dataset_is_read_only():
    windowed = narx_window(synth_narx(40, seed=0), "u", "y", 3)
    for data in (Dataset(np.ones((2, 2)), np.zeros(2)), windowed):
        for name in ("features", "labels", "inputs"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(data, name, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            data.inputs[0, 0] = 5.0
        with pytest.raises(ValueError):
            data.labels[0] = 5.0
    # the windowed dataset built its inputs once and holds them
    assert windowed.features is windowed.inputs
    assert windowed.inputs.shape == (37, 6)
