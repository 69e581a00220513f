import numpy as np
import pytest

from quadconv import (
    ActivationParams,
    ConvSpec,
    Dataset,
    DimensionMismatch,
    activation_eval,
    fit,
    predict,
    predict_batch,
    to_weight_vector,
)
from quadconv.oracle import (
    NeuronSet,
    PatchModelSet,
    aggregate,
    dense_qnn_fit,
    eval_neuron_sum,
    eval_patch_model,
    extract_patches,
    induced_patch_models,
    random_neuron_set,
    random_patch_model_set,
)

_RELU = ActivationParams(0.0937, 0.5, 0.4688)


def test_extract_patches_stride_one():
    patches = extract_patches([1.0, 2.0, 3.0, 4.0], ConvSpec(4, 2))
    assert len(patches) == 3
    np.testing.assert_array_equal(patches, [[1, 2], [2, 3], [3, 4]])


def test_extract_patches_full_filter():
    x = np.array([0.5, -1.0, 2.0])
    patches = extract_patches(x, ConvSpec(3, 3))
    assert len(patches) == 1
    np.testing.assert_array_equal(patches[0], x)


def test_extract_patches_count():
    assert len(extract_patches(np.zeros(12), ConvSpec(12, 5))) == 8


def test_extract_patches_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        extract_patches(np.zeros(5), ConvSpec(4, 2))


def test_eval_patch_model_zero_blocks():
    spec = ConvSpec(5, 2)
    s = PatchModelSet(np.zeros((4, 2, 2)), np.zeros((4, 2)), _RELU)
    assert eval_patch_model(s, np.ones(5)) == 0.0


def test_single_patch_equals_aggregated_model():
    rng = np.random.default_rng(0)
    spec = ConvSpec(4, 4)
    s = random_patch_model_set(spec, _RELU, rng)
    x = rng.uniform(-1, 1, size=4)
    m = aggregate(s)
    np.testing.assert_array_equal(m.zbar1, s.z1[0])
    np.testing.assert_array_equal(m.zbar2, s.z2[0])
    assert eval_patch_model(s, x) == pytest.approx(predict(m, x), rel=1e-12)


def test_patch_aggregation_equivalence_randomized():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(1, 17))
        f = int(rng.integers(1, n + 1))
        spec = ConvSpec(n, f)
        s = random_patch_model_set(spec, _RELU, rng)
        x = rng.uniform(-1, 1, size=n)
        direct = eval_patch_model(s, x)
        via_model = predict(aggregate(s), x)
        assert abs(direct - via_model) <= 1e-10 * max(1.0, abs(direct))


def test_aggregate_overlap_counts_identity_patches():
    # identity per-patch blocks make the aggregated diagonal count how many
    # patches cover each input position: 1, 2, ..., plateau, ..., 2, 1
    spec = ConvSpec(5, 2)
    s = PatchModelSet(np.tile(np.eye(2), (4, 1, 1)), np.zeros((4, 2)), _RELU)
    m = aggregate(s)
    np.testing.assert_array_equal(np.diag(m.zbar1), [1, 2, 2, 2, 1])

    spec12 = ConvSpec(12, 5)
    s12 = PatchModelSet(np.tile(np.eye(5), (8, 1, 1)), np.zeros((8, 5)), _RELU)
    expected = [min(i + 1, 8, 12 - i, 5) for i in range(12)]
    np.testing.assert_array_equal(np.diag(aggregate(s12).zbar1), expected)


def test_aggregate_trace_is_sum_of_patch_traces():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 14))
        f = int(rng.integers(1, n + 1))
        s = random_patch_model_set(ConvSpec(n, f), _RELU, rng)
        total = float(np.trace(s.z1, axis1=1, axis2=2).sum())
        assert aggregate(s).zbar4 == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_eval_neuron_sum_zero_alpha():
    ns = NeuronSet(np.ones((2, 2)), np.zeros((2, 3)))
    assert eval_neuron_sum(ns, _RELU, np.ones(4)) == 0.0


def test_eval_neuron_sum_single_neuron():
    # one filter e1 over a single full-length patch applies sigma to x_1
    ns = NeuronSet(np.array([[1.0, 0.0, 0.0]]), np.array([[1.0]]))
    x = np.array([0.7, -0.3, 0.2])
    assert eval_neuron_sum(ns, _RELU, x) == pytest.approx(
        activation_eval(_RELU, 0.7), rel=1e-15
    )


def test_neuron_sum_matches_induced_patch_models():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 17))
        f = int(rng.integers(1, n + 1))
        spec = ConvSpec(n, f)
        ns = random_neuron_set(spec, int(rng.integers(1, 5)), rng)
        s = induced_patch_models(ns, _RELU)
        x = rng.uniform(-1, 1, size=n)
        direct = eval_neuron_sum(ns, _RELU, x)
        assert abs(direct - eval_patch_model(s, x)) <= 1e-10 * max(1.0, abs(direct))
        assert abs(direct - predict(aggregate(s), x)) <= 1e-10 * max(1.0, abs(direct))


def test_dense_fit_matches_full_filter_pipeline():
    rng = np.random.default_rng(4)
    n = 5
    spec = ConvSpec(n, n)
    N = 3 * spec.n_weights
    data = Dataset(rng.uniform(-1, 1, size=(N, n)), rng.uniform(-1, 1, size=N))
    pipeline_theta = to_weight_vector(fit(data, spec, _RELU).model)
    oracle_theta = to_weight_vector(dense_qnn_fit(data, _RELU))
    diff = np.linalg.norm(pipeline_theta - oracle_theta)
    assert diff <= 1e-8 * max(1.0, np.linalg.norm(pipeline_theta))


def test_dense_fit_single_sample_zero_label():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=3)
    data = Dataset(x[None, :], np.zeros(1))
    m = dense_qnn_fit(data, _RELU)
    assert abs(predict(m, x)) <= 1e-9


def test_dense_fit_recovers_planted_quadratic():
    # target y = x'Qx + r'x + s is representable only when s matches the
    # trace tie: s = c * trace(Q) / a
    rng = np.random.default_rng(6)
    n = 4
    Q = rng.uniform(-1, 1, size=(n, n))
    Q = 0.5 * (Q + Q.T)
    r = rng.uniform(-1, 1, size=n)
    s = _RELU.c * np.trace(Q) / _RELU.a

    def truth(X):
        return np.einsum("ij,jk,ik->i", X, Q, X) + X @ r + s

    spec = ConvSpec(n, n)
    X_train = rng.uniform(-1, 1, size=(3 * spec.n_weights, n))
    m = dense_qnn_fit(Dataset(X_train, truth(X_train)), _RELU)
    X_test = rng.uniform(-1, 1, size=(50, n))
    residual = predict_batch(m, X_test) - truth(X_test)
    assert np.abs(residual).max() <= 1e-8
