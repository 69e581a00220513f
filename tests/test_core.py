import tracemalloc

import numpy as np
import pytest

from quadconv import (
    ActivationParams,
    ConvSpec,
    DimensionMismatch,
    InvalidActivation,
    activation_eval,
    band_counts,
    band_index_map,
    validate_activation,
    vecf,
)


def test_validate_activation_relu_mimic():
    p = validate_activation(0.0937, 0.5, 0.4688)
    assert p == ActivationParams(0.0937, 0.5, 0.4688)
    assert p.discriminant == pytest.approx(0.07429376, rel=1e-12)
    assert p.discriminant > 0


def test_validate_activation_boundary_discriminant():
    p = validate_activation(1.0, 2.0, 1.0)
    assert p.discriminant == 0.0


def test_validate_activation_accepts_a_discriminant_whose_products_both_overflow():
    # b**2 and 4ac are both inf, and b**2 - 4ac = 1e600 - 4e400 > 0
    assert validate_activation(1e200, 1e300, 1e200).discriminant == np.inf
    assert ActivationParams(1e200, -2e200, 1e200).discriminant == 0.0


@pytest.mark.parametrize(
    "a,b,c,fragment",
    [
        (1.0, 1.0, 1.0, "4ac"),
        (0.0, 1.0, 1.0, "a must be"),
        (-1.0, 3.0, 1.0, "a must be"),
        (1.0, 3.0, 0.0, "c must be"),
        (1.0, 3.0, -2.0, "c must be"),
        # an infinite b makes the discriminant +inf, which is >= 0
        (1.0, float("inf"), 1.0, "must be finite"),
        (1.0, float("-inf"), 1.0, "must be finite"),
        (float("nan"), 1.0, 1.0, "must be finite"),
        (1.0, 3.0, float("inf"), "must be finite"),
        # 1e616 - 4e616 < 0 with both products past the float range
        (1e308, 1e308, 1e308, "4ac must be >= 0, got -inf for"),
    ],
)
def test_validate_activation_rejections(a, b, c, fragment):
    with pytest.raises(InvalidActivation, match=fragment.replace("4ac", "4ac")):
        validate_activation(a, b, c)


def test_activation_eval_values():
    p = ActivationParams(0.0937, 0.5, 0.4688)
    assert activation_eval(p, 0.0) == 0.4688
    assert activation_eval(ActivationParams(1, 0, 0), 3.0) == 9.0
    assert activation_eval(p, 1.0) == pytest.approx(1.0625, rel=1e-15)


def test_activation_eval_broadcasts():
    p = ActivationParams(2.0, -1.0, 0.5)
    z = np.array([0.0, 1.0, -2.0])
    np.testing.assert_allclose(activation_eval(p, z), 2 * z * z - z + 0.5)


def test_convspec_derived_quantities():
    spec = ConvSpec(12, 5)
    assert spec.patch_count == 8
    assert spec.band_size == (2 * 12 - 5 + 1) * 5 // 2
    assert spec.n_weights == spec.band_size + 12


def test_convspec_rejects_bad_filter():
    with pytest.raises(ValueError):
        ConvSpec(3, 0)
    with pytest.raises(ValueError):
        ConvSpec(3, 4)
    with pytest.raises(ValueError):
        ConvSpec(0, 0)


def test_vecf_diagonal_only():
    out = vecf([3.0, -2.0], ConvSpec(2, 1))
    np.testing.assert_array_equal(out, [9.0, 4.0])


def test_vecf_two_diagonals():
    out = vecf([1.0, 2.0, 3.0], ConvSpec(3, 2))
    np.testing.assert_array_equal(out, [1, 4, 9, 2, 6])


def test_vecf_full_band():
    spec = ConvSpec(3, 3)
    out = vecf([1.0, 2.0, 3.0], spec)
    assert spec.band_size == 6
    np.testing.assert_array_equal(out, [1, 4, 9, 2, 6, 3])


def test_vecf_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        vecf([1.0, 2.0], ConvSpec(3, 2))


def test_vecf_diagonal_block_is_squares():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        f = int(rng.integers(1, n + 1))
        x = rng.uniform(-2, 2, size=n)
        out = vecf(x, ConvSpec(n, f))
        np.testing.assert_array_equal(out[:n], x * x)


def test_vecf_full_filter_enumerates_all_pairs_once():
    for n in range(1, 9):
        spec = ConvSpec(n, n)
        m = band_index_map(spec)
        pairs = m.pairs()
        assert len(pairs) == n * (n + 1) // 2
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == {(i, j) for i in range(n) for j in range(i, n)}


def test_band_index_map_ordering_and_bounds():
    spec = ConvSpec(5, 3)
    m = band_index_map(spec)
    diffs = m.cols - m.rows
    # diagonal-major: 0 five times, then 1 four times, then 2 three times
    np.testing.assert_array_equal(diffs, [0] * 5 + [1] * 4 + [2] * 3)
    assert (diffs >= 0).all() and (diffs <= spec.f - 1).all()
    np.testing.assert_array_equal(m.rows[:5], np.arange(5))
    np.testing.assert_array_equal(m.rows[5:9], np.arange(4))
    assert m.diagonals == (slice(0, 5), slice(5, 9), slice(9, 12))
    for d, s in enumerate(m.diagonals):
        assert (diffs[s] == d).all()


def test_band_index_map_length_exhaustive():
    for n in range(1, 65):
        for f in range(1, n + 1):
            spec = ConvSpec(n, f)
            assert len(band_index_map(spec)) == spec.band_size


def test_band_index_map_keeps_only_its_diagonal_slices():
    # the cached map holds f slices; its row and column indices (2q int64,
    # 31.9 MB at n = 20000 and f = 100) are built only when read
    band_index_map.cache_clear()
    tracemalloc.start()
    try:
        m = band_index_map(ConvSpec(20000, 100))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20
    assert len(m) == m.spec.band_size
    small = band_index_map(ConvSpec(7, 3))
    assert not small.rows.flags.writeable and not small.cols.flags.writeable


def test_band_counts_examples():
    assert band_counts(ConvSpec(12, 5)) == (160, 62)
    assert band_counts(ConvSpec(3, 3)) == (9, 9)
    # f = 1 gives 2n on both sides: K = n patches with 2 unique weights each
    assert band_counts(ConvSpec(2, 1)) == (4, 4)


def test_band_counts_banded_never_exceeds_cqnn():
    for n in range(2, 65):
        for f in range(2, n + 1):
            counts = band_counts(ConvSpec(n, f))
            assert counts.banded_weights <= counts.cqnn_weights, (n, f)
