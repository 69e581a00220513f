import tracemalloc

import numpy as np
import pytest

from quadconv import (
    ActivationParams,
    ConvSpec,
    Dataset,
    DimensionMismatch,
    NegativeRegularizer,
    NonFiniteInput,
    SolveStrategy,
    build_regressor,
    narx_window,
    solve_path,
    solve_ridge,
    synth_narx,
)
from quadconv import core, solver
from quadconv.regressor import _RegressorRows


def _narx_system():
    # noise-free windowed NARX rows: 595 x 37 and numerically rank deficient
    data = narx_window(synth_narx(600, seed=9), "u", "y", 5)
    H = build_regressor(data, ConvSpec(10, 3), ActivationParams(0.0937, 0.5, 0.4688))
    return H, data.labels


def _lstsq(H, y):
    theta, _, rank, _ = np.linalg.lstsq(
        H, y, rcond=np.finfo(float).eps * max(H.shape)
    )
    return theta, rank


def _random_system(rng, n, f, n_samples=None):
    spec = ConvSpec(n, f)
    N = n_samples if n_samples is not None else 2 * spec.n_weights + 5
    data = Dataset(rng.uniform(-1, 1, size=(N, n)), rng.uniform(-1, 1, size=N))
    H = build_regressor(data, spec, ActivationParams(0.0937, 0.5, 0.4688))
    return H, data.labels


def test_identity_system_returns_labels():
    H = np.eye(5)
    y = np.array([3.0, -1.0, 0.5, 2.0, 4.0])
    rep = solve_ridge(H, y, 0.0)
    np.testing.assert_allclose(rep.theta, y, rtol=1e-12)
    assert rep.solve_strategy == SolveStrategy.CHOLESKY
    assert not rep.rank_deficient
    assert rep.residual_norm < 1e-12


def test_reported_weights_are_read_only():
    rep = solve_ridge(np.eye(5), np.ones(5), 0.0)
    assert rep.theta.shape == (5,)
    with pytest.raises(ValueError, match="read-only"):
        rep.theta[0] = 0.0


def test_rank_deficient_minimum_norm_solution():
    # features x in {-1, 0, 1} with a = c = 1, b = 0: the linear column is
    # zero, so the quadratic column [2, 1, 2] alone fits y = [1, 0, 1];
    # the stationary point of 2*(2t - 1)^2 + t^2 is t = 4/9
    H = np.array([[2.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    y = np.array([1.0, 0.0, 1.0])
    rep = solve_ridge(H, y, 0.0)
    np.testing.assert_allclose(rep.theta, [4.0 / 9.0, 0.0], rtol=1e-12, atol=1e-15)
    assert rep.rank_deficient
    assert rep.solve_strategy == SolveStrategy.PSEUDOINVERSE


def test_zero_labels_give_zero_weights():
    rng = np.random.default_rng(0)
    H, _ = _random_system(rng, 3, 2)
    rep = solve_ridge(H, np.zeros(H.shape[0]), 0.0)
    np.testing.assert_array_equal(rep.theta, np.zeros(H.shape[1]))
    assert rep.residual_norm == 0.0


def test_ridge_scalar_closed_form():
    # one active column: theta_1 = (2 + beta)^-1 * 2 = 0.5 at beta = 2
    H = np.array([[1.0, 0.0], [1.0, 0.0]])
    rep = solve_ridge(H, np.array([1.0, 1.0]), 2.0)
    np.testing.assert_allclose(rep.theta, [0.5, 0.0], rtol=1e-14, atol=1e-15)


def test_ridge_zero_equals_plain_ls():
    rng = np.random.default_rng(1)
    H, y = _random_system(rng, 4, 2)
    a = solve_ridge(H, y, 0.0).theta
    b = np.linalg.lstsq(H, y, rcond=None)[0]
    np.testing.assert_allclose(a, b, rtol=1e-10)


def test_ridge_huge_beta_shrinkage_bound():
    rng = np.random.default_rng(2)
    H, y = _random_system(rng, 4, 3)
    beta = 1e12
    rep = solve_ridge(H, y, beta)
    bound = np.linalg.norm(H.T @ y) / beta
    assert np.linalg.norm(rep.theta) <= bound * (1 + 1e-12)


def test_ridge_rejects_negative_beta():
    H = np.eye(5)
    with pytest.raises(NegativeRegularizer):
        solve_ridge(H, np.zeros(5), -0.5)


def test_non_finite_inputs_rejected():
    H = np.eye(5)
    y = np.zeros(5)
    with pytest.raises(NonFiniteInput):
        solve_ridge(H, np.array([1.0, np.nan, 0, 0, 0]), 0.0)
    bad = np.eye(5)
    bad[3, 3] = np.inf
    with pytest.raises(NonFiniteInput):
        solve_ridge(bad, y, 0.0)
    for beta in (np.nan, np.inf):
        with pytest.raises(NonFiniteInput):
            solve_ridge(H, y, beta)


def test_labels_whose_h_y_norm_overflows_are_rejected():
    # y'y = 100 L^2 is finite, but ||H'y||^2 = 2 (100 L)^2 is not
    H, y = np.ones((100, 2)), np.full(100, 5e152)
    assert np.isfinite(y @ y)
    with pytest.raises(NonFiniteInput, match="the norm of H'y overflows"):
        solve_ridge(H, y, 0.0)


def test_label_length_mismatch():
    H = np.eye(5)
    with pytest.raises(DimensionMismatch):
        solve_ridge(H, np.zeros(4), 0.0)


def test_normal_equation_stationarity_full_rank():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        f = int(rng.integers(1, n + 1))
        H, y = _random_system(rng, n, f)
        rep = solve_ridge(H, y, 0.0)
        g = H.T @ (y - H @ rep.theta)
        assert np.linalg.norm(g) <= 1e-8 * max(1.0, np.linalg.norm(H.T @ y))
        assert not rep.rank_deficient


def test_perturbations_never_decrease_loss():
    rng = np.random.default_rng(6)
    H, y = _random_system(rng, 5, 3)
    rep = solve_ridge(H, y, 0.0)
    theta = rep.theta
    loss0 = np.sum((H @ theta - y) ** 2)
    for _ in range(100):
        d = rng.standard_normal(theta.size)
        d /= np.linalg.norm(d)
        loss1 = np.sum((H @ (theta + 1e-3 * d) - y) ** 2)
        assert loss1 >= loss0 - 1e-12


def test_ridge_norm_monotone_in_beta():
    rng = np.random.default_rng(7)
    H, y = _random_system(rng, 5, 2)
    norms = [
        np.linalg.norm(solve_ridge(H, y, beta).theta)
        for beta in (0.0, 0.1, 1.0, 10.0, 100.0)
    ]
    for lo, hi in zip(norms, norms[1:]):
        assert hi <= lo + 1e-10


def test_ridge_normal_equations_residual():
    rng = np.random.default_rng(8)
    H, y = _random_system(rng, 4, 4)
    for beta in (0.0, 0.1, 1.0, 10.0, 100.0):
        rep = solve_ridge(H, y, beta)
        lhs = (H.T @ H + beta * np.eye(H.shape[1])) @ rep.theta - H.T @ y
        assert np.linalg.norm(lhs) <= 1e-8 * max(1.0, np.linalg.norm(H.T @ y))
        assert rep.normal_residual_norm == pytest.approx(np.linalg.norm(lhs), abs=1e-12)


def test_underdetermined_system_flags_rank_deficiency():
    rng = np.random.default_rng(9)
    spec = ConvSpec(4, 2)
    data = Dataset(rng.uniform(-1, 1, size=(3, 4)), rng.uniform(-1, 1, size=3))
    H = build_regressor(data, spec, ActivationParams(0.0937, 0.5, 0.4688))
    rep = solve_ridge(H, data.labels, 0.0)
    assert rep.rank_deficient
    assert rep.solve_strategy == SolveStrategy.PSEUDOINVERSE
    # exact interpolation is possible with more weights than samples
    assert rep.residual_norm <= 1e-10


def test_factorizable_singular_system_still_gets_minimum_norm():
    # windowed noiseless recursive data hides exact column dependencies in
    # the quadratic features; the normal matrix then factorizes numerically
    # even though it is singular, and the result must still be the flagged
    # minimum-norm solution rather than one polluted by null-space junk
    H, y = _narx_system()
    rep = solve_ridge(H, y, 0.0)
    assert rep.rank_deficient
    assert rep.solve_strategy == SolveStrategy.PSEUDOINVERSE
    reference, rank = _lstsq(H, y)
    assert rank < H.shape[1]
    np.testing.assert_allclose(rep.theta, reference, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize(
    "H",
    [np.ones(5), np.ones((5, 2, 2)), np.ones((5, 0)), np.ones((0, 3))],
    ids=["1-D", "3-D", "no columns", "no rows"],
)
def test_regressor_must_be_two_dimensional(H, capfd):
    # an empty H is refused before any walk or LAPACK call sees it
    y = np.zeros(len(H))
    for beta in (0.0, 1.0):
        for solve in (lambda: solve_ridge(H, y, beta), lambda: solve_path(H, y, [beta])):
            with pytest.raises(DimensionMismatch, match="^regressor must be a nonempty 2-D array"):
                solve()
    assert capfd.readouterr().err == ""


def _assert_same_report(a, b):
    assert a.theta.tobytes() == b.theta.tobytes()
    assert (a.beta, a.residual_norm, a.normal_residual_norm) == (
        b.beta, b.residual_norm, b.normal_residual_norm
    )
    assert (a.rank_deficient, a.solve_strategy) == (b.rank_deficient, b.solve_strategy)


@pytest.mark.parametrize("betas", [[0.0, 1.0, 10.0], [10.0, 0.0, 1e-6, 0.0, 1.0]])
def test_solve_path_matches_per_beta_solves_bit_for_bit(betas):
    H, y = _narx_system()
    reports = solve_path(H, y, betas)
    assert [r.beta for r in reports] == betas
    assert {r.solve_strategy for r in reports} == set(SolveStrategy)
    for beta, rep in zip(betas, reports):
        _assert_same_report(rep, solve_ridge(H, y, beta))


def test_solve_path_full_rank_sweep_matches_per_beta_solves():
    rng = np.random.default_rng(10)
    H, y = _random_system(rng, 6, 3)
    betas = [0.0, 0.1, 100.0]
    reports = solve_path(H, y, betas)
    assert all(r.solve_strategy == SolveStrategy.CHOLESKY for r in reports)
    for beta, rep in zip(betas, reports):
        _assert_same_report(rep, solve_ridge(H, y, beta))


def test_each_beta_factors_the_normal_matrix_restored_after_a_factor_that_stops(monkeypatch):
    # N < p: the beta = 0 factor stops at a nonpositive pivot after it has
    # overwritten part of the upper triangle, which each later beta must
    # restore before it factors
    import scipy.linalg.lapack
    from scipy.linalg import cho_factor

    rng = np.random.default_rng(0)
    H, y = _random_system(rng, 10, 3, n_samples=20)
    # the Gram walk writes H'H into the lower triangle only
    lower = solver._gram(core._Rows([H]), y, solver._Workspace())[0]
    assert (np.triu(lower, 1) == 0).all()
    gram = np.tril(lower) + np.tril(lower, -1).T
    betas = [1.0, 0.0, 1.0, 10.0]
    alone = [solve_ridge(H, y, beta) for beta in betas]
    factors = []
    dpotrf = scipy.linalg.lapack.dpotrf

    def recorded(a, **kwargs):
        upper = np.triu(a)
        c, info = dpotrf(a, **kwargs)
        factors.append((upper, np.triu(a), info))  # factored in place
        return c, info

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", recorded)
    reports = solve_path(H, y, betas)
    assert [info > 0 for _, _, info in factors] == [False, True, False, False]
    for beta, (upper, factor, info), rep, lone in zip(betas, factors, reports, alone):
        normal = gram + beta * np.eye(len(gram))
        assert (upper == np.triu(normal)).all()
        if not info:
            # bit for bit the factor of the full normal matrix
            assert (factor == np.triu(cho_factor(normal, lower=False)[0])).all()
        _assert_same_report(rep, lone)
    _assert_same_report(reports[0], reports[2])
    assert [r.solve_strategy for r in reports] == [
        SolveStrategy.CHOLESKY, SolveStrategy.PSEUDOINVERSE, SolveStrategy.CHOLESKY,
        SolveStrategy.CHOLESKY,
    ]


def test_an_accepted_cholesky_beta_forms_its_normal_residual_twice(monkeypatch):
    # once to refine theta and once to accept it; the report takes the
    # acceptance test's norm rather than forming the residual a third time
    residuals = []
    original = solver._normal_residual

    def recorded(A, diagonal, theta, rhs):
        residuals.append(original(A, diagonal, theta, rhs))
        return residuals[-1]

    monkeypatch.setattr(solver, "_normal_residual", recorded)
    rng = np.random.default_rng(16)
    H, y = _random_system(rng, 6, 3)
    rep = solve_ridge(H, y, 1.0)
    assert rep.solve_strategy == SolveStrategy.CHOLESKY
    assert len(residuals) == 2
    # the same bits as the residual of the reported theta, formed anew
    A, rhs = solver._gram(core._Rows([H]), y, solver._Workspace())
    again = original(A, A.diagonal() + 1.0, rep.theta, rhs)
    assert rep.normal_residual_norm == float(np.linalg.norm(residuals[-1]))
    assert rep.normal_residual_norm == float(np.linalg.norm(again))


def test_cholesky_sweep_holds_one_p_by_p_array(monkeypatch):
    # the Gram, its mirror image and every beta's factor share one p x p
    # array, so a sweep over a row source walked in small blocks holds that
    # array, a walk buffer and vectors
    import scipy.linalg  # noqa: F401  (loaded before tracing, as the first solve would)

    rng = np.random.default_rng(15)
    spec = ConvSpec(60, 6)
    data = Dataset(rng.uniform(-1, 1, size=(3000, spec.n)), rng.uniform(-1, 1, size=3000))
    H = _RegressorRows(data, spec, ActivationParams(0.0937, 0.5, 0.4688))
    p = spec.n_weights
    monkeypatch.setattr(core, "_WALK_BYTES", 8 * p * 50)
    assert len(solver._slices(3000, solver._walk_rows(p))) == 60
    tracemalloc.start()
    try:
        reports = solve_path(H, data.labels, [0.0, 1.0, 10.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.solve_strategy == SolveStrategy.CHOLESKY for r in reports)
    assert peak <= 1.25 * p * p * 8 + 8 * p * 50


@pytest.mark.parametrize("walk_rows", [None, 37], ids=["one-block", "37-row-blocks"])
def test_reports_do_not_depend_on_the_memory_order_of_h(monkeypatch, walk_rows):
    H, y = _narx_system()
    if walk_rows is not None:
        monkeypatch.setattr(core, "_WALK_BYTES", 8 * H.shape[1] * walk_rows)
    assert len(solver._slices(len(y), solver._walk_rows(H.shape[1]))) == (
        1 if walk_rows is None else -(-len(y) // walk_rows)
    )
    betas = [0.0, 1.0]
    column_major = solve_path(H, y, betas)
    row_major = solve_path(np.ascontiguousarray(H), y, betas)
    assert [r.solve_strategy for r in column_major] == [
        SolveStrategy.PSEUDOINVERSE, SolveStrategy.CHOLESKY
    ]
    for a, b in zip(column_major, row_major):
        _assert_same_report(a, b)


def _count_rank_revealing(monkeypatch):
    calls = []
    original = solver._rank_revealing

    def counted(M, y, workspace):
        calls.append(M.shape)
        return original(M, y, workspace)

    monkeypatch.setattr(solver, "_rank_revealing", counted)
    return calls


def test_solve_path_factors_h_at_most_once_and_only_on_fallback(monkeypatch):
    calls = _count_rank_revealing(monkeypatch)
    H, y = _narx_system()
    reports = solve_path(H, y, [0.0, 1.0, 0.0, 10.0])
    assert [r.solve_strategy for r in reports].count(SolveStrategy.PSEUDOINVERSE) == 2
    assert len(calls) == 1
    calls.clear()
    rng = np.random.default_rng(11)
    H, y = _random_system(rng, 5, 2)
    solve_path(H, y, [0.0, 1.0])
    assert calls == []


@pytest.mark.parametrize("n_samples", [5, 11])  # N < p = 11 and N = p
def test_fallback_matches_lstsq_minimum_norm_on_short_systems(n_samples):
    rng = np.random.default_rng(12)
    H, y = _random_system(rng, 4, 2, n_samples=n_samples)
    rep = solve_path(H, y, [0.0])[0]
    if n_samples < H.shape[1]:
        assert rep.rank_deficient
        assert rep.solve_strategy == SolveStrategy.PSEUDOINVERSE
    reference, _ = _lstsq(H, y)
    np.testing.assert_allclose(rep.theta, reference, rtol=1e-8, atol=1e-12)


def _assert_fallback_matches_svd_formulas(H, y, betas):
    # every beta takes the QR/SVD route; compare with the SVD of H itself
    reports = solve_path(H, y, betas)
    U, s, Vt = np.linalg.svd(H, full_matrices=False)
    for beta, rep in zip(betas, reports):
        assert rep.solve_strategy == SolveStrategy.PSEUDOINVERSE
        assert rep.rank_deficient == (H.shape[0] < H.shape[1])
        if beta > 0:
            expected = Vt.T @ (s / (s * s + beta) * (U.T @ y))
        else:
            expected, _ = _lstsq(H, y)
        np.testing.assert_allclose(rep.theta, expected, rtol=1e-8, atol=1e-12)
        residual = np.linalg.norm(y - H @ rep.theta)
        assert rep.residual_norm == pytest.approx(residual, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n_samples", [40, 11, 5])  # N > p, N = p, N < p; p = 11
def test_forced_fallback_matches_svd_formulas(monkeypatch, n_samples):
    # no Cholesky solution is accepted, so every beta takes the QR/SVD route
    monkeypatch.setattr(solver, "_CHOLESKY_ACCEPT", -1.0)
    rng = np.random.default_rng(13)
    H, y = _random_system(rng, 4, 2, n_samples=n_samples)
    _assert_fallback_matches_svd_formulas(H, y, [0.5, 3.0, 0.0])


# p = 11: one-row blocks, blocks shorter than the triangle, an odd size and
# blocks of exactly p + 1 rows, each over N > p (partial last block), N = p
# and N < p; rows of the first block stay below p + 1 in all but the last
@pytest.mark.parametrize("block_rows", [1, 3, 7, 12])
@pytest.mark.parametrize("n_samples", [40, 11, 5])
def test_forced_fallback_in_small_row_blocks(monkeypatch, n_samples, block_rows):
    monkeypatch.setattr(solver, "_CHOLESKY_ACCEPT", -1.0)
    monkeypatch.setattr(solver, "_block_rows", lambda p: block_rows)
    rng = np.random.default_rng(13)
    H, y = _random_system(rng, 4, 2, n_samples=n_samples)
    blocks = solver._slices(n_samples, solver._block_rows(H.shape[1]))
    assert len(blocks) == -(-n_samples // block_rows)
    _assert_fallback_matches_svd_formulas(H, y, [0.5, 3.0, 0.0])


@pytest.mark.parametrize("block_rows", [5, 38])  # p = 37
def test_rank_deficient_fallback_in_small_row_blocks(monkeypatch, block_rows):
    H, y = _narx_system()
    whole = solve_path(H, y, [0.0, 1.0])
    monkeypatch.setattr(solver, "_block_rows", lambda p: block_rows)
    blocked = solve_path(H, y, [0.0, 1.0])
    assert blocked[0].rank_deficient
    assert blocked[0].solve_strategy == SolveStrategy.PSEUDOINVERSE
    reference, _ = _lstsq(H, y)
    np.testing.assert_allclose(blocked[0].theta, reference, rtol=1e-8, atol=1e-10)
    # the Cholesky beta does not read the QR; only its residual walk is blocked
    assert blocked[1].theta.tobytes() == whole[1].theta.tobytes()
    assert blocked[1].residual_norm == pytest.approx(whole[1].residual_norm, rel=1e-12)


# Both solvers are backward stable, so on these full-rank, small-residual
# systems their weights differ by at most c * eps * cond(H) relative, with
# c = 1; the largest ratio seen over these cases is 0.14.
@pytest.mark.parametrize("block_rows", [None, 7])
@pytest.mark.parametrize("scale, offset", [(1e4, 0.0), (1.0, 50.0), (1.0, 1e3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_forced_fallback_accuracy_on_scaled_and_offset_features(
    monkeypatch, scale, offset, seed, block_rows
):
    monkeypatch.setattr(solver, "_CHOLESKY_ACCEPT", -1.0)
    if block_rows is not None:
        monkeypatch.setattr(solver, "_block_rows", lambda p: block_rows)
    rng = np.random.default_rng(seed)
    spec = ConvSpec(6, 3)
    X = rng.uniform(-1, 1, size=(500, spec.n)) * scale + offset
    H = build_regressor(Dataset(X, np.zeros(500)), spec, ActivationParams(0.0937, 0.5, 0.4688))
    y = H @ rng.uniform(-1, 1, size=spec.n_weights)
    y += 0.01 * np.linalg.norm(y) / np.sqrt(y.size) * rng.standard_normal(y.size)
    rep = solve_ridge(H, y, 0.0)
    assert rep.solve_strategy == SolveStrategy.PSEUDOINVERSE
    assert not rep.rank_deficient
    reference, _ = _lstsq(H, y)
    s = np.linalg.svd(H, compute_uv=False)
    bound = np.finfo(float).eps * s[0] / s[-1]
    error = np.linalg.norm(rep.theta - reference) / np.linalg.norm(reference)
    assert error <= bound


def test_fallback_allocates_no_n_row_matrix(monkeypatch):
    # a fallback over several row blocks holds one block-sized buffer, and
    # every SVD is of a triangle with at most p rows, so no N-row copy of
    # H and no N x p left factor is formed
    import scipy.linalg.lapack

    svd_shapes = []
    svd = scipy.linalg.lapack.dgesdd

    def recording_svd(a, *args, **kwargs):
        svd_shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgesdd", recording_svd)
    data = narx_window(synth_narx(13000, seed=9), "u", "y", 5)
    H = build_regressor(data, ConvSpec(10, 3), ActivationParams(0.0937, 0.5, 0.4688))
    assert len(solver._slices(H.shape[0], solver._block_rows(H.shape[1]))) >= 4
    tracemalloc.start()
    try:
        reports = solve_path(H, data.labels, [0.0, 0.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reports[0].solve_strategy == SolveStrategy.PSEUDOINVERSE
    assert peak <= H.nbytes / 2
    assert svd_shapes == [(H.shape[1], H.shape[1])]


def test_walked_fallback_sweep_fills_the_blocks_of_every_walk_into_one_buffer(monkeypatch):
    # at p = 230, as on a NARX series with d = 20 and f = 5, the QR stack of
    # a block (999,537 floats) fits in the Gram walk's buffer (1,048,570), so
    # the Gram, QR and residual walks all fill the solve's one workspace
    outs = []
    fill_rows = _RegressorRows.fill_rows

    def recorded(self, rows, out):
        outs.append(out)  # the view keeps its buffer alive
        return fill_rows(self, rows, out)

    monkeypatch.setattr(_RegressorRows, "fill_rows", recorded)
    data = narx_window(synth_narx(10000, seed=9), "u", "y", 20)
    spec = ConvSpec(40, 5)
    H = _RegressorRows(data, spec, ActivationParams(0.0937, 0.5, 0.4688))
    N, p = H.shape
    reports = solve_path(H, data.labels, [0.0, 1.0])
    assert [r.solve_strategy for r in reports] == [
        SolveStrategy.PSEUDOINVERSE, SolveStrategy.CHOLESKY
    ]
    walk_blocks = len(solver._slices(N, solver._walk_rows(p)))
    qr_blocks = len(solver._slices(N, solver._block_rows(p)))
    assert (walk_blocks, qr_blocks) == (3, 3)
    assert len(outs) == 2 * walk_blocks + qr_blocks
    assert all(np.shares_memory(out, outs[0]) for out in outs)


def test_non_finite_regressor_columns_are_named_by_the_gram_diagonal():
    big = np.eye(5)
    big[0, 1] = 1e200  # finite, but its square is not
    with pytest.raises(NonFiniteInput, match="overflows"):
        solve_ridge(big, np.zeros(5), 0.0)
    for value in (np.nan, -np.inf):
        bad = np.eye(5)
        bad[2, 4] = value
        with pytest.raises(NonFiniteInput, match="regressor matrix contains non-finite"):
            solve_ridge(bad, np.zeros(5), 0.0)


@pytest.mark.parametrize(
    "betas,error",
    [([], ValueError), ([0.0, -1.0], NegativeRegularizer), ([1.0, np.nan], NonFiniteInput)],
)
def test_solve_path_rejects_bad_beta_lists(betas, error):
    H = np.eye(5)
    with pytest.raises(error):
        solve_path(H, np.zeros(5), betas)
