import importlib.machinery
import json
import subprocess
import sys
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
    TimeSeries,
    build_regressor,
    narx_window,
    solve_path,
    solve_ridge,
    synth_narx,
)
from quadconv import core, solver
from quadconv.regressor import _RegressorRows


def _narx_system(offset=0.0):
    # noise-free windowed NARX rows: 595 x 37 and numerically rank deficient,
    # with the features moved by `offset`
    data = narx_window(synth_narx(600, seed=9), "u", "y", 5)
    data = Dataset(data.inputs + offset, data.labels)
    H = build_regressor(data, ConvSpec(10, 3), ActivationParams(0.0937, 0.5, 0.4688))
    return H, data.labels


def _lstsq(H, y):
    theta, _, rank, _ = np.linalg.lstsq(
        H, y, rcond=np.finfo(float).eps * max(H.shape)
    )
    return theta, rank


def _random_system(rng, n, f, n_samples=None, offset=0.0):
    spec = ConvSpec(n, f)
    N = n_samples if n_samples is not None else 2 * spec.n_weights + 5
    data = Dataset(rng.uniform(-1, 1, size=(N, n)) + offset, rng.uniform(-1, 1, size=N))
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
    # the pivoted Cholesky factor of the Gram finds the rank
    assert (rep.solve_strategy, rep.rank, rep.rcond) == (SolveStrategy.CHOLESKY, 1, 0.0)


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


def test_weights_that_overflow_are_refused_with_one_line():
    # H'H underflows to zero while H'y does not, so the weights y / h pass
    # the float range: the beta = 0 factor is degenerate and the SVD's
    # 1 / s overflows; a beta at the smallest float is factored, but its
    # condition estimate reads 0, which routes it to the QR, where the
    # weights overflow as well. Any warning would fail this test
    # (filterwarnings = error).
    H, y = np.array([[1e-165], [2e-165]]), np.full(2, 1e151)
    for beta in (0.0, 5e-324):
        with pytest.raises(NonFiniteInput, match=f"the least-squares weights overflow at beta={beta:g}"):
            solve_ridge(H, y, beta)
    # so do an activation's coefficients near the smallest float, which
    # validate_activation accepts
    data = narx_window(synth_narx(300, seed=0), "u", "y", 3)
    H = build_regressor(data, ConvSpec(data.n_features, 2), ActivationParams(1e-320, 0.0, 1e-320))
    with pytest.raises(NonFiniteInput, match="the least-squares weights overflow at beta=0"):
        solve_path(H, data.labels, [1.0, 0.0])
    assert np.isfinite(solve_ridge(H, data.labels, 1.0).theta).all()


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
    # the pivoted Cholesky factor of the Gram finds rank N = 3
    assert (rep.solve_strategy, rep.rank) == (SolveStrategy.CHOLESKY, 3)
    # exact interpolation is possible with more weights than samples
    assert rep.residual_norm <= 1e-10


def test_factorizable_singular_system_still_gets_minimum_norm():
    # windowed noiseless recursive data hides exact column dependencies in
    # the quadratic features; the normal matrix then factorizes numerically
    # even though it is singular, and the result must still be the flagged
    # minimum-norm solution rather than one polluted by null-space junk; the
    # condition estimate sends it to the pivoted Cholesky factor, which finds
    # the rank that lstsq finds
    H, y = _narx_system()
    rep = solve_ridge(H, y, 0.0)
    assert rep.rank_deficient
    assert rep.solve_strategy == SolveStrategy.CHOLESKY
    reference, rank = _lstsq(H, y)
    assert rep.rank == rank < H.shape[1]
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
    assert (a.beta, a.residual_norm, a.normal_residual_norm, a.rcond) == (
        b.beta, b.residual_norm, b.normal_residual_norm, b.rcond
    )
    assert (a.rank_deficient, a.rank, a.solve_strategy) == (
        b.rank_deficient, b.rank, b.solve_strategy
    )


def _sweep_matching_per_beta_solves(H, y, betas):
    reports = solve_path(H, y, betas)
    assert [r.beta for r in reports] == betas
    for beta, rep in zip(betas, reports):
        _assert_same_report(rep, solve_ridge(H, y, beta))
    return reports


@pytest.mark.parametrize("betas", [[0.0, 1.0, 10.0], [10.0, 0.0, 1e-6, 0.0, 1.0]])
def test_solve_path_matches_per_beta_solves_bit_for_bit(betas):
    # each beta = 0 takes the pivoted Cholesky route, and its correction
    # shares the walk with the full-rank betas'
    reports = _sweep_matching_per_beta_solves(*_narx_system(), betas)
    assert [(r.solve_strategy, r.rank_deficient) for r in reports] == [
        (SolveStrategy.CHOLESKY, beta == 0) for beta in betas
    ]


@pytest.mark.parametrize("betas", [[0.0, 1.0, 10.0], [10.0, 0.0, 1e-6, 0.0, 1.0]])
def test_a_sweep_that_falls_back_matches_per_beta_solves_bit_for_bit(betas):
    # at +50 the pivoted factor's null vectors are not in H's null space, so
    # each beta = 0 falls back to the QR, which the sweep shares with beta =
    # 1e-6, and the SVD flags both
    reports = _sweep_matching_per_beta_solves(*_narx_system(50.0), betas)
    assert {r.solve_strategy for r in reports} == set(SolveStrategy)
    assert [(r.solve_strategy, r.rank_deficient) for r in reports] == [
        (SolveStrategy.PSEUDOINVERSE, True) if beta < 1 else (SolveStrategy.CHOLESKY, False)
        for beta in betas
    ]


def test_solve_path_full_rank_sweep_matches_per_beta_solves():
    rng = np.random.default_rng(10)
    H, y = _random_system(rng, 6, 3)
    betas = [0.0, 0.1, 100.0]
    reports = solve_path(H, y, betas)
    assert all(r.solve_strategy == SolveStrategy.CHOLESKY for r in reports)
    for beta, rep in zip(betas, reports):
        _assert_same_report(rep, solve_ridge(H, y, beta))


def _factors_restored_after_a_factor_that_stops(monkeypatch, offset):
    # N < p: the beta = 0 factor stops at a nonpositive pivot after it has
    # overwritten part of the upper triangle, which each later beta must
    # restore before it factors; after the correction walk, the last beta's
    # factor is still in place and the two beta = 1 factors are made again.
    # beta = 0 makes no dpotrf factor after the walk on either route
    from scipy.linalg import cho_factor

    rng = np.random.default_rng(0)
    H, y = _random_system(rng, 10, 3, n_samples=20, offset=offset)
    # the Gram walk writes H'H into the lower triangle only
    lower = solver._gram(core._Rows([H]), y, solver._Workspace())[0]
    assert (np.triu(lower, 1) == 0).all()
    gram = np.tril(lower) + np.tril(lower, -1).T
    betas = [1.0, 0.0, 1.0, 10.0]
    alone = [solve_ridge(H, y, beta) for beta in betas]
    factors = []
    _, lapack = solver._blas_lapack()
    dpotrf = lapack.dpotrf

    def recorded(a, **kwargs):
        upper = np.triu(a)
        c, info = dpotrf(a, **kwargs)
        factors.append((upper, np.triu(a), info))  # factored in place
        return c, info

    monkeypatch.setattr(lapack, "dpotrf", recorded)
    reports = solve_path(H, y, betas)
    assert [info > 0 for _, _, info in factors] == [False, True, False, False, False, False]
    for again, first in zip(factors[4:], [factors[0], factors[2]]):
        assert (again[0] == first[0]).all() and (again[1] == first[1]).all()
    for beta, (upper, factor, info), rep, lone in zip(betas, factors, reports, alone):
        normal = gram + beta * np.eye(len(gram))
        assert (upper == np.triu(normal)).all()
        if not info:
            # bit for bit the factor of the full normal matrix
            assert (factor == np.triu(cho_factor(normal, lower=False)[0])).all()
        _assert_same_report(rep, lone)
    _assert_same_report(reports[0], reports[2])
    assert [r.rank_deficient for r in reports] == [False, True, False, False]
    return reports


def test_each_beta_factors_the_normal_matrix_restored_after_a_factor_that_stops(monkeypatch):
    # beta = 0 takes the pivoted Cholesky route
    reports = _factors_restored_after_a_factor_that_stops(monkeypatch, 0.0)
    assert all(r.solve_strategy == SolveStrategy.CHOLESKY for r in reports)


def test_each_beta_factors_the_normal_matrix_restored_around_a_beta_0_that_falls_back(
    monkeypatch,
):
    # with the features at +100, beta = 0 falls back to the QR
    reports = _factors_restored_after_a_factor_that_stops(monkeypatch, 100.0)
    assert [r.solve_strategy for r in reports] == [
        SolveStrategy.CHOLESKY, SolveStrategy.PSEUDOINVERSE, SolveStrategy.CHOLESKY,
        SolveStrategy.CHOLESKY,
    ]


def test_a_cholesky_sweep_forms_one_normal_residual_per_beta_and_walks_once_for_corrections(
    monkeypatch,
):
    # each accepted Cholesky beta forms its normal residual once, for the
    # acceptance test, whose norm the report keeps; and one walk reads every
    # beta's correction and the norm of its uncorrected residual from H, so a
    # row source fills each block twice (Gram and correction walks)
    residuals = []
    original = solver._normal_residual

    def recorded(A, diagonal, theta, rhs):
        residuals.append(original(A, diagonal, theta, rhs))
        return residuals[-1]

    fills = []
    fill_rows = _RegressorRows.fill_rows

    def counted(self, rows, out):
        fills.append(rows)
        return fill_rows(self, rows, out)

    monkeypatch.setattr(solver, "_normal_residual", recorded)
    monkeypatch.setattr(_RegressorRows, "fill_rows", counted)
    rng = np.random.default_rng(16)
    spec = ConvSpec(6, 3)
    data = Dataset(rng.uniform(-1, 1, size=(500, spec.n)), rng.uniform(-1, 1, size=500))
    H = _RegressorRows(data, spec, ActivationParams(0.0937, 0.5, 0.4688))
    p = spec.n_weights
    monkeypatch.setattr(core, "_WALK_BYTES", 8 * p * 37)
    walk_blocks = len(solver._slices(500, solver._walk_rows(p)))
    assert walk_blocks == 14
    betas = [0.0, 1.0, 10.0]
    reports = solve_path(H, data.labels, betas)
    assert all(r.solve_strategy == SolveStrategy.CHOLESKY for r in reports)
    assert len(residuals) == len(betas)
    assert len(fills) == 2 * walk_blocks
    # the betas are corrected in the order that saves a factor, so match the
    # norms as sets; each has the same bits as the residual of its reported
    # theta, formed anew
    norms = [rep.normal_residual_norm for rep in reports]
    assert sorted(norms) == sorted(float(np.linalg.norm(r)) for r in residuals)
    A, rhs = solver._gram(H, data.labels, solver._Workspace())
    diagonal = A.diagonal().copy()
    for beta, rep in zip(betas, reports):
        again = original(A, diagonal + beta, rep.theta, rhs)
        assert rep.normal_residual_norm == float(np.linalg.norm(again))


def test_cholesky_sweep_holds_one_p_by_p_array(monkeypatch):
    # the Gram, its mirror image and every beta's factor share one p x p
    # array, so a sweep over a row source walked in small blocks holds that
    # array, a walk buffer and vectors
    solver._blas_lapack()  # loaded before tracing, as the first solve would

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


def _routes_in_both_memory_orders(monkeypatch, walk_rows, offset):
    H, y = _narx_system(offset)
    if walk_rows is not None:
        monkeypatch.setattr(core, "_WALK_BYTES", 8 * H.shape[1] * walk_rows)
    assert len(solver._slices(len(y), solver._walk_rows(H.shape[1]))) == (
        1 if walk_rows is None else -(-len(y) // walk_rows)
    )
    betas = [0.0, 1.0]
    column_major = solve_path(H, y, betas)
    row_major = solve_path(np.ascontiguousarray(H), y, betas)
    for a, b in zip(column_major, row_major):
        _assert_same_report(a, b)
    return [(r.solve_strategy, r.rank_deficient) for r in column_major]


@pytest.mark.parametrize("walk_rows", [None, 37], ids=["one-block", "37-row-blocks"])
def test_reports_do_not_depend_on_the_memory_order_of_h(monkeypatch, walk_rows):
    # beta = 0 takes the pivoted Cholesky route, with a null block in the walk
    assert _routes_in_both_memory_orders(monkeypatch, walk_rows, 0.0) == [
        (SolveStrategy.CHOLESKY, True), (SolveStrategy.CHOLESKY, False)
    ]


@pytest.mark.parametrize("walk_rows", [None, 37], ids=["one-block", "37-row-blocks"])
def test_qr_reports_do_not_depend_on_the_memory_order_of_h(monkeypatch, walk_rows):
    # at +50 beta = 0 falls back, and the QR walk reads H
    assert _routes_in_both_memory_orders(monkeypatch, walk_rows, 50.0) == [
        (SolveStrategy.PSEUDOINVERSE, True), (SolveStrategy.CHOLESKY, False)
    ]


def _count_rank_revealing(monkeypatch):
    calls = []
    original = solver._rank_revealing

    def counted(M, y, workspace):
        calls.append(M.shape)
        return original(M, y, workspace)

    monkeypatch.setattr(solver, "_rank_revealing", counted)
    return calls


def test_solve_path_factors_h_at_most_once_and_only_on_fallback(monkeypatch):
    # at +1e3 both beta = 0 solves fall back; a rank-deficient sweep that the
    # pivoted Cholesky route takes, and a full-rank one, factor no H
    calls = _count_rank_revealing(monkeypatch)
    H, y = _offset_system(1e3, 0)
    reports = solve_path(H, y, [0.0, 1.0, 0.0, 10.0])
    assert [r.solve_strategy for r in reports].count(SolveStrategy.PSEUDOINVERSE) == 2
    assert len(calls) == 1
    calls.clear()
    H, y = _narx_system()
    assert all(r.solve_strategy == SolveStrategy.CHOLESKY
               for r in solve_path(H, y, [0.0, 1.0, 0.0, 10.0]))
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
        # the pivoted Cholesky factor of the Gram finds rank N
        assert rep.rank_deficient
        assert (rep.solve_strategy, rep.rank) == (SolveStrategy.CHOLESKY, n_samples)
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
    # with the features at +50, the pivoted Cholesky factor of the Gram
    # does not find H's rank, and beta = 0 falls back to the QR
    H, y = _narx_system(50.0)
    whole = solve_path(H, y, [0.0, 1.0])
    monkeypatch.setattr(solver, "_block_rows", lambda p: block_rows)
    blocked = solve_path(H, y, [0.0, 1.0])
    assert blocked[0].rank_deficient
    assert blocked[0].solve_strategy == SolveStrategy.PSEUDOINVERSE
    assert blocked[1].solve_strategy == SolveStrategy.CHOLESKY
    reference, rank = _lstsq(H, y)
    assert blocked[0].rank == rank
    np.testing.assert_allclose(blocked[0].theta, reference, rtol=1e-8, atol=1e-10)
    # the Cholesky beta reads neither the QR nor its blocks, so its whole
    # report is the same bits
    assert blocked[1].theta.tobytes() == whole[1].theta.tobytes()
    assert blocked[1].residual_norm == whole[1].residual_norm


def _offset_system(offset, seed, scale=1.0, rows=500):
    # rows x 21 features that sit at `offset`, as raw sensor readings do,
    # and labels of a random model plus 1% noise
    rng = np.random.default_rng(seed)
    spec = ConvSpec(6, 3)
    X = rng.uniform(-1, 1, size=(rows, spec.n)) * scale + offset
    H = build_regressor(Dataset(X, np.zeros(rows)), spec, ActivationParams(0.0937, 0.5, 0.4688))
    y = H @ rng.uniform(-1, 1, size=spec.n_weights)
    y += 0.01 * np.linalg.norm(y) / np.sqrt(y.size) * rng.standard_normal(y.size)
    return H, y


def _qr_bound_ratio(H, y, theta):
    # both solvers are backward stable, so on these full-rank, small-residual
    # systems their weights differ by at most c * eps * cond(H) relative,
    # with c = 1; this is the distance from lstsq's weights over that bound
    reference, _ = _lstsq(H, y)
    s = np.linalg.svd(H, compute_uv=False)
    bound = np.finfo(float).eps * s[0] / s[-1]
    return np.linalg.norm(theta - reference) / np.linalg.norm(reference) / bound


def _assert_within_the_qr_bound(H, y, theta):
    assert _qr_bound_ratio(H, y, theta) <= 1.0


# Unforced, each system takes the route its condition estimate picks: the
# Cholesky route with one CSNE step at scale 1e4 and offsets +50, +130 and
# +150 (u / rcond 1.2e-4, 3.5e-2 and 8.2e-2), the QR/SVD route at +1e3; the
# largest ratio to the bound seen is 0.35, at +150.
@pytest.mark.parametrize("block_rows", [None, 7])
@pytest.mark.parametrize(
    "scale, offset, route",
    [(1e4, 0.0, SolveStrategy.CHOLESKY), (1.0, 50.0, SolveStrategy.CHOLESKY),
     (1.0, 130.0, SolveStrategy.CHOLESKY), (1.0, 150.0, SolveStrategy.CHOLESKY),
     (1.0, 1e3, SolveStrategy.PSEUDOINVERSE)],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_accuracy_on_scaled_and_offset_features(monkeypatch, scale, offset, route, seed, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(solver, "_block_rows", lambda p: block_rows)
    H, y = _offset_system(offset, seed, scale)
    rep = solve_ridge(H, y, 0.0)
    assert rep.solve_strategy == route
    assert not rep.rank_deficient
    _assert_within_the_qr_bound(H, y, rep.theta)


# Forced onto the QR/SVD route; the largest ratio to the bound (see
# _assert_within_the_qr_bound) seen over these cases is 0.14.
@pytest.mark.parametrize("block_rows", [None, 7])
@pytest.mark.parametrize("scale, offset", [(1e4, 0.0), (1.0, 50.0), (1.0, 1e3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_forced_fallback_accuracy_on_scaled_and_offset_features(
    monkeypatch, scale, offset, seed, block_rows
):
    monkeypatch.setattr(solver, "_CHOLESKY_ACCEPT", -1.0)
    if block_rows is not None:
        monkeypatch.setattr(solver, "_block_rows", lambda p: block_rows)
    H, y = _offset_system(offset, seed, scale)
    rep = solve_ridge(H, y, 0.0)
    assert rep.solve_strategy == SolveStrategy.PSEUDOINVERSE
    assert not rep.rank_deficient
    _assert_within_the_qr_bound(H, y, rep.theta)


def _record_rconds(monkeypatch):
    rconds = []
    original = solver._rcond

    def recorded(*args):
        rconds.append(original(*args))
        return rconds[-1]

    monkeypatch.setattr(solver, "_rcond", recorded)
    return rconds


def _record_corrections(monkeypatch):
    corrected = []
    gradients = solver._normal_gradients

    def recorded(H, y, thetas, workspace):
        corrected.extend(thetas)
        return gradients(H, y, thetas, workspace)

    monkeypatch.setattr(solver, "_normal_gradients", recorded)
    return corrected


@pytest.mark.parametrize("p", [1, 2, 63, 64, 65, 200])
def test_the_condition_estimate_matches_lapacks_dpocon(p):
    # each factor step reads the 1-norm of the matrix it factors, by
    # LAPACK's dlange, and dpocon's estimate from the factor never
    # overestimates cond_1, nor underestimates it by more than 3 here
    rng = np.random.default_rng(p)
    for _ in range(3):
        B = rng.standard_normal((p + 5, p)) * np.logspace(0, rng.uniform(0, 4), p)
        M = B.T @ B
        M = np.asfortranarray(np.tril(M) + np.tril(M, -1).T)
        # the Gram walk leaves H'H in the lower triangle and zeros above it
        A = np.asfortranarray(np.tril(M))
        norm = solver._factor(A, M.diagonal().copy())
        # dlange sums each column in its own order, not numpy's pairwise one
        assert norm == pytest.approx(np.linalg.norm(M, 1), rel=1e-15, abs=0)
        rcond = solver._rcond(A, norm)
        true = 1.0 / (np.linalg.norm(M, 1) * np.linalg.norm(np.linalg.inv(M), 1))
        # numpy's inverse is exact to about cond_1(M) u, which the lower
        # limit allows for
        assert 1.0 - 10 * solver._UNIT_ROUNDOFF / true <= rcond / true <= 3.0


@pytest.mark.parametrize("seed", [0, 1])
def test_a_system_conditioned_like_wide_fit_stays_on_the_cholesky_route(monkeypatch, seed):
    # features at +110 put u / rcond near 1e-2, where wide_fit's p = 2155
    # system sits (1.2e-2), below the routing limit of 0.1; the CSNE step
    # brings theta within the QR bound
    rconds = _record_rconds(monkeypatch)
    H, y = _offset_system(110.0, seed)
    rep = solve_ridge(H, y, 0.0)
    assert rep.solve_strategy == SolveStrategy.CHOLESKY
    assert rconds == [rep.rcond]
    assert 3e-3 < solver._UNIT_ROUNDOFF / rep.rcond < 3e-2
    _assert_within_the_qr_bound(H, y, rep.theta)


@pytest.mark.parametrize("seed", [0, 1])
def test_features_at_1e3_are_routed_to_the_qr_by_their_condition_estimate(monkeypatch, seed):
    # u / rcond is about 7e3, so no full-rank theta0 is formed. LAPACK's
    # tolerance drops directions of H'H as in a rank-deficient Gram, and the
    # basic part of the pivoted factor passes the same estimate, but the
    # corrected null block is far from H's null space (H has full rank):
    # the null check sends the beta to the QR/SVD route, so no acceptance
    # level, however loose, keeps it on the Cholesky route
    monkeypatch.setattr(solver, "_CHOLESKY_ACCEPT", np.inf)
    rconds = _record_rconds(monkeypatch)
    corrected = _record_corrections(monkeypatch)
    H, y = _offset_system(1e3, seed)
    rep = solve_ridge(H, y, 0.0)
    assert rep.solve_strategy == SolveStrategy.PSEUDOINVERSE
    assert not rep.rank_deficient and rep.rank == H.shape[1]
    assert len(rconds) == 2 and solver._UNIT_ROUNDOFF / rconds[0] > 1e3
    assert solver._UNIT_ROUNDOFF / rconds[1] <= solver._ROUTE_LIMIT
    # the pivoted theta0 and its null block, never a full-rank theta0
    assert [np.ndim(theta) for theta in corrected] == [1, 2]
    # the report's rcond is the SVD's, whose s_min two SVDs give to about
    # eps * cond(H) = 2e-6 relative
    s = np.linalg.svd(H, compute_uv=False)
    assert rep.rcond == pytest.approx((s[-1] / s[0]) ** 2, rel=1e-3)
    _assert_within_the_qr_bound(H, y, rep.theta)


def _rescue_system(seed):
    # 400 x 20 with singular values from 1 down to 1e-7, and labels that add
    # to a random model's 1e3 times its size along the smallest singular
    # direction, so that direction dominates the weights
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((400, 20)))
    V, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    H = U @ np.diag(np.logspace(0, -7, 20)) @ V.T
    fit = H @ rng.standard_normal(20)
    return H, fit + 1e3 * np.linalg.norm(fit) * U[:, -1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_acceptance_test_sends_a_step_that_misses_the_bound_to_the_qr(monkeypatch, seed):
    # u / rcond reads 2.9e-2 to 5.1e-2, below the routing limit, so beta = 0
    # is factored; one CSNE step then leaves theta 46 to 704 times the c = 1
    # bound away, and its normal residual fails the acceptance test, which
    # sends the beta to the QR/SVD route
    rconds = _record_rconds(monkeypatch)
    H, y = _rescue_system(seed)
    rep = solve_ridge(H, y, 0.0)
    assert len(rconds) == 1
    assert 1e-2 < solver._UNIT_ROUNDOFF / rconds[0] < solver._ROUTE_LIMIT
    assert rep.solve_strategy == SolveStrategy.PSEUDOINVERSE
    assert not rep.rank_deficient
    _assert_within_the_qr_bound(H, y, rep.theta)
    # with no acceptance test the step's theta is kept
    monkeypatch.setattr(solver, "_CHOLESKY_ACCEPT", np.inf)
    rep = solve_ridge(H, y, 0.0)
    assert rep.solve_strategy == SolveStrategy.CHOLESKY
    assert _qr_bound_ratio(H, y, rep.theta) > 10.0


def _rank_deficient_system(kind):
    if kind == "narx":
        # as quadconv train --d 20 --f 5 on a noise-free series: rank 212 of 230
        data = narx_window(synth_narx(3000, seed=0), "u", "y", 20)
        H = build_regressor(data, ConvSpec(40, 5), ActivationParams(0.0937, 0.5, 0.4688))
        return H, data.labels
    if kind == "fewer-rows-than-columns":
        rng = np.random.default_rng(0)
        return rng.standard_normal((20, 31)), rng.standard_normal(20)
    H, y = _offset_system(0.0, 0)
    if kind == "duplicated-column":
        H[:, 7] = H[:, 3]
    elif kind == "zero-column":
        H[:, 5] = 0.0
    else:  # a dependent column, 1e8 times the size of the others
        H[:, 9] = 1e8 * (H[:, 1] - 2.0 * H[:, 4])
    return H, y


@pytest.mark.parametrize(
    "kind",
    ["narx", "duplicated-column", "zero-column", "scaled-dependent-column",
     "fewer-rows-than-columns"],
)
def test_rank_deficient_systems_are_routed_by_the_condition_estimate_and_flagged(
    monkeypatch, kind
):
    # the condition estimate is the one routing rule, for beta = 0 as for
    # every beta: a factor that stops, or one whose estimate exceeds the
    # limit, leaves the full-rank Cholesky route. A rank-deficient beta = 0
    # then takes the pivoted Cholesky factor of the Gram; a dependent column
    # 1e8 times the size of the others, whose Gram hides H's rank, goes on
    # to the QR/SVD route, whose SVD finds the rank
    rconds = _record_rconds(monkeypatch)
    H, y = _rank_deficient_system(kind)
    rep = solve_ridge(H, y, 0.0)
    assert rep.solve_strategy == (
        SolveStrategy.PSEUDOINVERSE if kind == "scaled-dependent-column" else SolveStrategy.CHOLESKY
    )
    assert rep.rank_deficient
    # each factor of the Gram stops, so the one estimate is the basic
    # factor's, which passes the limit
    assert len(rconds) == 1 and solver._UNIT_ROUNDOFF / rconds[0] <= solver._ROUTE_LIMIT
    reference, rank = _lstsq(H, y)
    assert rep.rank == rank < H.shape[1]
    np.testing.assert_allclose(rep.theta, reference, rtol=1e-8, atol=1e-10)


_PIVOTED = {
    "narx-2980x230": lambda: _rank_deficient_system("narx"),
    "duplicated-column": lambda: _rank_deficient_system("duplicated-column"),
    "zero-column": lambda: _rank_deficient_system("zero-column"),
    "fewer-rows-than-columns": lambda: _rank_deficient_system("fewer-rows-than-columns"),
    "narx-595x37": _narx_system,
    "short-5x11": lambda: _random_system(np.random.default_rng(12), 4, 2, n_samples=5),
    "toy-3x2": lambda: (np.array([[2.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 0.0, 1.0])),
}


# Summed in 7-row blocks, the Gram of the duplicated column is not exactly
# singular: its dpocon estimate reads u / rcond = 0.044, below the routing
# limit, and beta = 0 stays on the full-rank Cholesky route, where the
# acceptance test passes a theta 0.23 away from lstsq's, flagged as of full
# rank. That happens before the pivoted route is tried.
_FOOLED = pytest.mark.xfail(
    strict=True, reason="the condition estimate passes a Gram that rounding made nonsingular"
)


@pytest.mark.parametrize(
    "system, walk_rows",
    [pytest.param(system, walk_rows, id=f"{system}-{'walked' if walk_rows else 'held'}",
                  marks=_FOOLED if (system, walk_rows) == ("duplicated-column", 7) else ())
     for system in sorted(_PIVOTED) for walk_rows in (None, 7)],
)
def test_rank_deficient_systems_take_the_pivoted_cholesky_route(monkeypatch, system, walk_rows):
    # beta = 0 solves the basic columns' normal equations from the pivoted
    # Cholesky factor of the Gram, corrects the basic solution and the null
    # block from the rows, and takes the minimum-norm solution: lstsq's to
    # within 2e-12 relative (1.1e-12 seen), with its rank, and with no QR of
    # H. The
    # later beta writes over the Gram's factor, so beta = 0 keeps its own.
    calls = _count_rank_revealing(monkeypatch)
    H, y = _PIVOTED[system]()
    if walk_rows is not None:
        monkeypatch.setattr(core, "_WALK_BYTES", 8 * H.shape[1] * walk_rows)
    betas = [0.0, 1.0]
    reports = solve_path(H, y, betas)
    assert calls == []
    rep = reports[0]
    reference, rank = _lstsq(H, y)
    assert (rep.solve_strategy, rep.rank_deficient, rep.rank, rep.rcond) == (
        SolveStrategy.CHOLESKY, True, rank, 0.0
    )
    np.testing.assert_allclose(rep.theta, reference, rtol=1e-8, atol=1e-10)
    assert np.linalg.norm(rep.theta - reference) <= 2e-12 * np.linalg.norm(reference)
    assert (reports[1].rank_deficient, reports[1].rank) == (False, H.shape[1])
    for beta, report in zip(betas, reports):
        _assert_same_report(report, solve_ridge(H, y, beta))


def _gap_system(noise, seed):
    # 1000 x 12 rows whose last column is a combination of three others plus
    # `noise` times a random column: sigma_min / sigma_1 is about 0.16 noise
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((1000, 12))
    H[:, 11] = H[:, 1] - 2.0 * H[:, 4] + 0.5 * H[:, 7] + noise * rng.standard_normal(1000)
    return H, H @ rng.standard_normal(12) + 0.01 * rng.standard_normal(1000)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("noise, deficient", [(1e-9, False), (1e-11, False), (1e-13, True)])
def test_the_pivoted_route_drops_a_direction_only_where_lstsq_does(monkeypatch, noise, deficient, seed):
    # LAPACK's tolerance finds rank 11 of the Gram at each gap, but at
    # sigma_min / sigma_1 near 1.5e-10 and 1.5e-12 lstsq keeps full rank: the
    # corrected null vector is not in H's null space by the SVD's cutoff,
    # and the null check alone sends beta = 0 to the QR, however loose the
    # acceptance test. Near 1.5e-14 lstsq drops the direction too, and the
    # pivoted route is accepted.
    H, y = _gap_system(noise, seed)
    s = np.linalg.svd(H, compute_uv=False)
    assert 1.3e-1 * noise < s[-1] / s[0] < 1.7e-1 * noise
    reference, rank = _lstsq(H, y)
    assert rank == (11 if deficient else 12)
    calls = _count_rank_revealing(monkeypatch)
    for accept in (solver._CHOLESKY_ACCEPT, np.inf):
        monkeypatch.setattr(solver, "_CHOLESKY_ACCEPT", accept)
        rep = solve_ridge(H, y, 0.0)
        assert (rep.rank_deficient, rep.rank) == (deficient, rank)
        if deficient:
            assert rep.solve_strategy == SolveStrategy.CHOLESKY
            assert np.linalg.norm(rep.theta - reference) <= 1e-13 * np.linalg.norm(reference)
        else:
            assert rep.solve_strategy == SolveStrategy.PSEUDOINVERSE
    assert len(calls) == (0 if deficient else 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_acceptance_test_sends_a_pivoted_step_that_misses_the_bound_to_the_qr(
    monkeypatch, seed
):
    # _rescue_system's rows and a zero column: the pivoted factor drops the
    # zero column, whose null vector needs no correction, and the basic part
    # is _rescue_system's, where one CSNE step misses the c = 1 bound; its
    # normal residual fails the acceptance test, and beta = 0 falls back
    H, y = _rescue_system(seed)
    H = np.column_stack([H, np.zeros(len(H))])
    rep = solve_ridge(H, y, 0.0)
    assert (rep.solve_strategy, rep.rank_deficient, rep.rank) == (
        SolveStrategy.PSEUDOINVERSE, True, 20
    )
    _assert_within_the_qr_bound(H[:, :20], y, rep.theta[:20])
    # with no acceptance test the step's theta is kept
    monkeypatch.setattr(solver, "_CHOLESKY_ACCEPT", np.inf)
    rep = solve_ridge(H, y, 0.0)
    assert (rep.solve_strategy, rep.rank) == (SolveStrategy.CHOLESKY, 20)
    assert _qr_bound_ratio(H[:, :20], y, rep.theta[:20]) > 10.0


@pytest.mark.parametrize("offset, walks", [(None, 2), (1e3, 3)], ids=["accepted", "refused"])
def test_a_pivoted_beta_reads_h_twice_or_three_times_when_refused(monkeypatch, offset, walks):
    # the null block rides the correction walk that the full-rank betas
    # take; a pivoted beta = 0 that the checks refuse adds the QR walk after it
    fills = []
    fill_rows = _RegressorRows.fill_rows

    def counted(self, rows, out):
        fills.append(rows)
        return fill_rows(self, rows, out)

    monkeypatch.setattr(_RegressorRows, "fill_rows", counted)
    corrected = _record_corrections(monkeypatch)
    if offset is None:  # noise-free NARX rows: rank deficient
        data = narx_window(synth_narx(600, seed=9), "u", "y", 5)
    else:
        rng = np.random.default_rng(0)
        data = Dataset(rng.uniform(-1, 1, size=(595, 10)) + offset, rng.uniform(-1, 1, size=595))
    spec = ConvSpec(10, 3)
    H = _RegressorRows(data, spec, ActivationParams(0.0937, 0.5, 0.4688))
    # 595 rows in blocks of 100: six a walk
    monkeypatch.setattr(core, "_WALK_BYTES", 8 * spec.n_weights * 100)
    monkeypatch.setattr(solver, "_block_rows", lambda p: 100)
    reports = solve_path(H, data.labels, [0.0, 1.0])
    assert [np.ndim(theta) for theta in corrected] == [1, 1, 2]
    assert reports[0].solve_strategy == (
        SolveStrategy.CHOLESKY if offset is None else SolveStrategy.PSEUDOINVERSE
    )
    assert len(fills) == walks * 6


def test_solve_path_matches_per_beta_solves_where_the_correction_moves_theta():
    # at +50 the CSNE step moves theta well past rounding, and beta = 0's
    # factor, written over by the two later betas, is made again after the
    # correction walk
    H, y = _offset_system(50.0, 0)
    betas = [0.0, 1e-3, 1.0]
    reports = solve_path(H, y, betas)
    assert all(r.solve_strategy == SolveStrategy.CHOLESKY for r in reports)
    uncorrected = np.linalg.solve(H.T @ H, H.T @ y)
    assert np.linalg.norm(reports[0].theta - uncorrected) > 1e-9 * np.linalg.norm(uncorrected)
    for beta, rep in zip(betas, reports):
        _assert_same_report(rep, solve_ridge(H, y, beta))


def _near_exact_system(noise):
    # 800 x 21 rows and the labels of a random model, plus noise of `noise`
    # times the labels' scale
    rng = np.random.default_rng(14)
    spec = ConvSpec(6, 3)
    X = rng.uniform(-1, 1, size=(800, spec.n))
    H = build_regressor(Dataset(X, np.zeros(800)), spec, ActivationParams(0.0937, 0.5, 0.4688))
    y = H @ rng.uniform(-1, 1, size=spec.n_weights)
    y += noise * np.linalg.norm(y) / np.sqrt(y.size) * rng.standard_normal(y.size)
    return H, y


_SYSTEMS = {
    "offset-0": lambda: _offset_system(0.0, 0),
    "offset-50": lambda: _offset_system(50.0, 0),
    "offset-110": lambda: _offset_system(110.0, 0),
    "offset-1e3": lambda: _offset_system(1e3, 0),
    "narx": _narx_system,
    "near-exact-1e-9": lambda: _near_exact_system(1e-9),
    "near-exact-1e-13": lambda: _near_exact_system(1e-13),
}


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no more precise than float64 here",
)
@pytest.mark.parametrize("walk_rows", [None, 37], ids=["held", "walked"])
@pytest.mark.parametrize("system", sorted(_SYSTEMS))
def test_residual_norm_keeps_ten_digits_of_the_reported_weights_residual(
    monkeypatch, system, walk_rows
):
    # each route's norm against the extended-precision residual of its own
    # theta: within 1e-10 relative, or 100 u ||y|| absolute for a residual
    # at rounding level, which no float64 method resolves
    H, y = _SYSTEMS[system]()
    if walk_rows is not None:
        monkeypatch.setattr(core, "_WALK_BYTES", 8 * H.shape[1] * walk_rows)
    floor = 100 * solver._UNIT_ROUNDOFF * np.linalg.norm(y)
    for rep in solve_path(H, y, [0.0, 1e-3, 1.0]):
        r = y.astype(np.longdouble) - H.astype(np.longdouble) @ rep.theta.astype(np.longdouble)
        exact = float(np.sqrt(r @ r))
        assert abs(rep.residual_norm - exact) <= 1e-10 * exact + floor, (rep.beta, rep.solve_strategy)


def test_fallback_allocates_no_n_row_matrix(monkeypatch):
    # a fallback over several row blocks holds one block-sized buffer, and
    # every SVD is of a triangle with at most p rows, so no N-row copy of
    # H and no N x p left factor is formed; at +1e3 both beta = 0 solves
    # try the pivoted Cholesky route first, and the null check refuses them
    svd_shapes = []
    _, lapack = solver._blas_lapack()
    svd = lapack.dgesdd

    def recording_svd(a, *args, **kwargs):
        svd_shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(lapack, "dgesdd", recording_svd)
    H, y = _offset_system(1e3, 0, rows=13000)
    assert len(solver._slices(H.shape[0], solver._block_rows(H.shape[1]))) >= 4
    tracemalloc.start()
    try:
        reports = solve_path(H, y, [0.0, 0.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.solve_strategy for r in reports] == [SolveStrategy.PSEUDOINVERSE] * 2
    assert peak <= H.nbytes / 2
    assert svd_shapes == [(H.shape[1], H.shape[1])]


def test_walked_fallback_sweep_fills_the_blocks_of_every_walk_into_one_buffer(monkeypatch):
    # at p = 230, as on a NARX series with d = 20 and f = 5, the QR stack of
    # a block (999,537 floats) fits in the Gram walk's buffer (1,048,570), so
    # the Gram, QR and correction walks all fill the solve's one workspace;
    # random channels at +100 make beta = 0 of full rank but too
    # ill-conditioned for the Cholesky routes
    outs = []
    fill_rows = _RegressorRows.fill_rows

    def recorded(self, rows, out):
        outs.append(out)  # the view keeps its buffer alive
        return fill_rows(self, rows, out)

    monkeypatch.setattr(_RegressorRows, "fill_rows", recorded)
    rng = np.random.default_rng(9)
    series = TimeSeries({name: rng.uniform(-1, 1, 10000) + 100.0 for name in ("u", "y")})
    data = narx_window(series, "u", "y", 20)
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
    # the Gram and correction (for beta = 1) walks, and the QR walk
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


def _fresh_interpreter(script):
    """The last line that `script` prints to stdout, run in a fresh
    interpreter."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


# a fit on a short NARX series, then `lapack`: the module the solver calls
# for LAPACK
_FIT = (
    "import sys\n"
    "from quadconv import ConvSpec, RELU_MIMIC, fit, narx_window, solver, synth_narx\n"
    "data = narx_window(synth_narx(300, seed=0), 'u', 'y', 3)\n"
    "fit(data, ConvSpec(data.n_features, 2), RELU_MIMIC, 0.0)\n"
    "_, lapack = solver._blas_lapack()\n"
)


def test_a_fit_loads_scipys_blas_and_lapack_without_scipy_linalg():
    # scipy.linalg's __init__ and its array-API layer cost 0.25 s and 28 MB
    loaded = json.loads(_fresh_interpreter(
        _FIT + "import json\n"
        "names = ['scipy.linalg', 'scipy._lib._array_api', 'scipy.linalg._fblas',\n"
        "         'scipy.linalg._flapack']\n"
        "print(json.dumps([name in sys.modules for name in names]))\n"
    ))
    assert loaded == [False, False, True, True]


def test_scipy_linalg_and_the_solver_share_one_blas_and_lapack_module():
    # imported after a fit, scipy.linalg reuses the modules the solver
    # loaded, and no extension module is loaded twice
    assert _fresh_interpreter(
        _FIT + "import collections\n"
        "from importlib.machinery import ExtensionFileLoader\n"
        "loads = collections.Counter()\n"
        "create = ExtensionFileLoader.create_module\n"
        "def counted(self, spec):\n"
        "    loads[spec.name] += 1\n"
        "    return create(self, spec)\n"
        "ExtensionFileLoader.create_module = counted\n"
        "import scipy.linalg\n"
        "blas, again = solver._blas_lapack()\n"
        "assert again is lapack is sys.modules['scipy.linalg._flapack']\n"
        "assert scipy.linalg.blas._fblas is blas and scipy.linalg.lapack._flapack is lapack\n"
        "assert scipy.linalg.lapack.dgesdd is lapack.dgesdd\n"
        "assert scipy.linalg.blas.dsyrk is blas.dsyrk\n"
        "assert not loads.keys() & {'scipy.linalg._fblas', 'scipy.linalg._flapack'}, loads\n"
        "assert max(loads.values(), default=1) == 1, loads\n"
        "print('shared')\n"
    ) == "shared"
    # and imported before, it lends the solver its own
    import scipy.linalg

    blas, lapack = solver._blas_lapack()
    assert blas is sys.modules["scipy.linalg._fblas"] is scipy.linalg.blas._fblas
    assert lapack is sys.modules["scipy.linalg._flapack"] is scipy.linalg.lapack._flapack


def test_first_solves_in_several_threads_share_one_blas_and_lapack_module():
    # more threads than cores, switching often, all reach the loader first
    assert _fresh_interpreter(
        "import sys, threading\n"
        "from quadconv import solver\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier, found = threading.Barrier(8), []\n"
        "def first():\n"
        "    barrier.wait(timeout=30)\n"
        "    found.append(solver._blas_lapack())\n"
        "threads = [threading.Thread(target=first) for _ in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=30)\n"
        "assert not any(t.is_alive() for t in threads) and len(found) == 8\n"
        "assert all(b is found[0][0] and l is found[0][1] for b, l in found)\n"
        "assert found[0] == solver._blas_lapack()\n"
        "print('shared')\n"
    ) == "shared"


def test_a_module_that_fails_to_load_leaves_no_entry_and_loads_at_the_next_call():
    # a failed load must not leave a half-made module in sys.modules, where
    # the next call, or scipy.linalg.blas, would take it as loaded
    assert _fresh_interpreter(
        "import sys\n"
        "from importlib.machinery import ExtensionFileLoader\n"
        "from quadconv import solver\n"
        "run = ExtensionFileLoader.exec_module\n"
        "def refused(self, module):\n"
        "    if module.__name__ == 'scipy.linalg._fblas':\n"
        "        raise ImportError('refused')\n"
        "    return run(self, module)\n"
        "ExtensionFileLoader.exec_module = refused\n"
        "try:\n"
        "    solver._blas_lapack()\n"
        "except ImportError as e:\n"
        "    assert str(e) == 'refused', e\n"
        "else:\n"
        "    raise AssertionError('the load did not fail')\n"
        "assert 'scipy.linalg._fblas' not in sys.modules\n"
        "ExtensionFileLoader.exec_module = run\n"
        "blas, _ = solver._blas_lapack()\n"
        "assert blas is sys.modules['scipy.linalg._fblas']\n"
        "assert blas.ddot([1.0, 2.0], [3.0, 4.0]) == 11.0\n"
        "print('loaded')\n"
    ) == "loaded"


def test_a_solve_falls_back_to_scipy_linalg_where_the_path_finder_misses(monkeypatch):
    # as in an editable build, whose extension modules the path finder does
    # not see: the solver calls scipy.linalg.blas and scipy.linalg.lapack,
    # which re-export the same wrappers, so every report is the same bits.
    # The rank-deficient sweep takes the pivoted Cholesky route (dpstrf,
    # dtrtrs), and at +1e3 beta = 0 falls back to the QR (dgesdd)
    import scipy.linalg.blas
    import scipy.linalg.lapack

    systems = [(_narx_system(), [0.0, 1.0]), (_offset_system(1e3, 0), [0.0])]
    direct = [solve_path(H, y, betas) for (H, y), betas in systems]

    class Missing:
        @staticmethod
        def find_spec(name, path=None, target=None):
            return None

    monkeypatch.setattr(importlib.machinery, "PathFinder", Missing)
    for name in ("scipy.linalg._fblas", "scipy.linalg._flapack"):
        monkeypatch.delitem(sys.modules, name)
    blas, lapack = solver._blas_lapack()
    assert blas is scipy.linalg.blas and lapack is scipy.linalg.lapack
    calls = []
    for name in ("dgesdd", "dpstrf", "dtrtrs"):
        wrapper = getattr(lapack, name)

        def recorded(*args, wrapper=wrapper, name=name, **kwargs):
            calls.append(name)
            return wrapper(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, recorded)
    fallen = [solve_path(H, y, betas) for (H, y), betas in systems]
    # each beta = 0 factors the Gram by dpstrf; the +1e3 one is refused
    assert calls == ["dpstrf", "dtrtrs", "dpstrf", "dtrtrs", "dgesdd"]
    assert [[r.solve_strategy for r in reports] for reports in direct] == [
        [SolveStrategy.CHOLESKY, SolveStrategy.CHOLESKY], [SolveStrategy.PSEUDOINVERSE]
    ]
    assert direct[0][0].rank_deficient
    for a, b in zip(sum(fallen, []), sum(direct, [])):
        _assert_same_report(a, b)


def test_the_correction_walk_reads_each_thetas_residual_squares_alone():
    # each theta gets its own products per block, so its H'r0 and ||r0||^2
    # are the same bits whichever thetas share the walk
    rng = np.random.default_rng(8)
    H, y = rng.normal(size=(3000, 40)), rng.normal(size=3000)
    thetas = [rng.normal(size=40) for _ in range(3)]
    rows = solver._as_rows(H)

    def walk(thetas):
        return solver._normal_gradients(rows, y, thetas, solver._Workspace())

    together, alone = walk(thetas), walk(thetas[1:2])
    assert together[1][0].tobytes() == alone[0][0].tobytes()
    assert together[1][1] == alone[0][1]
    squares = [float(s) for _, s in together]
    assert squares == pytest.approx([np.sum((y - H @ t) ** 2) for t in thetas], rel=1e-12)
    assert walk([]) == []
