import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import quadconv.train
from quadconv import (
    ActivationParams,
    ConvSpec,
    Dataset,
    NegativeRegularizer,
    NonFiniteInput,
    SolveStrategy,
    build_regressor,
    fit,
    fit_path,
    narx_window,
    solve_ridge,
    synth_narx,
)
from quadconv import core, solver
from quadconv.regressor import _RegressorRows

_PARAMS = ActivationParams(0.0937, 0.5, 0.4688)


def _narx_data():
    return narx_window(synth_narx(600, seed=9), "u", "y", 5)


def _count_assembly(monkeypatch):
    calls = []
    original = quadconv.train.build_regressor

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quadconv.train, "build_regressor", counted)
    return calls


def test_fit_path_assembles_the_regressor_once(monkeypatch):
    calls = _count_assembly(monkeypatch)
    results = fit_path(_narx_data(), ConvSpec(10, 3), _PARAMS, [0.0, 1.0, 10.0])
    assert len(calls) == 1
    assert [r.report.beta for r in results] == [0.0, 1.0, 10.0]


@pytest.mark.parametrize(
    "betas,error",
    [([], ValueError), ([1.0, -0.5], NegativeRegularizer), ([np.nan], NonFiniteInput)],
)
def test_fit_path_rejects_bad_betas_before_assembly(monkeypatch, betas, error):
    calls = _count_assembly(monkeypatch)
    with pytest.raises(error):
        fit_path(_narx_data(), ConvSpec(10, 3), _PARAMS, betas)
    assert calls == []


def test_fit_path_matches_per_beta_fits_and_splits_time():
    data, spec = _narx_data(), ConvSpec(10, 3)
    betas = [0.0, 1.0, 10.0]
    start = time.perf_counter()
    results = fit_path(data, spec, _PARAMS, betas)
    elapsed = time.perf_counter() - start
    assert results[0].report.solve_strategy == SolveStrategy.PSEUDOINVERSE
    assert results[1].report.solve_strategy == SolveStrategy.CHOLESKY
    for beta, result in zip(betas, results):
        alone = fit(data, spec, _PARAMS, beta)
        assert result.model.zbar1_band.tobytes() == alone.model.zbar1_band.tobytes()
        assert result.model.zbar2.tobytes() == alone.model.zbar2.tobytes()
    # every beta's solve is timed, the assembly of the held H is charged to
    # the first beta only, and the sweep's times sum to no more than the call
    # took
    assert all(r.report.seconds > 0.0 for r in results)
    assert results[0].train_seconds > results[0].report.seconds
    assert [r.train_seconds for r in results[1:]] == [r.report.seconds for r in results[1:]]
    assert sum(r.train_seconds for r in results) <= elapsed


def _walk_in_blocks(monkeypatch, data, spec, blocks):
    # shrink the block sizes so the Gram, QR and residual walks each take
    # `blocks` blocks of the data's rows
    rows = -(-data.n_samples // blocks)
    monkeypatch.setattr(core, "_WALK_BYTES", 8 * spec.n_weights * rows)
    monkeypatch.setattr(solver, "_block_rows", lambda p: rows)
    assert len(solver._slices(data.n_samples, solver._walk_rows(spec.n_weights))) == blocks
    assert len(solver._slices(data.n_samples, solver._block_rows(spec.n_weights))) == blocks


def test_walked_fit_matches_a_solve_on_the_held_regressor_bit_for_bit(monkeypatch):
    data, spec = _narx_data(), ConvSpec(10, 3)
    _walk_in_blocks(monkeypatch, data, spec, 5)
    H = build_regressor(data, spec, _PARAMS)
    calls = _count_assembly(monkeypatch)
    for beta, route in [(0.0, SolveStrategy.PSEUDOINVERSE), (1.0, SolveStrategy.CHOLESKY)]:
        walked = fit(data, spec, _PARAMS, beta)
        held = solve_ridge(H, data.labels, beta)
        assert walked.report.solve_strategy == held.solve_strategy == route
        assert walked.report.theta.tobytes() == held.theta.tobytes()
        assert walked.report.normal_residual_norm == held.normal_residual_norm
        assert walked.report.residual_norm == held.residual_norm
        # the walks assemble H inside the solve, so its clock is the fit's
        assert walked.train_seconds == walked.report.seconds
    # a fit of several blocks never builds H whole
    assert calls == []


def _record_blocks_assembled(monkeypatch):
    blocks = []
    original = _RegressorRows.fill_rows

    def recorded(self, rows, out):
        blocks.append((rows.start, rows.stop))
        return original(self, rows, out)

    monkeypatch.setattr(_RegressorRows, "fill_rows", recorded)
    return blocks


@pytest.mark.parametrize("betas, walks", [([0.0, 1.0], 3), ([1.0, 10.0], 2)])
def test_walked_sweep_holds_no_regressor_and_assembles_each_row_at_most_once_a_walk(
    monkeypatch, betas, walks
):
    solver._blas_lapack()  # loaded before tracing, as the first fit would

    data, spec = narx_window(synth_narx(4000, seed=9), "u", "y", 5), ConvSpec(10, 3)
    _walk_in_blocks(monkeypatch, data, spec, 4)
    blocks = _record_blocks_assembled(monkeypatch)
    tracemalloc.start()
    try:
        results = fit_path(data, spec, _PARAMS, betas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fallback = SolveStrategy.PSEUDOINVERSE in {r.report.solve_strategy for r in results}
    assert fallback == (walks == 3)
    # the QR walk's buffer sets the peak when a beta falls back; otherwise
    # the Gram and residual walks' buffers and one feature block do
    bound = 0.5 if fallback else 0.37
    assert peak <= bound * data.n_samples * spec.n_weights * 8
    # Gram and residual walks, and the QR walk when a beta falls back
    counts = Counter(row for start, stop in blocks for row in range(start, stop))
    assert len(counts) == data.n_samples
    assert max(counts.values()) <= walks


@pytest.mark.parametrize("blocks", [1, 4])  # H held whole, and walked
def test_residual_norm_is_read_from_the_rows(monkeypatch, blocks):
    # a near-exact fit: the residual is 1e-9 of the labels, far below what a
    # residual formed from the Gram matrix can resolve
    rng = np.random.default_rng(14)
    spec = ConvSpec(6, 3)
    X = rng.uniform(-1, 1, size=(800, spec.n))
    H = build_regressor(Dataset(X, np.zeros(800)), spec, _PARAMS)
    y = H @ rng.uniform(-1, 1, size=spec.n_weights)
    y += 1e-9 * np.linalg.norm(y) / np.sqrt(y.size) * rng.standard_normal(y.size)
    data = Dataset(X, y)
    _walk_in_blocks(monkeypatch, data, spec, blocks)
    report = fit(data, spec, _PARAMS, 0.0).report
    assert report.solve_strategy == SolveStrategy.CHOLESKY
    residual = np.linalg.norm(y - H @ report.theta)
    assert 1e-10 < residual / np.linalg.norm(y) < 1e-8
    assert report.residual_norm == pytest.approx(residual, rel=1e-8)
