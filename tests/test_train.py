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
    DimensionMismatch,
    NegativeRegularizer,
    NonFiniteInput,
    QuadraticModel,
    SolveStrategy,
    SplitSpec,
    TimeSeries,
    build_regressor,
    fit,
    fit_path,
    mean_squared_errors,
    mse,
    multichannel_window,
    narx_window,
    predict_batch,
    reconstruct,
    solve_ridge,
    split,
    synth_narx,
)
from quadconv import core, solver
from quadconv import model as model_module
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
    # beta = 0 is rank deficient and takes the pivoted Cholesky route
    assert [(r.report.solve_strategy, r.report.rank_deficient) for r in results] == [
        (SolveStrategy.CHOLESKY, True), (SolveStrategy.CHOLESKY, False),
        (SolveStrategy.CHOLESKY, False),
    ]
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
    # shrink the block sizes so the Gram, QR and correction walks each take
    # `blocks` blocks of the data's rows
    rows = -(-data.n_samples // blocks)
    monkeypatch.setattr(core, "_WALK_BYTES", 8 * spec.n_weights * rows)
    monkeypatch.setattr(solver, "_block_rows", lambda p: rows)
    assert len(solver._slices(data.n_samples, solver._walk_rows(spec.n_weights))) == blocks
    assert len(solver._slices(data.n_samples, solver._block_rows(spec.n_weights))) == blocks


def _walked_fits_matching_solves_on_the_held_regressor(monkeypatch, offset):
    data, spec = _narx_data(), ConvSpec(10, 3)
    data = Dataset(data.inputs + offset, data.labels)
    _walk_in_blocks(monkeypatch, data, spec, 5)
    H = build_regressor(data, spec, _PARAMS)
    calls = _count_assembly(monkeypatch)
    routes = []
    for beta, deficient in [(0.0, True), (1.0, False)]:
        walked = fit(data, spec, _PARAMS, beta)
        held = solve_ridge(H, data.labels, beta)
        assert walked.report.solve_strategy == held.solve_strategy
        routes.append(held.solve_strategy)
        assert walked.report.rank_deficient == held.rank_deficient == deficient
        assert walked.report.rank == held.rank
        assert walked.report.theta.tobytes() == held.theta.tobytes()
        assert walked.report.normal_residual_norm == held.normal_residual_norm
        assert walked.report.residual_norm == held.residual_norm
        assert walked.report.rcond == held.rcond
        # the walks assemble H inside the solve, so its clock is the fit's
        assert walked.train_seconds == walked.report.seconds
    # a fit of several blocks never builds H whole
    assert calls == []
    return routes


def test_walked_fit_matches_a_solve_on_the_held_regressor_bit_for_bit(monkeypatch):
    # beta = 0 takes the pivoted Cholesky route, as the data are rank deficient
    assert _walked_fits_matching_solves_on_the_held_regressor(monkeypatch, 0.0) == [
        SolveStrategy.CHOLESKY, SolveStrategy.CHOLESKY
    ]


def test_walked_qr_fit_matches_a_solve_on_the_held_regressor_bit_for_bit(monkeypatch):
    # with the features at +100, beta = 0 falls back to the blocked QR
    assert _walked_fits_matching_solves_on_the_held_regressor(monkeypatch, 100.0) == [
        SolveStrategy.PSEUDOINVERSE, SolveStrategy.CHOLESKY
    ]


def _record_blocks_assembled(monkeypatch):
    blocks = []
    original = _RegressorRows.fill_rows

    def recorded(self, rows, out):
        blocks.append((rows.start, rows.stop))
        return original(self, rows, out)

    monkeypatch.setattr(_RegressorRows, "fill_rows", recorded)
    return blocks


# beta = 0 is rank deficient on these rows and takes the pivoted Cholesky
# route, which reads H no more often than a full-rank sweep; with the
# features at +100 the pivoted factor's basic block fails the routing rule,
# and beta = 0 falls back to the QR
@pytest.mark.parametrize(
    "betas, offset, walks", [([0.0, 1.0], 0.0, 2), ([0.0, 1.0], 100.0, 3), ([1.0, 10.0], 0.0, 2)]
)
def test_walked_sweep_holds_no_regressor_and_assembles_each_row_at_most_once_a_walk(
    monkeypatch, betas, offset, walks
):
    solver._blas_lapack()  # loaded before tracing, as the first fit would

    data, spec = narx_window(synth_narx(4000, seed=9), "u", "y", 5), ConvSpec(10, 3)
    data = Dataset(data.inputs + offset, data.labels)
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
    # the other walks' buffers and one feature block do
    bound = 0.5 if fallback else 0.37
    assert peak <= bound * data.n_samples * spec.n_weights * 8
    # the Gram and correction walks, and the QR walk when a beta falls back
    counts = Counter(row for start, stop in blocks for row in range(start, stop))
    assert len(counts) == data.n_samples
    assert set(counts.values()) == {walks}


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


def _series_data(samples, seed):
    # random input and output channels: of full rank at 800 samples, rank
    # deficient at 30 (12 training rows for 37 weights at d = 5, f = 3)
    from quadconv import TimeSeries

    rng = np.random.default_rng(seed)
    ts = TimeSeries({"u": rng.normal(size=samples), "y": rng.normal(size=samples)})
    return split(narx_window(ts, "u", "y", 5), SplitSpec(0.5))


def _assert_agrees(got, want, labels):
    # each test_mse as a residual norm: about 12 digits of it, or 100 u ||y||
    # absolute at rounding level
    floor = 100 * np.finfo(float).eps / 2 * np.linalg.norm(labels)
    for g, w in zip(got, want, strict=True):
        r = np.sqrt(labels.size * w)
        assert abs(np.sqrt(labels.size * g) - r) <= 1e-12 * r + floor


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("samples, deficient", [(800, False), (30, True)])
def test_mean_squared_errors_agree_with_the_models(held, samples, deficient):
    train, test = _series_data(samples, 5)
    if held:
        test = Dataset(test.inputs.copy(), test.labels)
    spec = ConvSpec(10, 3)
    results = fit_path(train, spec, _PARAMS, [0.0, 1e-3, 1.0])
    assert results[0].report.rank_deficient == deficient
    want = [mse(predict_batch(r.model, test.features), test.labels) for r in results]
    _assert_agrees(mean_squared_errors(results, test), want, test.labels)
    # one result alone gets what it gets within the sweep
    assert mean_squared_errors(results[1:2], test) == mean_squared_errors(results, test)[1:2]


def test_mean_squared_errors_overflow_where_the_model_kernel_does():
    # the score groups the products as predict_batch does, so it passes the
    # float range on the rows where the model kernel does: at 1e75 every
    # prediction is finite, at 1e155 the square of the largest input is not
    train, test = _series_data(800, 6)
    results = fit_path(train, ConvSpec(10, 3), _PARAMS, [0.0, 1.0])
    U = test.inputs / np.abs(test.inputs).max()
    finite = []
    for scale in (1e75, 1e155):
        rows = Dataset(scale * U, test.labels)
        with np.errstate(over="ignore", invalid="ignore"):
            want = [mse(predict_batch(r.model, rows.features), rows.labels) for r in results]
        got = mean_squared_errors(results, rows)
        assert list(np.isfinite(got)) == list(np.isfinite(want))
        finite += list(np.isfinite(got))
        for g, w in zip(got, want):
            if np.isfinite(w):
                assert abs(g - w) <= 1e-12 * w
    assert finite == [True, True, False, False]


def test_mean_squared_errors_score_each_result_by_its_own_tiles():
    # results of two filter lengths in one call: each is scored as it is
    # alone, by its own band tiles
    train, test = _series_data(800, 7)
    results = [fit(train, ConvSpec(10, f), _PARAMS) for f in (2, 3)]
    got = mean_squared_errors(results, test)
    assert got == [mean_squared_errors([r], test)[0] for r in results]
    want = [mse(predict_batch(r.model, test.features), test.labels) for r in results]
    _assert_agrees(got, want, test.labels)
    assert mean_squared_errors([], test) == []
    with pytest.raises(DimensionMismatch, match="dataset has 9 features but spec.n = 10"):
        mean_squared_errors(results, Dataset(test.inputs[:, :9], test.labels))


def _doubled(tiles):
    return tuple((rows, cols, 2.0 * Z) for rows, cols, Z in tiles)


def _rounding_scale(model, X):
    # |a| |x|'|Zbar1| |x| + |b| |zbar2|'|x| + c |Zbar4| at every row: the
    # size of the sums whose rounding a prediction carries, which random
    # signs can make far larger than the prediction itself
    p = model.params
    absolute = QuadraticModel(np.abs(model.zbar1_band), np.abs(model.zbar2), model.spec,
                              ActivationParams(abs(p.a), abs(p.b), abs(p.c)))
    return predict_batch(absolute, np.abs(X))


@pytest.mark.parametrize("n, f", [(n, f) for n in (1, 40, 63, 64, 65, 128, 129, 200)
                                  for f in (1, 3, 10) if f <= n])
def test_the_scoring_predictor_agrees_with_predict_batch(n, f):
    # two models, one with its wide tiles doubled and one with its narrow
    # tiles doubled, so that multiplying a block by the other tile set than
    # predict_batch, or by another model's tiles, changes the prediction
    rng = np.random.default_rng(1000 * n + f)
    spec = ConvSpec(n, f)
    models = [reconstruct(rng.uniform(-1, 1, spec.n_weights), spec, _PARAMS) for _ in range(2)]
    object.__setattr__(models[0], "zbar1_tiles", _doubled(models[0].zbar1_tiles))
    object.__setattr__(models[1], "zbar1_block_tiles", _doubled(models[1].zbar1_block_tiles))
    # one row; a few rows; and two blocks of the walk, the last of one row
    rows = core._walk_rows(4 * n)
    # held rows, and windowed ones: blocks of r = n samples of one channel,
    # or of n / 2 samples of each of two channels
    channels = 1 + (n % 2 == 0)
    r = n // channels
    for N in (1, 7, rows + 1):
        X = rng.uniform(-1, 1, size=(N, n))
        series = TimeSeries({"lat": np.zeros(N * r), **{f"u{k}": X[:, k * r:(k + 1) * r].ravel()
                                                        for k in range(channels)}})
        windowed = multichannel_window(series, [f"u{k}" for k in range(channels)], r, "lat")
        assert np.array_equal(windowed.inputs, X)
        for data in (Dataset(X, np.zeros(N)), windowed):
            got = model_module._walk(models, data.features, model_module._predict_block, (),
                                     quadconv.train._blas_matmul, order="F")
            for model, predictions in zip(models, got):
                want = predict_batch(model, X)
                assert np.all(np.abs(predictions - want) <= 1e-13 * _rounding_scale(model, X))


def test_the_scoring_product_writes_into_a_column_major_out_and_refuses_a_row_major_one():
    # f2py copies a row-major out, and dgemm would write the copy and leave
    # out as it was
    rng = np.random.default_rng(0)
    a, b = np.asfortranarray(rng.uniform(-1, 1, (5, 4))), rng.uniform(-1, 1, (4, 3))
    # a column slice of a column-major buffer, as the walk's tiles write
    out = np.zeros((5, 7), order="F")[:, 2:5]
    assert quadconv.train._blas_matmul(a, b, out=out) is out
    np.testing.assert_allclose(out, a @ b, rtol=1e-13)
    with pytest.raises(RuntimeError, match="did not write into out"):
        quadconv.train._blas_matmul(a, b, out=np.zeros((5, 3)))
