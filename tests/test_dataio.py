import tracemalloc

import numpy as np
import pytest

from quadconv import (
    ActivationParams,
    ChannelMissing,
    ConvSpec,
    Dataset,
    InsufficientData,
    NonFiniteInput,
    ParseError,
    SplitSpec,
    TimeSeries,
    dataset_to_csv,
    fit,
    fit_path,
    load_csv,
    load_feature_csv,
    mse,
    multichannel_window,
    narx_window,
    predict_batch,
    reconstruct,
    sensitivity_batch,
    series_to_csv,
    split,
    synth_narx,
)
from quadconv import core, dataio, solver
from quadconv.core import RELU_MIMIC, _Rows, _slices
from quadconv.dataio import _read_table, _write_csv


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_long_series(tmp_path):
    lines = ["u,y"] + [f"{i * 0.5},{i * 0.25}" for i in range(1018)]
    ts = load_csv(_write(tmp_path / "arm.csv", "\n".join(lines) + "\n"))
    assert ts.length == 1018
    assert ts.channels["u"][2] == 1.0
    assert ts.channels["y"][-1] == 1017 * 0.25


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(str(tmp_path / "nope.csv"))


def test_load_csv_empty_data_section(tmp_path):
    with pytest.raises(ParseError, match="no data rows"):
        load_csv(_write(tmp_path / "empty.csv", "u,y\n"))


def test_load_csv_reports_bad_cell_location(tmp_path):
    text = "u,y\n1.0,2.0\n1.5,oops\n"
    with pytest.raises(ParseError, match="row 3, column 'y'"):
        load_csv(_write(tmp_path / "bad.csv", text))


def test_load_csv_rejects_non_finite_cell(tmp_path):
    with pytest.raises(ParseError, match="non-finite"):
        load_csv(_write(tmp_path / "inf.csv", "u\n1.0\ninf\n"))


def test_load_csv_ragged_row(tmp_path):
    with pytest.raises(ParseError, match="row 3"):
        load_csv(_write(tmp_path / "ragged.csv", "u,y\n1,2\n3\n"))


@pytest.mark.parametrize("block_cells", [1, 5, 1 << 14])
@pytest.mark.parametrize("seed", range(5))
def test_write_read_round_trip_is_bit_exact(tmp_path, monkeypatch, seed, block_cells):
    # small blocks make the reader convert the file in several pieces
    monkeypatch.setattr(dataio, "_PARSE_CELLS", block_cells)
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 40)), 1 if seed == 0 else int(rng.integers(1, 9)))
    table = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    table[0, 0] = -0.0
    names = [f"c{j}" for j in range(shape[1])]
    path = tmp_path / "t.csv"
    _write_csv(path, names, table)
    back_names, back = _read_table(path)
    assert back_names == names
    assert back.shape == shape
    np.testing.assert_array_equal(back.view(np.int64), table.view(np.int64))


def test_read_table_matches_float_per_cell(tmp_path):
    # float() reads underscores and non-ASCII digits
    cells = ["1_000", " 2 ", "+3", ".5", "5.", "1E3", "-0", "\x0c7", "1e-320", "0012",
             "\uff11", "\u0663"]
    path = _write(tmp_path / "forms.csv", "a,b\n" + "\n".join(
        f"{x},{y}" for x, y in zip(cells[::2], cells[1::2])) + "\n")
    _, table = _read_table(path)
    expected = np.array([float(c) for c in cells])
    np.testing.assert_array_equal(table.ravel().view(np.int64), expected.view(np.int64))
    # float() parses "infinity", which the reader refuses
    with pytest.raises(ParseError, match="row 3, column 'b': non-finite value 'infinity'"):
        _read_table(_write(tmp_path / "inf.csv", "a,b\n1,2\n3,infinity\n"))


def test_load_csv_crlf_and_blank_lines(tmp_path):
    path = tmp_path / "crlf.csv"
    # a byte order mark is not part of the first column's name
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + b"u,y\r\n1,2\r\n\r\n3,4\r\n\n5,6")
        ts = load_csv(str(path))
        assert ts.names == ["u", "y"]
        u, y = ts.channels.values()
        np.testing.assert_array_equal(u, [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(y, [2.0, 4.0, 6.0])


@pytest.mark.parametrize(
    "text, where",
    [
        ("u,y\n1,2\n3,4\n5,x\n", "row 4, column 'y'"),  # last row
        ("u,y\n1,2\n\n\nx,4\n", "row 5, column 'u'"),  # after blank lines
        ("u,y\r\n1,2\r\n\r\n3,nan\r\n", "row 4, column 'y': non-finite"),
        ("u\n1\n   \n2\n", "row 3, column 'u'"),  # whitespace-only line
        ("u,y\n1,2\n   \n", "row 3: expected 2 fields, got 1"),
        ("u,y\n1,2,3\n4\n", "row 2: expected 2 fields, got 3"),  # total count fits
        ('u,y\n1,"2.5"\n', "row 2, column 'y': cannot parse '\"2.5\"'"),  # quoted cell
        ("u,y\n1\n2\n", "row 2: expected 2 fields, got 1"),  # one field a line
        ("\ufeffu,y\n1,2\n3,x\n", "row 3, column 'y'"),  # byte order mark
    ],
)
def test_load_csv_bad_cell_location_counts_file_lines(tmp_path, text, where):
    with pytest.raises(ParseError) as info:
        load_csv(_write(tmp_path / "bad.csv", text))
    message = str(info.value)
    assert where in message
    assert "\n" not in message


def test_load_csv_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"u,y\n1,\xe9\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_csv(str(path))


def test_load_csv_parses_unselected_columns(tmp_path):
    path = _write(tmp_path / "tag.csv", "u,y,tag\n1,2,a\n")
    with pytest.raises(ParseError, match="column 'tag'"):
        load_csv(path)


def test_load_feature_csv_layout(tmp_path):
    path = _write(tmp_path / "f.csv", "x1,y,x2\n1,2,3\n4,5,6\n")
    X, y, names = load_feature_csv(path)
    assert names == ["x1", "x2"]
    assert X.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(X, [[1.0, 3.0], [4.0, 6.0]])
    np.testing.assert_array_equal(y, [2.0, 5.0])
    X, y, _ = load_feature_csv(_write(tmp_path / "g.csv", "a,b\n1,2\n"))
    assert X.flags["C_CONTIGUOUS"] and y is None


def test_load_csv_keeps_header_order(tmp_path):
    ts = load_csv(_write(tmp_path / "all.csv", "b,a\n1,2\n3,4\n"))
    assert ts.names == ["b", "a"]
    np.testing.assert_array_equal(ts.channels["b"], [1.0, 3.0])


def test_narx_window_tiny_example():
    ts = TimeSeries({"u": [1.0, 2.0, 3.0], "y": [4.0, 5.0, 6.0]})
    data = narx_window(ts, "u", "y", 1)
    np.testing.assert_array_equal(data.inputs, [[1, 4], [2, 5]])
    np.testing.assert_array_equal(data.labels, [5, 6])


def test_narx_window_sample_counts():
    rng = np.random.default_rng(0)
    ts = TimeSeries({"u": rng.normal(size=1018), "y": rng.normal(size=1018)})
    data = narx_window(ts, "u", "y", 5)
    assert data.n_samples == 1013
    assert data.n_features == 10


def test_narx_window_requires_enough_samples():
    ts = TimeSeries({"u": [1.0, 2.0], "y": [3.0, 4.0]})
    with pytest.raises(InsufficientData):
        narx_window(ts, "u", "y", 2)
    with pytest.raises(ValueError):
        narx_window(ts, "u", "y", 0)


def test_narx_window_rows_shift_by_one():
    rng = np.random.default_rng(1)
    ts = TimeSeries({"u": rng.normal(size=40), "y": rng.normal(size=40)})
    d = 4
    data = narx_window(ts, "u", "y", d)
    for i in range(data.n_samples - 1):
        np.testing.assert_array_equal(data.inputs[i + 1, : d - 1], data.inputs[i, 1:d])
        np.testing.assert_array_equal(data.inputs[i + 1, d : 2 * d - 1], data.inputs[i, d + 1 :])


def test_narx_window_missing_channel():
    ts = TimeSeries({"u": [1.0] * 5, "y": [2.0] * 5})
    with pytest.raises(ChannelMissing):
        narx_window(ts, "u", "z", 1)


def test_multichannel_window_feature_count():
    rng = np.random.default_rng(2)
    names = [f"ch{i}" for i in range(9)]
    ts = TimeSeries({name: rng.normal(size=120) for name in names + ["lat"]})
    data = multichannel_window(ts, names, 40, "lat")
    assert data.n_features == 360
    assert data.n_samples == 3


def test_multichannel_window_degenerate():
    ts = TimeSeries({"a": [1.0, 2.0, 3.0]})
    data = multichannel_window(ts, ["a"], 1, "a")
    assert data.n_features == 1
    assert data.n_samples == 3
    np.testing.assert_array_equal(data.labels, [0.0, 0.0, 0.0])


def test_multichannel_window_non_overlapping_blocks():
    ts = TimeSeries(
        {
            "a": np.arange(8.0),
            "b": np.arange(8.0) * 10,
            "c": np.arange(8.0) * 100,
            "p": np.arange(8.0) ** 2,
        }
    )
    data = multichannel_window(ts, ["a", "b", "c"], 4, "p")
    assert data.n_samples == 2
    np.testing.assert_array_equal(
        data.inputs[0], [0, 1, 2, 3, 0, 10, 20, 30, 0, 100, 200, 300]
    )
    np.testing.assert_array_equal(
        data.inputs[1], [4, 5, 6, 7, 40, 50, 60, 70, 400, 500, 600, 700]
    )
    # block labels are last-minus-first of the label channel
    np.testing.assert_array_equal(data.labels, [9.0 - 0.0, 49.0 - 16.0])


def test_multichannel_window_errors():
    ts = TimeSeries({"a": [1.0, 2.0], "p": [0.0, 1.0]})
    with pytest.raises(ChannelMissing):
        multichannel_window(ts, ["missing"], 1, "p")
    with pytest.raises(InsufficientData):
        multichannel_window(ts, ["a"], 3, "p")
    with pytest.raises(ValueError):
        multichannel_window(ts, [], 1, "p")


def test_split_sizes():
    def make(N):
        return Dataset(np.arange(N, dtype=float)[:, None], np.arange(N, dtype=float))

    tr, te = split(make(10), SplitSpec(0.5))
    assert (tr.n_samples, te.n_samples) == (5, 5)
    tr, te = split(make(1013), SplitSpec(0.5))
    assert (tr.n_samples, te.n_samples) == (506, 507)
    tr, te = split(make(2), SplitSpec(0.5))
    assert (tr.n_samples, te.n_samples) == (1, 1)


def test_split_preserves_order_and_content():
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(size=(20, 3)), rng.normal(size=20))
    tr, te = split(data, SplitSpec(0.3))
    np.testing.assert_array_equal(np.vstack([tr.inputs, te.inputs]), data.inputs)
    np.testing.assert_array_equal(np.concatenate([tr.labels, te.labels]), data.labels)


def test_split_rejects_degenerate_cases():
    data = Dataset(np.ones((1, 2)), np.ones(1))
    with pytest.raises(InsufficientData):
        split(data, SplitSpec(0.5))
    small = Dataset(np.ones((3, 2)), np.ones(3))
    with pytest.raises(InsufficientData):
        split(small, SplitSpec(0.01))


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_windowing_and_split_copy_no_features():
    # windowing and splitting build no feature array: each side's features
    # and labels are read-only views of the series' channels
    ts = synth_narx(40000, seed=3)
    x_bytes = 8 * (ts.length - 20) * 40
    data, peak = _traced_peak(lambda: narx_window(ts, "u", "y", 20))
    assert peak <= 0.01 * x_bytes
    (train, test), peak = _traced_peak(lambda: split(data, SplitSpec(0.5)))
    assert peak <= 0.01 * x_bytes
    for side in (train, test):
        u_rows, y_rows = side.features.parts
        assert np.shares_memory(u_rows, ts.channels["u"])
        assert np.shares_memory(y_rows, ts.channels["y"])
        assert np.shares_memory(side.labels, ts.channels["y"])
        assert not u_rows.flags.writeable and not side.labels.flags.writeable
    # evaluating the windowed rows holds one block of them and its product
    # with Zbar1 at a time: half the walk budget, a few row-length vectors
    # and the output
    spec = ConvSpec(40, 5)
    theta = np.random.default_rng(3).uniform(-1, 1, spec.n_weights)
    model = reconstruct(theta, spec, RELU_MIMIC)
    rows = core._walk_rows(4 * spec.n)
    assert len(_slices(test.n_samples, rows)) == 4
    for evaluate in (predict_batch, sensitivity_batch):
        out, peak = _traced_peak(lambda: evaluate(model, test.features))
        assert peak <= core._WALK_BYTES / 2 + 4 * 8 * rows + out.nbytes
    for side in (train, test):
        assert not side.inputs.flags.writeable


def _narx_reference(ts, d):
    u, y = ts.channels["u"], ts.channels["y"]
    times = range(d, ts.length)
    return np.array([np.concatenate([u[t - d : t], y[t - d : t]]) for t in times]), y[d:]


def _block_reference(ts, names, r, label):
    blocks = range(ts.length // r)
    rows = [np.concatenate([ts.channels[c][i * r : (i + 1) * r] for c in names]) for i in blocks]
    p = ts.channels[label]
    return np.array(rows), np.array([p[i * r + r - 1] - p[i * r] for i in blocks])


@pytest.mark.parametrize("window", ["narx", "multichannel", "array"])
def test_window_row_blocks_equal_the_materialized_rows(window):
    ts = synth_narx(103, seed=5)
    if window == "multichannel":
        data = multichannel_window(ts, ["y", "u"], 3, "u")
        rows, labels = _block_reference(ts, ["y", "u"], 3, "u")
    else:
        rows, labels = _narx_reference(ts, 4)
        data = narx_window(ts, "u", "y", 4) if window == "narx" else Dataset(rows, labels)
    assert data.features.shape == rows.shape
    train, test = split(data, SplitSpec(0.4))
    k = train.n_samples
    assert train.labels.tobytes() == labels[:k].tobytes()
    assert test.labels.tobytes() == labels[k:].tobytes()
    for side, expected in ((train, rows[:k]), (test, rows[k:])):
        N = side.n_samples
        assert N % 8  # so the last 8-row block is partial
        # 8-row and one-row blocks, from the first row of each side of the
        # split to its last
        for size in (8, 1):
            blocks = [side.features[r] for r in _slices(N, size)]
            assert np.vstack(blocks).tobytes() == expected.tobytes()
            # fill_rows writes the same rows into an out of either order
            # with room to spare around it, as the solver's QR stack is
            for order in "CF":
                for r in _slices(N, size):
                    room = np.full((r.stop - r.start + 2, rows.shape[1] + 1), np.nan, order=order)
                    out = room[2:, :-1]
                    assert side.features.fill_rows(r, out) is out
                    assert out.tobytes() == expected[r].tobytes()
                    assert np.isnan(room[:2]).all() and np.isnan(room[:, -1]).all()
        if window == "array":
            # each side's rows are views of the dataset's inputs, not copies
            assert all(np.shares_memory(side.features[r], data.inputs) for r in _slices(N, 8))
        assert side.inputs.tobytes() == expected.tobytes()
    assert data.inputs.tobytes() == rows.tobytes()


def test_window_split_fit_and_evaluation_hold_no_feature_array(monkeypatch):
    # blocks small beside the features, as the solver's and the model's
    # walks take them on a long series
    solver._blas_lapack()  # loaded before tracing, as the first fit would

    monkeypatch.setattr(core, "_WALK_BYTES", 1 << 18)
    monkeypatch.setattr(solver, "_block_rows", lambda p: 512)
    ts = synth_narx(40000, seed=3)
    x_bytes = 8 * (ts.length - 10) * 20

    def pipeline():
        train, test = split(narx_window(ts, "u", "y", 10), SplitSpec(0.5))
        results = fit_path(train, ConvSpec(20, 3), RELU_MIMIC, [0.0, 1.0])
        return test, [predict_batch(r.model, test.features) for r in results]

    (test, predictions), peak = _traced_peak(pipeline)
    assert peak <= 0.2 * x_bytes
    assert isinstance(test.features, _Rows) and len(test.features.parts) == 2
    # the beta = 0 fit represents the noise-free series exactly
    assert mse(predictions[0], test.labels) < 1e-20


def test_dataset_holds_a_read_only_view_of_the_callers_arrays():
    rng = np.random.default_rng(6)
    X, y = rng.normal(size=(40, 4)), rng.normal(size=40)
    data = Dataset(X, y)
    assert np.shares_memory(data.inputs, X) and np.shares_memory(data.labels, y)
    assert not data.inputs.flags.writeable and not data.labels.flags.writeable
    assert X.flags.writeable and y.flags.writeable

    def theta(data):
        return fit(data, ConvSpec(4, 2), RELU_MIMIC).report.theta.tobytes()

    # anything but a native float64 array is converted once, not shared,
    # and fits as its float64 values do
    X32, y32 = X.astype(np.float32), y.astype(np.float32)
    Xint, yint = np.rint(10 * X).astype(int), np.rint(10 * y).astype(int)
    for inputs, labels, values in [
        (X.tolist(), y.tolist(), (X, y)),
        (X.astype(">f8"), y.astype(">f8"), (X, y)),
        (X32, y32, (X32.astype(float), y32.astype(float))),
        (Xint, yint, (Xint.astype(float), yint.astype(float))),
    ]:
        converted = Dataset(inputs, labels)
        assert not np.shares_memory(converted.inputs, inputs)
        assert not np.shares_memory(converted.labels, labels)
        assert theta(converted) == theta(Dataset(*values))

    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (17, 2), (39, 3)):
            Xbad, ybad = X.copy(), y.copy()
            Xbad[i, j], ybad[i] = bad, bad
            for args in ((Xbad, y), (X, ybad)):
                with pytest.raises(NonFiniteInput, match="dataset contains non-finite values"):
                    Dataset(*args)


def test_dataset_and_fits_hold_no_copy_of_the_callers_inputs():
    solver._blas_lapack()  # loaded before tracing, as the first fit would

    rng = np.random.default_rng(8)
    X, Y = rng.standard_normal((20000, 200)), rng.standard_normal((3, 20000))
    _, peak = _traced_peak(lambda: Dataset(X, Y[0]))
    assert peak < 0.01 * X.nbytes
    # three fits of one X, each below the solver's block workspace, the
    # p x p Gram and 1% of X: no fit holds an N x n array
    spec = ConvSpec(200, 3)
    core.band_index_map(spec)  # cached; keep its allocation out of the measurement
    p = spec.n_weights
    for y in Y:
        result, peak = _traced_peak(lambda: fit(Dataset(X, y), spec, RELU_MIMIC))
        assert result.report.solve_strategy == "cholesky"
        assert peak < 8 * p * core._walk_rows(p) + 8 * p * p + 0.01 * X.nbytes


@pytest.mark.parametrize("walk_bytes", [None, 1 << 12], ids=["held H", "walked H"])
def test_fit_reads_the_inputs_in_any_memory_layout(monkeypatch, walk_bytes):
    if walk_bytes:
        monkeypatch.setattr(core, "_WALK_BYTES", walk_bytes)
    rng = np.random.default_rng(9)
    big, Y = rng.normal(size=(1200, 8)), rng.normal(size=(600, 2))
    X, y = big[::2], Y[:, 0]

    def theta(inputs, labels):
        return fit(Dataset(inputs, labels), ConvSpec(8, 3), RELU_MIMIC).report.theta.tobytes()

    expected = theta(np.ascontiguousarray(X), y.copy())
    for inputs in (X.copy(order="C"), np.asfortranarray(X), X):
        assert theta(inputs, y) == expected


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(0.0)
    with pytest.raises(ValueError):
        SplitSpec(1.0)


def test_synth_narx_deterministic_per_seed():
    a = synth_narx(100, seed=42)
    b = synth_narx(100, seed=42)
    c = synth_narx(100, seed=43)
    np.testing.assert_array_equal(a.channels["u"], b.channels["u"])
    np.testing.assert_array_equal(a.channels["y"], b.channels["y"])
    assert not np.array_equal(a.channels["y"], c.channels["y"])


def test_synth_narx_minimum_length():
    with pytest.raises(ValueError):
        synth_narx(10)


def test_synth_narx_end_to_end_training_error():
    ts = synth_narx(200, seed=7)
    data = narx_window(ts, "u", "y", 5)
    params = ActivationParams(0.0937, 0.5, 0.4688)
    result = fit(data, ConvSpec(10, 3), params)
    train_mse = mse(predict_batch(result.model, data.inputs), data.labels)
    assert train_mse < np.var(data.labels) / 10


def test_dataset_csv_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(4)
    data = Dataset(rng.normal(size=(17, 4)), rng.normal(size=17))
    path = tmp_path / "data.csv"
    dataset_to_csv(data, path)
    X, y, names = load_feature_csv(str(path))
    assert names == ["x1", "x2", "x3", "x4"]
    np.testing.assert_array_equal(X, data.inputs)
    np.testing.assert_array_equal(y, data.labels)


def test_series_csv_round_trip_is_lossless(tmp_path):
    ts = synth_narx(50, seed=1)
    path = tmp_path / "series.csv"
    series_to_csv(ts, path)
    back = load_csv(str(path))
    np.testing.assert_array_equal(back.channels["u"], ts.channels["u"])
    np.testing.assert_array_equal(back.channels["y"], ts.channels["y"])


def test_mse_definition():
    assert mse([1.0, 2.0], [0.0, 4.0]) == pytest.approx((1 + 4) / 2)
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0])


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries({})
    with pytest.raises(ValueError):
        TimeSeries({"a": [1.0, 2.0], "b": [1.0]})
    with pytest.raises(ValueError):
        TimeSeries({"a": [1.0, np.nan]})
