import numpy as np
import pytest

from quadconv import (
    ActivationParams,
    ChannelMissing,
    ConvSpec,
    Dataset,
    InsufficientData,
    MissingColumn,
    ParseError,
    SplitSpec,
    TimeSeries,
    dataset_to_csv,
    fit,
    load_csv,
    load_feature_csv,
    mse,
    multichannel_window,
    narx_window,
    predict_batch,
    series_to_csv,
    split,
    synth_narx,
)
from quadconv import dataio
from quadconv.dataio import _read_table, _write_csv


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_long_series(tmp_path):
    lines = ["u,y"] + [f"{i * 0.5},{i * 0.25}" for i in range(1018)]
    ts = load_csv(_write(tmp_path / "arm.csv", "\n".join(lines) + "\n"), ["u", "y"])
    assert ts.length == 1018
    assert ts.channels["u"][2] == 1.0
    assert ts.channels["y"][-1] == 1017 * 0.25


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(str(tmp_path / "nope.csv"), ["u"])


def test_load_csv_empty_data_section(tmp_path):
    with pytest.raises(ParseError, match="no data rows"):
        load_csv(_write(tmp_path / "empty.csv", "u,y\n"), ["u", "y"])


def test_load_csv_reports_bad_cell_location(tmp_path):
    text = "u,y\n1.0,2.0\n1.5,oops\n"
    with pytest.raises(ParseError, match="row 3, column 'y'"):
        load_csv(_write(tmp_path / "bad.csv", text), ["u", "y"])


def test_load_csv_rejects_non_finite_cell(tmp_path):
    with pytest.raises(ParseError, match="non-finite"):
        load_csv(_write(tmp_path / "inf.csv", "u\n1.0\ninf\n"), ["u"])


def test_load_csv_missing_column(tmp_path):
    with pytest.raises(MissingColumn, match="'z'"):
        load_csv(_write(tmp_path / "cols.csv", "u,y\n1,2\n"), ["u", "z"])


def test_load_csv_ragged_row(tmp_path):
    with pytest.raises(ParseError, match="row 3"):
        load_csv(_write(tmp_path / "ragged.csv", "u,y\n1,2\n3\n"), ["u", "y"])


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
    cells = ["1_000", " 2 ", "+3", ".5", "5.", "1E3", "-0", "\x0c7", "1e-320", "0012"]
    path = _write(tmp_path / "forms.csv", "a,b\n" + "\n".join(
        f"{x},{y}" for x, y in zip(cells[::2], cells[1::2])) + "\n")
    _, table = _read_table(path)
    expected = np.array([float(c) for c in cells])
    np.testing.assert_array_equal(table.ravel().view(np.int64), expected.view(np.int64))


def test_load_csv_crlf_and_blank_lines(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"u,y\r\n1,2\r\n\r\n3,4\r\n\n5,6")
    ts = load_csv(str(path))
    np.testing.assert_array_equal(ts.channels["u"], [1.0, 3.0, 5.0])
    np.testing.assert_array_equal(ts.channels["y"], [2.0, 4.0, 6.0])


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
        load_csv(path, ["u", "y"])


def test_load_feature_csv_layout(tmp_path):
    path = _write(tmp_path / "f.csv", "x1,y,x2\n1,2,3\n4,5,6\n")
    X, y, names = load_feature_csv(path)
    assert names == ["x1", "x2"]
    assert X.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(X, [[1.0, 3.0], [4.0, 6.0]])
    np.testing.assert_array_equal(y, [2.0, 5.0])
    X, y, _ = load_feature_csv(_write(tmp_path / "g.csv", "a,b\n1,2\n"))
    assert X.flags["C_CONTIGUOUS"] and y is None


def test_load_csv_default_schema_keeps_header_order(tmp_path):
    ts = load_csv(_write(tmp_path / "all.csv", "b,a\n1,2\n3,4\n"), None)
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
    back = load_csv(str(path), ["u", "y"])
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
