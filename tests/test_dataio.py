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
