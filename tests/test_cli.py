import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from quadconv import (
    RELU_MIMIC,
    ConvSpec,
    SplitSpec,
    deserialize,
    load_csv,
    load_feature_csv,
    narx_window,
    dataset_to_csv,
    predict_batch,
    series_to_csv,
    split,
    synth_narx,
    validate_activation,
)
from quadconv import model as model_module
from quadconv.cli import main
from quadconv.solver import _check_betas


@pytest.fixture()
def series_csv(tmp_path):
    path = tmp_path / "series.csv"
    series_to_csv(synth_narx(600, seed=1), path)
    return str(path)


def _train_args(series_csv, tmp_path, **overrides):
    args = {
        "--data": series_csv,
        "--mode": "narx",
        "--d": "5",
        "--f": "3",
        "--out": str(tmp_path / "model.json"),
        "--metrics": str(tmp_path / "metrics.csv"),
    }
    args.update(overrides)
    flat = ["train"]
    for k, v in args.items():
        if v is not None:
            flat += [k, v]
    return flat


def test_train_writes_model_and_metrics(series_csv, tmp_path, capsys):
    assert main(_train_args(series_csv, tmp_path)) == 0
    out = capsys.readouterr().out
    assert "test_mse=" in out
    model = deserialize((tmp_path / "model.json").read_text())
    assert model.spec.n == 10 and model.spec.f == 3
    header, row = (tmp_path / "metrics.csv").read_text().splitlines()
    assert header.startswith("beta,f,n,")
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["test_mse"]) < 1e-6  # representable dynamics
    assert fields["n_train"] == "297" and fields["n_test"] == "298"


def test_train_model_bytes_deterministic(series_csv, tmp_path):
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    assert main(_train_args(series_csv, tmp_path, **{"--out": str(out1), "--metrics": None})) == 0
    assert main(_train_args(series_csv, tmp_path, **{"--out": str(out2), "--metrics": None})) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_train_beta_sweep_writes_one_model_per_beta(series_csv, tmp_path):
    args = _train_args(series_csv, tmp_path, **{"--beta": "0.1,1,10,100"})
    assert main(args) == 0
    norms = []
    for beta in ("0.1", "1", "10", "100"):
        path = tmp_path / f"model_beta{beta}.json"
        assert path.exists()
        m = deserialize(path.read_text())
        band = m.zbar1_band.copy()
        band[m.spec.n :] *= 2.0
        norms.append(float(np.linalg.norm(np.concatenate([band, m.zbar2]))))
    for lo, hi in zip(norms, norms[1:]):
        assert hi <= lo + 1e-10
    metrics = (tmp_path / "metrics.csv").read_text().splitlines()
    assert len(metrics) == 5  # header + one row per beta


def test_negative_zero_beta_is_beta_zero(series_csv, tmp_path, capsys):
    # -0 is the ridge weight 0: printed, recorded and fitted as 0
    zero = _train_args(series_csv, tmp_path, **{"--beta": "0", "--metrics": None,
                                                 "--out": str(tmp_path / "zero.json")})
    assert main(zero) == 0
    capsys.readouterr()
    assert main(_train_args(series_csv, tmp_path, **{"--beta": "-0"})) == 0
    assert capsys.readouterr().out.startswith("beta=0 ")
    header, row = (tmp_path / "metrics.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["beta"] == "0"
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "zero.json").read_bytes()


def _library_message(check, *args):
    with pytest.raises(ValueError) as info:
        check(*args)
    return str(info.value)


def test_train_config_errors_exit_1(series_csv, tmp_path, capsys):
    # a rejected --f, --f-list, --beta or activation prints one line in the
    # library's words
    def train(flag, value):
        return _train_args(series_csv, tmp_path, **{flag: value})

    bench = ["bench", "--data", series_csv, "--d", "5", "--out", str(tmp_path / "b.csv")]
    a, c = RELU_MIMIC.a, RELU_MIMIC.c
    rejected = [
        (train("--f", "11"), ConvSpec, 10, 11),  # f > n = 10
        (train("--f", "0"), ConvSpec, 10, 0),
        (bench + ["--f-list", "3,11"], ConvSpec, 10, 11),
        (bench + ["--f-list", "0"], ConvSpec, 10, 0),
        (train("--beta", "-1"), _check_betas, [-1.0]),
        (train("--beta", "nan"), _check_betas, [np.nan]),
        (train("--beta", "0,inf"), _check_betas, [0.0, np.inf]),
        (train("--beta", ","), _check_betas, []),
        # an infinite b would pass the discriminant check as inf >= 0
        (train("--beta", "0") + ["--b=inf"], validate_activation, a, np.inf, c),
        (train("--beta", "0") + ["--b=-inf"], validate_activation, a, -np.inf, c),
    ]
    for argv, check, *args in rejected:
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"config error: {_library_message(check, *args)}\n"
    assert list(tmp_path.iterdir()) == [Path(series_csv)]
    assert main(_train_args(series_csv, tmp_path, **{"--a": "-0.5"})) == 1
    assert main(_train_args(series_csv, tmp_path, **{"--d": None})) == 1
    capsys.readouterr()
    assert main(["train", "--data", series_csv]) == 1  # missing required flags
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: quadconv train ")
    assert err[-1].startswith("quadconv train: error: the following arguments are required: --f")
    # window mode with r = 1: a block's first and last sample coincide, so
    # every label would be 0
    window_r1 = ["--mode", "window", "--r", "1", "--label", "y", "--channels", "u"]
    capsys.readouterr()
    assert main(_train_args(series_csv, tmp_path, **{"--d": None, "--f": "1"}) + window_r1) == 1
    assert main(["bench", "--data", series_csv, "--f-list", "1",
                 "--out", str(tmp_path / "b.csv")] + window_r1) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("config error: --r") for line in err)
    # mode arguments are checked before the data file is read
    missing = str(tmp_path / "missing.csv")
    assert main(_train_args(missing, tmp_path, **{"--d": None})) == 1
    assert main(_train_args(missing, tmp_path, **{"--d": None, "--f": "1"}) + window_r1) == 1
    assert main(["bench", "--data", missing, "--f-list", "1",
                 "--out", str(tmp_path / "b.csv")] + window_r1) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("config error:") for line in err)


@pytest.mark.parametrize("command", ["train", "bench"])
def test_windowed_dataset_is_freed_before_the_fit(series_csv, tmp_path, monkeypatch, command):
    import quadconv.cli as cli

    refs = []

    def window(*args):
        data = narx_window(*args)
        refs.append(weakref.ref(data))
        return data

    def freed(fit):
        def check(*args):
            gc.collect()
            assert refs and all(ref() is None for ref in refs)
            return fit(*args)
        return check

    monkeypatch.setattr(cli, "narx_window", window)
    monkeypatch.setattr(cli, "fit_path", freed(cli.fit_path))
    monkeypatch.setattr(cli, "fit", freed(cli.fit))
    if command == "train":
        argv = _train_args(series_csv, tmp_path)
    else:
        argv = ["bench", "--data", series_csv, "--d", "5", "--f-list", "3",
                "--out", str(tmp_path / "b.csv"), "--repeats", "1"]
    assert main(argv) == 0


@pytest.mark.parametrize("command", ["train", "bench"])
def test_only_the_test_rows_are_evaluated(series_csv, tmp_path, monkeypatch, command):
    # the training error comes from the solve's residual norm, so each fit
    # evaluates its model once, on the 298 test rows
    import quadconv.cli as cli

    rows = []

    def recorded(model, X):
        rows.append(X.shape[0])
        return predict_batch(model, X)

    monkeypatch.setattr(cli, "predict_batch", recorded)
    if command == "train":
        argv, fits = _train_args(series_csv, tmp_path, **{"--beta": "0,1,10"}), 3
    else:
        argv, fits = ["bench", "--data", series_csv, "--d", "5", "--f-list", "3",
                      "--out", str(tmp_path / "b.csv"), "--repeats", "1"], 2  # f = 3, 10
    assert main(argv) == 0
    assert rows == [298] * fits


def test_train_warns_about_rank_deficient_fits(tmp_path, capsys):
    # 30 samples, d = 5: 12 training rows for 37 weights
    from quadconv import TimeSeries

    rng = np.random.default_rng(3)
    path = tmp_path / "short.csv"
    series_to_csv(TimeSeries({"u": rng.normal(size=30), "y": rng.normal(size=30)}), path)
    code = main(_train_args(str(path), tmp_path, **{"--beta": "0,1"}))
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: beta=0 fit is rank deficient (route pseudoinverse")
    assert "12 training rows, 37 weights" in err[0]


@pytest.mark.parametrize("offset, warns", [(1e3, True), (50.0, False)])
def test_train_warns_when_an_ill_conditioned_fit_leaves_the_normal_equations(
    tmp_path, capsys, offset, warns
):
    # window features that sit at +1e3 make H'H + beta I too ill-conditioned
    # for the normal equations, so the beta goes to the QR route; at +50 the
    # Cholesky route holds and nothing is printed
    from quadconv import TimeSeries

    rng = np.random.default_rng(0)
    a, b = rng.uniform(-1, 1, 600) + offset, rng.uniform(-1, 1, 600) + offset
    path = tmp_path / "offset.csv"
    series_to_csv(TimeSeries({"a": a, "b": b, "lat": np.cumsum(0.1 * a * b + a)}), path)
    argv = ["train", "--data", str(path), "--mode", "window", "--r", "4", "--label", "lat",
            "--f", "3", "--out", str(tmp_path / "m.json")]
    assert main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    if warns:
        assert len(err) == 1
        assert err[0].startswith("warning: beta=0 fit is ill-conditioned (route pseudoinverse, rcond ")
    else:
        assert err == []


def test_bench_warns_about_rank_deficient_fits_as_train_does(tmp_path, capsys):
    # at beta = 0 the fits on this series are rank deficient, so train warns
    path = tmp_path / "series.csv"
    series_to_csv(synth_narx(400, seed=0), path)
    data = ["--data", str(path), "--d", "3"]
    assert main(["train", *data, "--f", "2", "--out", str(tmp_path / "m.json")]) == 0
    train_err = capsys.readouterr().err.splitlines()
    assert len(train_err) == 1
    assert train_err[0].startswith("warning: beta=0 fit is rank deficient")
    assert main(["bench", *data, "--f-list", "2", "--repeats", "2",
                 "--out", str(tmp_path / "b.csv")]) == 0
    # one line per filter length, f = 2 and the dense f = n = 6, whatever
    # the timings print
    warned = [line for line in capsys.readouterr().err.splitlines() if "rank deficient" in line]
    assert len(warned) == 2
    assert warned[0] == train_err[0]
    assert "198 training rows, 27 weights" in warned[1]


def test_train_data_errors_exit_2(series_csv, tmp_path):
    assert main(_train_args("does_not_exist.csv", tmp_path)) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("u,y\n1,zap\n")
    assert main(_train_args(str(bad), tmp_path)) == 2


# ridge keeps these noise-free fits full rank, so they print no warning
_TRAIN = ["train", "--d", "3", "--f", "2", "--beta", "1"]
_WINDOW = ["train", "--mode", "window", "--r", "2", "--label", "y", "--f", "1"]
_LAT = ["train", "--mode", "window", "--r", "2", "--label", "lat", "--f", "1"]


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A series CSV, a model trained on it and a feature CSV for that model."""
    root = tmp_path_factory.mktemp("scored")
    series_to_csv(synth_narx(200, seed=2), root / "series.csv")
    argv = ["--data", str(root / "series.csv"), "--out", str(root / "model.json")]
    assert main(_TRAIN + argv) == 0
    ts = load_csv(str(root / "series.csv"))
    dataset_to_csv(narx_window(ts, "u", "y", 3), root / "features.csv")
    (root / "latin1.bin").write_bytes(b"u,y\n1,\xe9\n")
    (root / "label_only.csv").write_text("y\n" + "\n".join(map(str, range(8))) + "\n")
    # every diagonal entry is finite, but their sum, the trace, is not
    doc = json.loads((root / "model.json").read_text())
    doc["zbar1_band"][: doc["n"]] = [1.7e308] * doc["n"]
    (root / "overflow.json").write_text(json.dumps(doc))
    # model files the JSON layer itself gives up on: nesting past the
    # recursion limit, and an integer past Python's 4,300-digit limit
    (root / "deep.json").write_text("[" * 200_000)
    (root / "long_int.json").write_text('{"n": 1' + "0" * 5000 + "}")
    # a valid model file that names a field a second time, with a value the
    # first one could have had
    text = (root / "model.json").read_text().rstrip().rstrip("}")
    (root / "doubled.json").write_text(text + f', "zbar2": {json.dumps(doc["zbar2"][::-1])}}}\n')
    # finite inputs whose regressor entries, predictions or gradients
    # overflow float64
    rng = np.random.default_rng(0)
    _write_rows(root / "huge_series.csv", ["u", "y"],
                np.column_stack([rng.uniform(-1, 1, 200) * 1e160, rng.uniform(-1, 1, 200)]))
    ts = synth_narx(200, seed=2)
    u = ts.channels["u"] * np.where(np.arange(200) < 150, 1.0, 1e160)
    _write_rows(root / "huge_test_rows.csv", ["u", "y"], np.column_stack([u, ts.channels["y"]]))
    X, y, names = load_feature_csv(str(root / "features.csv"))
    X[4] *= 1e200
    _write_rows(root / "huge_row.csv", names + ["y"], np.column_stack([X, y]))
    doc = json.loads((root / "model.json").read_text())
    doc["zbar1_band"] = [100 * v for v in doc["zbar1_band"]]
    (root / "model_x100.json").write_text(json.dumps(doc))
    _write_rows(root / "max_x0.csv", names, np.full((1, len(names)), 1.7e308))
    # finite labels whose squares overflow, and a label channel whose
    # change over a block overflows
    sign = np.where(np.arange(400) % 2 == 0, 1.0, -1.0)
    u = rng.uniform(-1, 1, 400)
    _write_rows(root / "huge_labels.csv", ["u", "lat"],
                np.column_stack([u, sign * rng.uniform(0.5, 1.0, 400) * 1e300]))
    _write_rows(root / "label_change_overflows.csv", ["u", "lat"],
                np.column_stack([u, sign * 1.7e308]))
    # same-sign labels whose squares sum to a finite value, but whose
    # products with constant features sum past the float range in H'y
    _write_rows(root / "huge_gram_labels.csv", ["u", "lat"],
                np.column_stack([np.ones(400), np.where(sign > 0, 0.0, 5e152)]))
    # inputs that grow by 1e154 in the test rows: a heavily regularized
    # model predicts them, the beta = 0 one overflows
    late = np.random.default_rng(1)
    u = late.uniform(-1, 1, 400) * np.where(np.arange(400) < 210, 1.0, 1e154)
    _write_rows(root / "huge_late_inputs.csv", ["u", "y"],
                np.column_stack([u, late.uniform(-1, 1, 400)]))
    # CSVs that the reader refuses before any row is parsed
    (root / "duplicate_header.csv").write_text("u,u\n1,2\n3,4\n")
    (root / "empty.csv").write_text("")
    # model files whose JSON parses to something that is not a model: a
    # top level that is not an object, and a number JSON reads as inf
    (root / "list.json").write_text("[1, 2]")
    head, tail = (root / "model.json").read_text().split('"zbar2": [')
    (root / "inf_zbar2.json").write_text(f'{head}"zbar2": [1e999{tail[tail.index(","):]}')
    return root


def _write_rows(path, header, rows):
    lines = [",".join(header)] + [",".join(map(repr, map(float, row))) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        # a path below a regular file raises NotADirectoryError
        pytest.param(_TRAIN + ["--data", "{root}/series.csv/x", "--out", "{tmp}/m.json"],
                     2, "data error:", id="train-data-under-file"),
        pytest.param(_TRAIN + ["--data", "{root}/series.csv", "--out", "{root}/series.csv/m.json"],
                     2, "data error:", id="train-out-under-file"),
        pytest.param(_TRAIN + ["--data", "{root}/series.csv", "--out", "{tmp}/m.json",
                               "--metrics", "{root}/series.csv/m.csv"],
                     2, "data error:", id="train-metrics-under-file"),
        pytest.param(["predict", "--model", "{root}/model.json",
                      "--data", "{root}/features.csv/x", "--out", "{tmp}/p.csv"],
                     2, "data error:", id="predict-data-under-file"),
        pytest.param(["predict", "--model", "{root}/model.json",
                      "--data", "{root}/features.csv", "--out", "{root}/features.csv/p.csv"],
                     2, "data error:", id="predict-out-under-file"),
        pytest.param(["sensitivity", "--model", "{root}/model.json",
                      "--x0", "{root}/features.csv", "--out", "{root}/features.csv/g.csv"],
                     2, "data error:", id="sensitivity-out-under-file"),
        pytest.param(["bench", "--d", "3", "--f-list", "1", "--data", "{root}/series.csv",
                      "--out", "{root}/series.csv/b.csv"],
                     2, "data error:", id="bench-out-under-file"),
        # a full device fails the write (ENOSPC), a directory fails the open
        pytest.param(["predict", "--model", "{root}/model.json",
                      "--data", "{root}/features.csv", "--out", "/dev/full"],
                     2, "data error:", id="predict-out-dev-full"),
        pytest.param(["predict", "--model", "{root}/model.json",
                      "--data", "{root}/features.csv", "--out", "{tmp}"],
                     2, "data error:", id="predict-out-directory"),
        # a model whose n matches the data but whose trace overflows
        pytest.param(["predict", "--model", "{root}/overflow.json",
                      "--data", "{root}/features.csv", "--out", "{tmp}/p.csv"],
                     2, "data error: the trace of Zbar1", id="predict-model-trace-overflows"),
        pytest.param(["predict", "--model", "{root}/deep.json",
                      "--data", "{root}/features.csv", "--out", "{tmp}/p.csv"],
                     2, "data error: JSON arrays or objects are nested too deeply",
                     id="predict-model-nested-too-deeply"),
        pytest.param(["predict", "--model", "{root}/long_int.json",
                      "--data", "{root}/features.csv", "--out", "{tmp}/p.csv"],
                     2, "data error: an integer of 5001 digits is too long",
                     id="predict-model-integer-too-long"),
        pytest.param(["predict", "--model", "{root}/doubled.json",
                      "--data", "{root}/features.csv", "--out", "{tmp}/p.csv"],
                     2, "data error: field 'zbar2' appears twice",
                     id="predict-model-field-twice"),
        pytest.param(["sensitivity", "--model", "{root}/deep.json",
                      "--x0", "{root}/features.csv", "--out", "{tmp}/g.csv"],
                     2, "data error: JSON arrays or objects are nested too deeply",
                     id="sensitivity-model-nested-too-deeply"),
        pytest.param(["sensitivity", "--model", "{root}/long_int.json",
                      "--x0", "{root}/features.csv", "--out", "{tmp}/g.csv"],
                     2, "data error: an integer of 5001 digits is too long",
                     id="sensitivity-model-integer-too-long"),
        # finite inputs on which the regressor, a prediction or a gradient
        # overflows: one line, no warning and no output file
        pytest.param(_TRAIN + ["--data", "{root}/huge_series.csv", "--out", "{tmp}/m.json"],
                     2, "data error: regressor matrix contains non-finite values; "
                     "if the features are finite, a product of two of them overflowed",
                     id="train-regressor-overflows"),
        pytest.param(_TRAIN + ["--data", "{root}/huge_test_rows.csv", "--out", "{tmp}/m.json"],
                     2, "data error: test prediction at index 50 is not finite",
                     id="train-test-prediction-overflows"),
        pytest.param(["predict", "--model", "{root}/model.json",
                      "--data", "{root}/huge_row.csv", "--out", "{tmp}/p.csv"],
                     2, "data error: prediction at index 4 is not finite",
                     id="predict-output-overflows"),
        pytest.param(["sensitivity", "--model", "{root}/model_x100.json",
                      "--x0", "{root}/max_x0.csv", "--out", "{tmp}/g.csv"],
                     2, "data error: gradient at index 0 is not finite",
                     id="sensitivity-output-overflows"),
        # an activation near the smallest float, which validate_activation
        # accepts, makes the beta = 0 weights overflow
        pytest.param(_TRAIN + ["--beta", "0", "--a", "1e-320", "--b", "0", "--c", "1e-320",
                               "--data", "{root}/series.csv", "--out", "{tmp}/m.json"],
                     2, "data error: the least-squares weights overflow at beta=0",
                     id="train-weights-overflow"),
        pytest.param(_LAT + ["--data", "{root}/huge_labels.csv", "--out", "{tmp}/m.json"],
                     2, "data error: labels are too large: the sum of their squares overflows",
                     id="train-labels-overflow"),
        pytest.param(_LAT + ["--data", "{root}/huge_gram_labels.csv", "--out", "{tmp}/m.json"],
                     2, "data error: the norm of H'y overflows: the labels are too large",
                     id="train-labels-overflow-in-h-y"),
        pytest.param(_LAT + ["--data", "{root}/label_change_overflows.csv", "--out", "{tmp}/m.json"],
                     2, "data error: label channel 'lat': the change over a block of r=2 "
                     "samples overflows", id="window-label-change-overflows"),
        # a sweep whose later beta fails writes no model of an earlier one
        pytest.param(["train", "--d", "5", "--f", "3", "--beta", "1e12,0",
                      "--data", "{root}/huge_late_inputs.csv", "--out", "{tmp}/m.json"],
                     2, "data error: test prediction at index 10 is not finite: it overflows",
                     id="sweep-later-beta-overflows"),
        # a header the reader refuses, and a file with no header at all
        pytest.param(_TRAIN + ["--data", "{root}/duplicate_header.csv", "--out", "{tmp}/m.json"],
                     2, "data error: {root}/duplicate_header.csv: duplicate column names in header",
                     id="train-duplicate-header"),
        pytest.param(_TRAIN + ["--data", "{root}/empty.csv", "--out", "{tmp}/m.json"],
                     2, "data error: {root}/empty.csv: empty file (missing header row)",
                     id="train-empty-csv"),
        # JSON that parses, but not to a model
        pytest.param(["predict", "--model", "{root}/list.json",
                      "--data", "{root}/features.csv", "--out", "{tmp}/p.csv"],
                     2, "data error: model file must contain a JSON object",
                     id="predict-model-not-an-object"),
        pytest.param(["predict", "--model", "{root}/inf_zbar2.json",
                      "--data", "{root}/features.csv", "--out", "{tmp}/p.csv"],
                     2, "data error: field 'zbar2' contains non-finite values",
                     id="predict-model-number-reads-as-inf"),
        # non-UTF-8 bytes in a CSV and in a model file
        pytest.param(_TRAIN + ["--data", "{root}/latin1.bin", "--out", "{tmp}/m.json"],
                     2, "data error: {root}/latin1.bin: not UTF-8", id="train-data-not-utf8"),
        pytest.param(["predict", "--model", "{root}/latin1.bin",
                      "--data", "{root}/features.csv", "--out", "{tmp}/p.csv"],
                     2, "data error: {root}/latin1.bin: not UTF-8", id="predict-model-not-utf8"),
        # window mode over a file whose only column is the label
        pytest.param(_WINDOW + ["--data", "{root}/label_only.csv", "--out", "{tmp}/m.json"],
                     1, "config error: window mode needs a feature channel",
                     id="window-no-feature-channel"),
        # config errors win over a missing data file
        pytest.param(_WINDOW[:5] + ["--f", "1", "--data", "{tmp}/missing.csv",
                                    "--out", "{tmp}/m.json"],
                     1, "config error: window mode requires --label",
                     id="window-missing-label-and-file"),
        # a flag of the other mode is refused, not ignored, before the data
        # file is read
        pytest.param(_TRAIN + ["--r", "4", "--data", "{root}/series.csv", "--out", "{tmp}/m.json"],
                     1, "config error: --r does not apply to --mode narx", id="narx-with-r"),
        pytest.param(_TRAIN + ["--label", "y", "--data", "{tmp}/missing.csv",
                               "--out", "{tmp}/m.json"],
                     1, "config error: --label does not apply to --mode narx",
                     id="narx-with-label-and-missing-file"),
        pytest.param(_WINDOW + ["--d", "99", "--data", "{root}/series.csv", "--out", "{tmp}/m.json"],
                     1, "config error: --d does not apply to --mode window", id="window-with-d"),
        # narx mode reads exactly one input and one output channel
        pytest.param(_TRAIN + ["--channels", "u,y,nosuch", "--data", "{root}/series.csv",
                               "--out", "{tmp}/m.json"],
                     1, "config error: narx mode needs exactly two --channels (input,output), "
                     "got 3", id="narx-three-channels"),
        pytest.param(_TRAIN + ["--channels", "u", "--data", "{tmp}/missing.csv",
                               "--out", "{tmp}/m.json"],
                     1, "config error: narx mode needs exactly two --channels (input,output), "
                     "got 1", id="narx-one-channel-and-missing-file"),
        # flag values refused before any file is read
        pytest.param(_TRAIN + ["--beta", "0,x", "--data", "{tmp}/missing.csv",
                               "--out", "{tmp}/m.json"],
                     1, "config error: cannot parse --beta '0,x'", id="train-beta-not-a-number"),
        pytest.param(_TRAIN + ["--channels", ",", "--data", "{tmp}/missing.csv",
                               "--out", "{tmp}/m.json"],
                     1, "config error: --channels must name at least one channel",
                     id="train-channels-blank"),
        pytest.param(["train", "--d", "0", "--f", "1", "--data", "{tmp}/missing.csv",
                      "--out", "{tmp}/m.json"],
                     1, "config error: --d must be >= 1", id="train-d-zero"),
        pytest.param(["bench", "--d", "3", "--f-list", ",", "--data", "{tmp}/missing.csv",
                      "--out", "{tmp}/b.csv"],
                     1, "config error: --f-list must contain at least one value",
                     id="bench-f-list-blank"),
        pytest.param(["bench", "--d", "3", "--f-list", "1", "--repeats", "0",
                      "--data", "{tmp}/missing.csv", "--out", "{tmp}/b.csv"],
                     1, "config error: --repeats must be >= 1", id="bench-repeats-zero"),
        # two outputs with one path: beta values whose suffixed names
        # coincide, and a metrics path equal to the model path
        pytest.param(_TRAIN + ["--beta", "0,0", "--data", "{root}/series.csv",
                               "--out", "{tmp}/m.json"],
                     1, "config error: two outputs would be written to {tmp}/m_beta0.json",
                     id="train-beta-names-clash"),
        # -0 is the weight 0, so it clashes with 0 too
        pytest.param(_TRAIN + ["--beta", "0,-0", "--data", "{root}/series.csv",
                               "--out", "{tmp}/m.json"],
                     1, "config error: two outputs would be written to {tmp}/m_beta0.json",
                     id="train-beta-negative-zero-clash"),
        pytest.param(_TRAIN + ["--beta", "1e-7,1.0000001e-7", "--data", "{root}/series.csv",
                               "--out", "{tmp}/m.json"],
                     1, "config error: two outputs would be written to {tmp}/m_beta1e-07.json",
                     id="train-close-beta-names-clash"),
        pytest.param(_TRAIN + ["--data", "{root}/series.csv", "--out", "{tmp}/m.json",
                               "--metrics", "{tmp}/m.json"],
                     1, "config error: two outputs would be written to {tmp}/m.json",
                     id="train-metrics-is-out"),
        # an output path that names an input, by any spelling, is refused
        # before anything is read, so the input is left as it was
        pytest.param(["predict", "--model", "{root}/model.json", "--data", "{root}/features.csv",
                      "--out", "{root}/./features.csv"],
                     1, "config error: an output would overwrite the input {root}/./features.csv",
                     id="predict-out-is-data"),
        pytest.param(["predict", "--model", "{root}/model.json", "--data", "{root}/features.csv",
                      "--out", "{root}/model.json"],
                     1, "config error: an output would overwrite the input {root}/model.json",
                     id="predict-out-is-model"),
        pytest.param(_TRAIN + ["--data", "{root}/series.csv", "--out", "{tmp}/m.json",
                               "--metrics", "{root}/series.csv"],
                     1, "config error: an output would overwrite the input {root}/series.csv",
                     id="train-metrics-is-data"),
        pytest.param(["sensitivity", "--model", "{root}/model.json", "--x0", "{root}/features.csv",
                      "--out", "{root}/features.csv"],
                     1, "config error: an output would overwrite the input {root}/features.csv",
                     id="sensitivity-out-is-x0"),
        # an output path that is a directory fails before the fit
        pytest.param(_TRAIN + ["--data", "{root}/series.csv", "--out", "{tmp}/m.json",
                               "--metrics", "{root}"],
                     2, "data error: [Errno 21] Is a directory: '{root}'",
                     id="train-metrics-directory"),
        # a sweep suffixes the file name of --out, so an --out that is a
        # directory, with a file name or without one, fails as it does for
        # one beta, before the data is read
        pytest.param(["train", "--d", "3", "--f", "2", "--beta", "0,1",
                      "--data", "{tmp}/missing.csv", "--out", "/"],
                     2, "data error: [Errno 21] Is a directory: '/'", id="sweep-out-root"),
        pytest.param(["train", "--d", "3", "--f", "2", "--beta", "0,1",
                      "--data", "{tmp}/missing.csv", "--out", "{tmp}"],
                     2, "data error: [Errno 21] Is a directory: '{tmp}'", id="sweep-out-directory"),
    ],
)
def test_cli_error_boundary(scored, tmp_path, capsys, argv, code, prefix):
    if "/dev/full" in argv and not Path("/dev/full").exists():
        pytest.skip("/dev/full is not available")
    fill = {"root": str(scored), "tmp": str(tmp_path)}
    inputs = {path: path.read_bytes() for path in scored.iterdir()}
    capsys.readouterr()
    assert main([a.format(**fill) for a in argv]) == code
    err = capsys.readouterr().err
    # an exception escaping main fails the test before this point
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(prefix.format(**fill))
    # a failed run leaves no model, metrics or other output behind, and
    # changes no input
    assert list(tmp_path.iterdir()) == []
    assert {path: path.read_bytes() for path in scored.iterdir()} == inputs


@pytest.mark.parametrize("command, data_flag", [("predict", "--data"), ("sensitivity", "--x0")])
def test_an_allocation_that_fails_is_a_data_error(scored, tmp_path, capsys, monkeypatch,
                                                  command, data_flag):
    # a valid 1 MB model file with n = 60000 and f = 1: QuadraticModel builds
    # its band tiles with np.zeros, 128 x 128 each at this geometry. To make
    # that allocation fail on any machine, the patched np.zeros asks numpy
    # for 2**60 bytes in place of a tile, which no allocator grants, and
    # numpy raises its MemoryError.
    doc = json.loads((scored / "model.json").read_text())
    doc.update(n=60000, f=1, zbar1_band=[0.0] * 60000, zbar2=[0.0] * 60000)
    model = tmp_path / "wide.json"
    model.write_text(json.dumps(doc))
    zeros = np.zeros
    tile = (model_module._ROW_TILE, model_module._ROW_TILE)

    def refused(shape, *args, **kwargs):
        if shape == tile:
            shape = (1 << 57,)
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refused)
    out = tmp_path / "out.csv"
    capsys.readouterr()
    argv = [command, "--model", str(model), data_flag, str(scored / "features.csv"),
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: Unable to allocate")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_a_model_with_a_long_input_and_a_narrow_band_serves(scored, tmp_path, capsys):
    # n = 60000 and f = 1: a model builds only its band tiles (about 61 MB
    # here), never a dense 60000 x 60000 Zbar1 (26.8 GiB), so predict and
    # sensitivity on one 60000-column row succeed
    n = 60000
    rng = np.random.default_rng(5)
    band, z2, x = rng.uniform(-1, 1, size=(3, n))
    doc = json.loads((scored / "model.json").read_text())
    doc.update(n=n, f=1, zbar1_band=band.tolist(), zbar2=z2.tolist())
    model = tmp_path / "long.json"
    model.write_text(json.dumps(doc))
    _write_rows(tmp_path / "row.csv", [f"x{i + 1}" for i in range(n)], [x])
    a, b, c = doc["a"], doc["b"], doc["c"]
    want = {"predict": [a * np.sum(band * x * x) + b * (z2 @ x) + c * np.sum(band)],
            "sensitivity": 2 * a * band * x + b * z2}
    for command, data_flag in [("predict", "--data"), ("sensitivity", "--x0")]:
        out = tmp_path / f"{command}.csv"
        assert main([command, "--model", str(model), data_flag, str(tmp_path / "row.csv"),
                     "--out", str(out)]) == 0
        got = np.array(out.read_text().splitlines()[1].split(",")[1:], dtype=float)
        w = np.asarray(want[command])
        assert np.linalg.norm(got - w) <= 1e-12 * np.linalg.norm(w)
    assert "rows=1" in capsys.readouterr().out


_SERIES = ["--data", "{root}/series.csv"]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(_TRAIN + _SERIES + ["--out", "{tmp}/missing/m.json"],
                     "No such file or directory: '{tmp}/missing/m.json'", id="out-missing-dir"),
        pytest.param(_TRAIN + _SERIES + ["--out", "{root}/series.csv/m.json"],
                     "Not a directory: '{root}/series.csv/m.json'", id="out-under-file"),
        pytest.param(_TRAIN + _SERIES + ["--out", "{root}/series.csv/m.json", "--beta", "0,1"],
                     "Not a directory: '{root}/series.csv/m_beta0.json'",
                     id="sweep-out-under-file"),
        pytest.param(_TRAIN + _SERIES + ["--out", "{tmp}/m.json",
                                         "--metrics", "{root}/series.csv/m.csv"],
                     "Not a directory: '{root}/series.csv/m.csv'", id="metrics-under-file"),
        pytest.param(["bench", "--d", "3", "--f-list", "1", "--out", "{root}/series.csv/b.csv"]
                     + _SERIES,
                     "Not a directory: '{root}/series.csv/b.csv'", id="bench-out-under-file"),
        pytest.param(["predict", "--model", "{root}/model.json", "--data", "{root}/features.csv",
                      "--out", "{tmp}"],
                     "Is a directory: '{tmp}'", id="predict-out-directory"),
        pytest.param(["sensitivity", "--model", "{root}/model.json", "--x0", "{root}/features.csv",
                      "--out", "{tmp}"],
                     "Is a directory: '{tmp}'", id="sensitivity-out-directory"),
    ],
)
def test_output_directories_are_checked_before_reading_data(
    scored, tmp_path, capsys, monkeypatch, argv, message
):
    def no_read(path):
        raise AssertionError(f"read {path} before checking the output paths")

    for name in ("load_csv", "load_feature_csv", "_load_model"):
        monkeypatch.setattr(f"quadconv.cli.{name}", no_read)
    fill = {"root": str(scored), "tmp": str(tmp_path)}
    capsys.readouterr()
    assert main([a.format(**fill) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.rstrip().endswith(message.format(**fill))
    assert list(tmp_path.iterdir()) == []


def test_closed_stdout_exits_quietly(scored, tmp_path):
    # the reader closes the pipe before the command prints anything
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quadconv", "predict", "--model", str(scored / "model.json"),
             "--data", str(scored / "features.csv"), "--out", str(tmp_path / "p.csv")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""
    # the predictions file is written in full before the summary line
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines[0] == "index,y_true,y_pred" and len(lines) > 1


def test_serving_never_loads_scipy(scored, tmp_path):
    # predict and sensitivity need only numpy; scipy loads at the first solve
    script = (
        "import sys\n"
        "from quadconv.cli import main\n"
        f"root, tmp = {str(scored)!r}, {str(tmp_path)!r}\n"
        "assert main(['predict', '--model', root + '/model.json',\n"
        "             '--data', root + '/features.csv', '--out', tmp + '/p.csv']) == 0\n"
        "assert main(['sensitivity', '--model', root + '/model.json',\n"
        "             '--x0', root + '/features.csv', '--out', tmp + '/g.csv']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_train_window_mode(tmp_path):
    rng = np.random.default_rng(0)
    from quadconv import TimeSeries

    names = [f"s{i}" for i in range(3)]
    channels = {name: rng.normal(size=240) for name in names}
    channels["pos"] = np.cumsum(rng.normal(size=240)) * 0.01
    path = tmp_path / "multi.csv"
    series_to_csv(TimeSeries(channels), path)
    code = main(
        [
            "train",
            "--data", str(path),
            "--mode", "window",
            "--r", "4",
            "--label", "pos",
            "--f", "3",
            "--beta", "0.1",
            "--out", str(tmp_path / "win.json"),
        ]
    )
    assert code == 0
    model = deserialize((tmp_path / "win.json").read_text())
    assert model.spec.n == 12  # 3 channels x r=4


def test_predict_round_trip_reproduces_training_mse(series_csv, tmp_path, capsys):
    assert main(_train_args(series_csv, tmp_path)) == 0
    header, row = (tmp_path / "metrics.csv").read_text().splitlines()
    reported = float(dict(zip(header.split(","), row.split(",")))["train_mse"])

    ts = load_csv(series_csv)
    train_set, _ = split(narx_window(ts, "u", "y", 5), SplitSpec(0.5))
    features = tmp_path / "train_features.csv"
    dataset_to_csv(train_set, features)

    capsys.readouterr()
    code = main(
        [
            "predict",
            "--model", str(tmp_path / "model.json"),
            "--data", str(features),
            "--out", str(tmp_path / "pred.csv"),
        ]
    )
    assert code == 0
    lines = (tmp_path / "pred.csv").read_text().splitlines()
    assert lines[0] == "index,y_true,y_pred"
    assert len(lines) == train_set.n_samples + 1
    recomputed = np.mean(
        [(float(r.split(",")[1]) - float(r.split(",")[2])) ** 2 for r in lines[1:]]
    )
    assert abs(recomputed - reported) <= 1e-12 * max(1.0, reported)


def test_predict_reports_an_overflowing_mse_as_inf(scored, tmp_path, capsys):
    # the prediction on row 4 is finite, but its squared error is not
    X, y, names = load_feature_csv(str(scored / "features.csv"))
    X[4] *= 1e80
    _write_rows(tmp_path / "f.csv", names + ["y"], np.column_stack([X, y]))
    argv = ["predict", "--model", str(scored / "model.json"), "--data", str(tmp_path / "f.csv"),
            "--out", str(tmp_path / "p.csv")]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("mse=inf rows=197 ")
    assert captured.err == ""


def test_predict_zero_row_gives_constant_term(series_csv, tmp_path):
    assert main(_train_args(series_csv, tmp_path)) == 0
    model = deserialize((tmp_path / "model.json").read_text())
    x0 = tmp_path / "zero.csv"
    x0.write_text(",".join(f"x{i+1}" for i in range(10)) + "\n" + ",".join(["0"] * 10) + "\n")
    code = main(
        ["predict", "--model", str(tmp_path / "model.json"), "--data", str(x0),
         "--out", str(tmp_path / "p.csv")]
    )
    assert code == 0
    value = float((tmp_path / "p.csv").read_text().splitlines()[1].split(",")[1])
    assert value == pytest.approx(model.params.c * model.zbar4, rel=1e-12)


def test_predict_dimension_mismatch_exits_2(series_csv, tmp_path):
    assert main(_train_args(series_csv, tmp_path)) == 0
    x0 = tmp_path / "narrow.csv"
    x0.write_text("x1,x2\n0,0\n")
    code = main(
        ["predict", "--model", str(tmp_path / "model.json"), "--data", str(x0),
         "--out", str(tmp_path / "p.csv")]
    )
    assert code == 2
    labels_only = tmp_path / "labels_only.csv"
    labels_only.write_text("y\n1\n")
    code = main(
        ["predict", "--model", str(tmp_path / "model.json"), "--data", str(labels_only),
         "--out", str(tmp_path / "p.csv")]
    )
    assert code == 2


def test_sensitivity_origin_gives_linear_term(series_csv, tmp_path):
    assert main(_train_args(series_csv, tmp_path)) == 0
    model = deserialize((tmp_path / "model.json").read_text())
    x0 = tmp_path / "zero.csv"
    x0.write_text(",".join(f"x{i+1}" for i in range(10)) + "\n" + ",".join(["0"] * 10) + "\n")
    out = tmp_path / "grad.csv"
    code = main(
        ["sensitivity", "--model", str(tmp_path / "model.json"), "--x0", str(x0),
         "--out", str(out), "--summary"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index," + ",".join(f"g{i+1}" for i in range(10))
    grad = np.array([float(v) for v in lines[1].split(",")[1:]])
    np.testing.assert_allclose(grad, model.params.b * model.zbar2, rtol=1e-12)
    assert lines[-1].startswith("max_abs,")


def test_sensitivity_empty_x0_exits_2(series_csv, tmp_path):
    assert main(_train_args(series_csv, tmp_path)) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(f"x{i+1}" for i in range(10)) + "\n")
    labels_only = tmp_path / "labels_only.csv"
    labels_only.write_text("y\n1\n")
    for x0 in (empty, labels_only):
        code = main(
            ["sensitivity", "--model", str(tmp_path / "model.json"), "--x0", str(x0),
             "--out", str(tmp_path / "g.csv")]
        )
        assert code == 2


def test_verify_passes_and_is_deterministic(capsys):
    assert main(["verify", "--seed", "3", "--instances", "25"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--seed", "3", "--instances", "25"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "all suites passed" in first


def test_verify_zero_instances_warns(capsys):
    assert main(["verify", "--instances", "0"]) == 0
    out = capsys.readouterr().out
    assert "vacuous" in out


def test_verify_config_errors_exit_1(capsys):
    assert main(["verify", "--seed", "-1", "--instances", "1"]) == 1
    assert main(["verify", "--instances", "-1"]) == 1
    assert capsys.readouterr().err.count("config error:") == 2


def test_verify_failure_exits_3(monkeypatch):
    from quadconv.verify import SuiteResult
    import quadconv.cli as cli

    monkeypatch.setattr(
        cli,
        "run_all_checks",
        lambda seed, instances: [SuiteResult("forced", 1, 1.0, 1e-10, False)],
    )
    assert main(["verify", "--instances", "1"]) == 3


def test_bench_table(series_csv, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--data", series_csv, "--d", "5", "--f-list", "3",
         "--out", str(out), "--repeats", "2"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,f,train_mse,test_mse,train_time_s"
    assert len(lines) == 3
    assert lines[1].startswith("ls-cqnn,3,")
    assert lines[2].startswith("ls-qnn,10,")

    # identical data and config give identical error columns
    out2 = tmp_path / "bench2.csv"
    main(["bench", "--data", series_csv, "--d", "5", "--f-list", "3",
          "--out", str(out2), "--repeats", "2"])
    cols1 = [r.split(",")[:4] for r in out.read_text().splitlines()]
    cols2 = [r.split(",")[:4] for r in out2.read_text().splitlines()]
    assert cols1 == cols2


def test_bench_banded_not_slower_than_dense_when_it_matters(tmp_path):
    # full-rank noise data at a size where the dense solve does ~30x more
    # work than the banded one, so the timing ordering is robust
    rng = np.random.default_rng(7)
    from quadconv import TimeSeries

    path = tmp_path / "noise.csv"
    series_to_csv(
        TimeSeries({"u": rng.normal(size=3700), "y": rng.normal(size=3700)}), path
    )
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--data", str(path), "--d", "20", "--f-list", "3",
         "--out", str(out), "--repeats", "3"]
    )
    assert code == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    times = {r[0]: float(r[4]) for r in rows}
    assert times["ls-cqnn"] <= times["ls-qnn"]


def test_bench_rejects_oversized_filter(series_csv, tmp_path):
    code = main(
        ["bench", "--data", series_csv, "--d", "5", "--f-list", "40",
         "--out", str(tmp_path / "b.csv")]
    )
    assert code == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quadconv", "verify", "--instances", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all suites passed" in proc.stdout
