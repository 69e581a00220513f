"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def _bench(cache, workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", "--cache", str(cache)],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_declares_what_run_py_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    proc = _bench(tmp_path, workload, trace)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert f"{workload} fail_frac = 0 fraction" in proc.stderr
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        for name, unit in run.REPORTED.items():
            assert f"{workload} {name} = " in proc.stderr and f" {unit} (no bound)" in proc.stderr


def test_perturbed_score_model_raises_fail_frac(tmp_path):
    assert _result(_bench(tmp_path, "score", 0))["failed"] == 0
    model = run.inputs_dir(tmp_path, "tiny", 1, "score") / "model.json"
    doc = json.loads(model.read_text())
    doc["zbar1_band"][1] *= 1.0 + 1e-6
    model.write_text(json.dumps(doc))
    result = _result(_bench(tmp_path, "score", 0))
    assert not result["correct"] and result["failed"] > 0


def _narx_serve(seed_dir, pass_dir, env):
    out = pass_dir / "serve.json"
    subprocess.run([sys.executable, str(HERE / "workload.py"), "narx_serve", "--dir", str(seed_dir),
                    "--models", str(pass_dir), "--out", str(out)],
                   check=True, env=env, cwd=ROOT, timeout=120)
    return json.loads(out.read_text())["gates"]


def test_perturbed_narx_model_fails_the_gates(tmp_path):
    seed_dir, pass_dir = tmp_path / "inputs", tmp_path / "pass"
    pass_dir.mkdir()
    env = run.child_env()
    subprocess.run([sys.executable, str(HERE / "prep.py"), "--workload", "narx_cli", "--seed", "2",
                    "--size", "tiny", "--dir", str(seed_dir)], check=True, env=env, timeout=120)
    subprocess.run([sys.executable, "-m", "quadconv", "train", "--data", str(seed_dir / "series.csv"),
                    "--d", "4", "--f", "3", "--beta", "0,1,10", "--split", "0.5",
                    "--out", str(pass_dir / "model.json"), "--metrics", str(pass_dir / "metrics.csv")],
                   check=True, env=env, cwd=ROOT, timeout=120, capture_output=True)
    assert _narx_serve(seed_dir, pass_dir, env)["failed"] == 0

    model = pass_dir / "model_beta0.json"
    doc = json.loads(model.read_text())
    doc["zbar2"][0] += 1e-3
    model.write_text(json.dumps(doc))
    (pass_dir / "model_beta10.json").unlink()
    assert _narx_serve(seed_dir, pass_dir, env)["failed"] >= 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path / "cache", "score", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_nested_spans_of_other_layers():
    def span(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent, "attrs": {}}

    spans = [span("cli.main", 0, 10, -1), span("cli.cmd_train", 1, 9, 0),
             span("dataio.load_csv", 2, 4, 1), span("train.fit", 4, 8, 1),
             span("regressor.build_regressor", 5, 6, 3)]
    metrics = summarize(spans)
    assert metrics["cli.main.s"] == 10 and metrics["cli.main.self_s"] == 4
    assert metrics["train.fit.s"] == 4 and metrics["train.fit.self_s"] == 3


def test_tracer_wraps_the_names_cli_and_train_look_up():
    sys.path.insert(0, str(ROOT / "src"))
    import quadconv.cli
    import quadconv.train
    from quadconv import RELU_MIMIC, ConvSpec, Dataset

    before = (quadconv.cli.load_csv, quadconv.train.build_regressor, quadconv.train.solve_ridge)
    tracer = Tracer()
    tracer.install()
    try:
        assert quadconv.cli.load_csv is not before[0]
        rng = np.random.default_rng(0)
        quadconv.train.fit(Dataset(rng.standard_normal((40, 4)), rng.standard_normal(40)),
                           ConvSpec(4, 2), RELU_MIMIC)
    finally:
        tracer.uninstall()
    assert (quadconv.cli.load_csv, quadconv.train.build_regressor, quadconv.train.solve_ridge) == before
    names = [s["name"] for s in tracer.spans]
    assert names[0] == "train.fit"
    assert {"regressor.build_regressor", "solver.solve_ridge", "model.reconstruct"} <= set(names)
    assert all(s["parent"] == 0 for s in tracer.spans[1:])
    # n=4, f=2: 7 band weights plus 4 linear ones per row
    assert summarize(tracer.spans)["regressor.build_regressor.out_mb"] == 40 * 11 * 8 / 1e6
