"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines on the terminal.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from quadconv import (
    ActivationParams,
    ConvSpec,
    Dataset,
    SplitSpec,
    band_counts,
    build_regressor,
    fit,
    load_csv,
    mse,
    narx_window,
    predict,
    predict_batch,
    reconstruct,
    sensitivity,
    solve_ridge,
    split,
    synth_narx,
    to_weight_vector,
)
from quadconv.oracle import (
    aggregate,
    dense_qnn_fit,
    eval_neuron_sum,
    eval_patch_model,
    induced_patch_models,
    random_neuron_set,
    random_patch_model_set,
)

_RELU = ActivationParams(0.0937, 0.5, 0.4688)


def _report(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {status}: {description}{suffix}")
    assert passed, f"criterion {num}: {description}{suffix}"


def test_criterion_1_patch_aggregation_equivalence():
    rng = np.random.default_rng(101)
    tol = 1e-10
    worst = 0.0
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 17))
        f = int(rng.integers(1, n + 1))
        s = random_patch_model_set(ConvSpec(n, f), _RELU, rng)
        x = rng.uniform(-1, 1, size=n)
        direct = eval_patch_model(s, x)
        via_model = predict(aggregate(s), x)
        worst = max(worst, abs(direct - via_model) / max(1.0, abs(direct)))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "per-patch evaluation equals banded prediction after aggregation",
        worst <= tol and elapsed < 10.0,
        f"200 instances, max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_neuron_sum_consistency():
    rng = np.random.default_rng(102)
    tol = 1e-10
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        f = int(rng.integers(1, n + 1))
        spec = ConvSpec(n, f)
        ns = random_neuron_set(spec, int(rng.integers(1, 5)), rng)
        s = induced_patch_models(ns, _RELU)
        x = rng.uniform(-1, 1, size=n)
        direct = eval_neuron_sum(ns, _RELU, x)
        worst = max(worst, abs(direct - eval_patch_model(s, x)) / max(1.0, abs(direct)))
    _report(
        2,
        "explicit neuron sums match the induced patch parametrization",
        worst <= tol,
        f"100 instances, max rel err {worst:.2e}",
    )


def test_criterion_3_least_squares_optimality():
    rng = np.random.default_rng(103)
    worst_stat = 0.0
    perturbation_ok = True
    for trial in range(12):
        n = int(rng.integers(2, 11))
        f = int(rng.integers(1, n + 1))
        spec = ConvSpec(n, f)
        N = 2 * spec.n_weights + int(rng.integers(0, 10))
        data = Dataset(rng.uniform(-1, 1, size=(N, n)), rng.uniform(-1, 1, size=N))
        H = build_regressor(data, spec, _RELU)
        rep = solve_ridge(H, data.labels, 0.0)
        g = H.T @ (data.labels - H @ rep.theta)
        worst_stat = max(
            worst_stat,
            np.linalg.norm(g) / max(1.0, np.linalg.norm(H.T @ data.labels)),
        )
        theta = rep.theta
        loss0 = np.sum((H @ theta - data.labels) ** 2)
        for _ in range(100):
            d = rng.standard_normal(theta.size)
            d /= np.linalg.norm(d)
            loss1 = np.sum((H @ (theta + 1e-3 * d) - data.labels) ** 2)
            if loss1 < loss0 - 1e-12:
                perturbation_ok = False
    _report(
        3,
        "solved weights are stationary and perturbations never reduce the loss",
        worst_stat <= 1e-8 and perturbation_ok,
        f"12 systems x 100 directions, max stationarity {worst_stat:.2e}",
    )


def test_criterion_4_sensitivity_gradient_check():
    rng = np.random.default_rng(104)
    tol = 1e-6
    step = 1e-5
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        f = int(rng.integers(1, n + 1))
        spec = ConvSpec(n, f)
        m = reconstruct(rng.uniform(-1, 1, size=spec.n_weights), spec, _RELU)
        x0 = rng.uniform(-1, 1, size=n)
        g = sensitivity(m, x0)
        g_fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            g_fd[i] = (predict(m, x0 + e) - predict(m, x0 - e)) / (2 * step)
        worst = max(worst, np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g)))
    _report(
        4,
        "closed-form sensitivity matches central finite differences",
        worst <= tol,
        f"100 pairs, max rel err {worst:.2e}",
    )


def test_criterion_5_full_filter_reduces_to_dense_fit():
    rng = np.random.default_rng(105)
    worst_theta = 0.0
    for n in (4, 5, 6):
        spec = ConvSpec(n, n)
        N = 3 * spec.n_weights
        data = Dataset(rng.uniform(-1, 1, size=(N, n)), rng.uniform(-1, 1, size=N))
        pipeline = to_weight_vector(fit(data, spec, _RELU).model)
        oracle = to_weight_vector(dense_qnn_fit(data, _RELU))
        worst_theta = max(
            worst_theta,
            np.linalg.norm(pipeline - oracle) / max(1.0, np.linalg.norm(pipeline)),
        )

    # planted dense quadratic: representable only with the constant tied to
    # the trace, so s = c * trace(Q) / a
    n = 5
    Q = rng.uniform(-1, 1, size=(n, n))
    Q = 0.5 * (Q + Q.T)
    r = rng.uniform(-1, 1, size=n)
    s = _RELU.c * np.trace(Q) / _RELU.a

    def truth(X):
        return np.einsum("ij,jk,ik->i", X, Q, X) + X @ r + s

    spec = ConvSpec(n, n)
    X_train = rng.uniform(-1, 1, size=(2 * spec.n_weights, n))
    model = fit(Dataset(X_train, truth(X_train)), spec, _RELU).model
    X_test = rng.uniform(-1, 1, size=(100, n))
    max_residual = float(np.abs(predict_batch(model, X_test) - truth(X_test)).max())

    _report(
        5,
        "full-length filter matches the dense oracle and recovers planted quadratics",
        worst_theta <= 1e-8 and max_residual <= 1e-8,
        f"max theta rel diff {worst_theta:.2e}, max test residual {max_residual:.2e}",
    )


def test_criterion_6_weight_count_sweep():
    violations = [
        (n, f)
        for n in range(2, 65)
        for f in range(2, n + 1)
        if band_counts(ConvSpec(n, f)).banded_weights > band_counts(ConvSpec(n, f)).cqnn_weights
    ]
    _report(
        6,
        "banded weight count never exceeds the per-patch count (n <= 64, 2 <= f <= n)",
        not violations,
        f"{sum(n - 1 for n in range(2, 65))} pairs checked",
    )


def test_criterion_7_ridge_behavior():
    rng = np.random.default_rng(107)
    spec = ConvSpec(6, 3)
    N = 2 * spec.n_weights + 7
    data = Dataset(rng.uniform(-1, 1, size=(N, 6)), rng.uniform(-1, 1, size=N))
    H = build_regressor(data, spec, _RELU)

    plain = np.linalg.lstsq(H, data.labels, rcond=None)[0]
    at_zero = solve_ridge(H, data.labels, 0.0).theta
    zero_matches = np.linalg.norm(plain - at_zero) <= 1e-10 * max(1.0, np.linalg.norm(plain))

    norms = [
        np.linalg.norm(solve_ridge(H, data.labels, beta).theta)
        for beta in (0.0, 0.1, 1.0, 10.0, 100.0)
    ]
    monotone = all(hi <= lo + 1e-10 for lo, hi in zip(norms, norms[1:]))
    _report(
        7,
        "beta = 0 reproduces plain least squares and ||theta|| shrinks with beta",
        zero_matches and monotone,
        "norms " + " >= ".join(f"{v:.4f}" for v in norms),
    )


def _robot_arm_path():
    env = os.environ.get("QUADCONV_ROBOT_ARM_CSV")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "robot_arm.csv"


def test_criterion_8_robot_arm_reproduction():
    path = _robot_arm_path()
    if not path.exists():
        print(
            "ACCEPTANCE 8 SKIP: flexible-robot-arm dataset not available "
            "(criterion replaced by criterion 9)"
        )
        pytest.skip(
            "robot-arm dataset not found; set QUADCONV_ROBOT_ARM_CSV or add "
            "data/robot_arm.csv (header u,y)"
        )
    ts = load_csv(str(path))
    data = narx_window(ts, "u", "y", 5)
    train_set, test_set = split(data, SplitSpec(0.5))
    result = fit(train_set, ConvSpec(data.n_features, 3), _RELU)
    train_mse = mse(predict_batch(result.model, train_set.inputs), train_set.labels)
    test_mse = mse(predict_batch(result.model, test_set.inputs), test_set.labels)
    _report(
        8,
        "robot-arm training/testing error within 2x of the reference values",
        train_mse <= 2 * 7.99e-6 and test_mse <= 2 * 1.01e-5 and result.train_seconds < 1.0,
        f"train {train_mse:.3e}, test {test_mse:.3e}, {result.train_seconds:.3f}s",
    )


def test_criterion_9_synthetic_end_to_end():
    def run():
        ts = synth_narx(2000, seed=1)
        data = narx_window(ts, "u", "y", 5)
        train_set, test_set = split(data, SplitSpec(0.5))
        result = fit(train_set, ConvSpec(10, 3), _RELU)
        test_mse = mse(predict_batch(result.model, test_set.inputs), test_set.labels)
        return to_weight_vector(result.model), test_mse, float(np.var(test_set.labels))

    theta1, test_mse, var_test = run()
    theta2, _, _ = run()
    deterministic = np.array_equal(theta1, theta2)
    _report(
        9,
        "synthetic end-to-end test error is small and runs are repeatable",
        test_mse <= var_test / 10 and deterministic,
        f"test mse {test_mse:.2e} vs var/10 {var_test / 10:.2e}",
    )
