import dataclasses

import pytest

import quadconv.verify as verify
from quadconv.verify import run_all_checks


def test_every_suite_reports_a_broken_pipeline(monkeypatch):
    predict, sensitivity, solve_ridge = verify.predict, verify.sensitivity, verify.solve_ridge

    def shifted_solve(H, y, beta):
        report = solve_ridge(H, y, beta)
        return dataclasses.replace(report, theta=report.theta + 1e-3)

    monkeypatch.setattr(verify, "predict", lambda m, x: predict(m, x) + 1e-6)
    monkeypatch.setattr(verify, "sensitivity", lambda m, x: sensitivity(m, x) + 1e-3)
    monkeypatch.setattr(verify, "solve_ridge", shifted_solve)
    assert [r.line() for r in run_all_checks(0, 10)] == [
        "FAIL  patch-aggregation equivalence: instances=10 max_err=1.000e-06 tol=1.0e-10",
        "FAIL  neuron-sum consistency: instances=10 max_err=1.000e-06 tol=1.0e-10",
        "FAIL  sensitivity gradient check: instances=10 max_err=1.414e-03 tol=1.0e-06",
        "FAIL  least-squares optimality: instances=10 max_err=8.020e-02 tol=1.0e-08"
        "  (a perturbation decreased the loss)",
    ]


def test_a_nan_error_fails_its_suite(monkeypatch):
    monkeypatch.setattr(verify, "predict", lambda m, x: float("nan"))
    results = run_all_checks(0, 3)
    # the least-squares suite does not evaluate the model
    assert [r.passed for r in results] == [False, False, False, True]
    assert all(r.line().startswith("FAIL") and "max_err=nan" in r.line() for r in results[:3])


def test_zero_instances_pass_vacuously():
    results = run_all_checks(0, 0)
    assert [(r.instances, r.max_error, r.passed) for r in results] == [(0, 0.0, True)] * 4
    assert all(r.note == "no instances: vacuous pass" for r in results)


@pytest.mark.parametrize(
    "seed, instances, message",
    [(-1, 5, "seed must be >= 0"), (0, -1, "instances must be >= 0")],
)
def test_negative_arguments_are_rejected(seed, instances, message):
    with pytest.raises(ValueError, match=message):
        run_all_checks(seed, instances)
