"""Randomized cross-checks of the pipeline against the brute-force oracles.

Each suite draws its own deterministic generator from (seed, suite index),
runs a number of random instances, and reports the worst observed error
against a fixed tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ActivationParams, ConvSpec
from .model import predict, reconstruct, sensitivity
from .oracle import (
    aggregate,
    eval_neuron_sum,
    eval_patch_model,
    induced_patch_models,
    random_neuron_set,
    random_patch_model_set,
)
from .regressor import Dataset, build_regressor
from .solver import solve_ridge


@dataclass
class SuiteResult:
    name: str
    instances: int
    max_error: float
    tolerance: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"{status}  {self.name}: instances={self.instances} "
            f"max_err={self.max_error:.3e} tol={self.tolerance:.1e}"
        )
        if self.note:
            out += f"  ({self.note})"
        return out


def random_activation(rng) -> ActivationParams:
    """A random coefficient triple satisfying the validity conditions."""
    a = rng.uniform(0.05, 1.5)
    c = rng.uniform(0.05, 1.5)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    b = sign * np.sqrt(4.0 * a * c) * (1.0 + rng.uniform(0.0, 1.0))
    return ActivationParams(float(a), float(b), float(c))


def _random_spec(rng, max_n: int = 16) -> ConvSpec:
    n = int(rng.integers(1, max_n + 1))
    f = int(rng.integers(1, n + 1))
    return ConvSpec(n, f)


def _rel(err: float, ref: float) -> float:
    return abs(err) / max(1.0, abs(ref))


def patch_aggregation_suite(seed: int, instances: int) -> SuiteResult:
    """Per-patch evaluation must equal the prediction of the aggregated
    banded model."""
    rng = np.random.default_rng([seed, 1])
    tol = 1e-10
    worst = 0.0
    for _ in range(instances):
        spec = _random_spec(rng)
        params = random_activation(rng)
        s = random_patch_model_set(spec, params, rng)
        x = rng.uniform(-1.0, 1.0, size=spec.n)
        direct = eval_patch_model(s, x)
        via_model = predict(aggregate(s), x)
        worst = max(worst, _rel(direct - via_model, direct))
    return SuiteResult(
        "patch-aggregation equivalence", instances, worst, tol, worst <= tol,
        "" if instances else "no instances: vacuous pass",
    )


def neuron_sum_suite(seed: int, instances: int) -> SuiteResult:
    """The explicit neuron double sum must match its induced patch-level
    parametrization (unit-norm filters keep the trace tie)."""
    rng = np.random.default_rng([seed, 2])
    tol = 1e-10
    worst = 0.0
    for _ in range(instances):
        spec = _random_spec(rng)
        params = random_activation(rng)
        ns = random_neuron_set(spec, int(rng.integers(1, 5)), rng)
        s = induced_patch_models(ns, params)
        x = rng.uniform(-1.0, 1.0, size=spec.n)
        direct = eval_neuron_sum(ns, params, x)
        worst = max(worst, _rel(direct - eval_patch_model(s, x), direct))
        worst = max(worst, _rel(direct - predict(aggregate(s), x), direct))
    return SuiteResult(
        "neuron-sum consistency", instances, worst, tol, worst <= tol,
        "" if instances else "no instances: vacuous pass",
    )


def gradient_suite(seed: int, instances: int) -> SuiteResult:
    """Closed-form sensitivity against central finite differences."""
    rng = np.random.default_rng([seed, 3])
    tol = 1e-6
    step = 1e-5
    worst = 0.0
    for _ in range(instances):
        spec = _random_spec(rng)
        params = random_activation(rng)
        m = reconstruct(rng.uniform(-1.0, 1.0, size=spec.n_weights), spec, params)
        x0 = rng.uniform(-1.0, 1.0, size=spec.n)
        g = sensitivity(m, x0)
        g_fd = np.empty_like(g)
        for i in range(spec.n):
            e = np.zeros(spec.n)
            e[i] = step
            g_fd[i] = (predict(m, x0 + e) - predict(m, x0 - e)) / (2.0 * step)
        worst = max(worst, float(np.linalg.norm(g - g_fd)) / max(1.0, float(np.linalg.norm(g))))
    return SuiteResult(
        "sensitivity gradient check", instances, worst, tol, worst <= tol,
        "" if instances else "no instances: vacuous pass",
    )


def ls_optimality_suite(seed: int, instances: int) -> SuiteResult:
    """Stationarity of the solved weights, plus 20 random perturbations per
    system that must not decrease the loss by more than rounding."""
    rng = np.random.default_rng([seed, 4])
    tol = 1e-8
    worst = 0.0
    perturbation_ok = True
    for _ in range(instances):
        spec = _random_spec(rng, max_n=8)
        params = random_activation(rng)
        N = 2 * spec.n_weights + int(rng.integers(0, 8))
        data = Dataset(rng.uniform(-1, 1, size=(N, spec.n)), rng.uniform(-1, 1, size=N))
        H = build_regressor(data, spec, params)
        rep = solve_ridge(H, data.labels, 0.0)
        g = H.T @ (data.labels - H @ rep.theta)
        ref = np.linalg.norm(H.T @ data.labels)
        worst = max(worst, float(np.linalg.norm(g)) / max(1.0, float(ref)))

        loss0 = float(np.sum((H @ rep.theta - data.labels) ** 2))
        for _ in range(20):
            d = rng.standard_normal(spec.n_weights)
            d /= np.linalg.norm(d)
            loss1 = float(np.sum((H @ (rep.theta + 1e-3 * d) - data.labels) ** 2))
            if loss1 < loss0 - 1e-12:
                perturbation_ok = False
    passed = worst <= tol and perturbation_ok
    note = "" if instances else "no instances: vacuous pass"
    if not perturbation_ok:
        note = "a perturbation decreased the loss"
    return SuiteResult("least-squares optimality", instances, worst, tol, passed, note)


def run_all_checks(seed: int, instances: int) -> list[SuiteResult]:
    """Run every suite; the costlier least-squares suite is capped at 25."""
    return [
        patch_aggregation_suite(seed, instances),
        neuron_sum_suite(seed, instances),
        gradient_suite(seed, instances),
        ls_optimality_suite(seed, min(instances, 25)),
    ]
