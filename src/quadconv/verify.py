"""Randomized cross-checks of the pipeline against the brute-force oracles.

Each suite draws its own deterministic generator from (seed, suite index),
runs a number of random instances, and reports the worst observed error
against a fixed tolerance. One loop, _run, owns those rules; a suite
supplies only the error of one instance.
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


def _run(name, index, tolerance, instance, seed, instances) -> SuiteResult:
    """Fold `instances` draws of instance(rng) into one result, rng being
    the suite's generator from (seed, index). instance returns its error and
    the note of a check besides the tolerance that it failed, or ""."""
    rng = np.random.default_rng([seed, index])
    worst, failure = 0.0, ""
    for _ in range(instances):
        error, note = instance(rng)
        # np.max, unlike max, keeps a nan error, which then fails the suite
        worst = float(np.max([worst, error]))
        failure = failure or note
    passed = worst <= tolerance and not failure
    note = failure or ("" if instances else "no instances: vacuous pass")
    return SuiteResult(name, instances, worst, tolerance, passed, note)


def _patch_aggregation(rng):
    """Per-patch evaluation must equal the prediction of the aggregated
    banded model."""
    spec = _random_spec(rng)
    params = random_activation(rng)
    s = random_patch_model_set(spec, params, rng)
    x = rng.uniform(-1.0, 1.0, size=spec.n)
    direct = eval_patch_model(s, x)
    return _rel(direct - predict(aggregate(s), x), direct), ""


def _neuron_sum(rng):
    """The explicit neuron double sum must match its induced patch-level
    parametrization (unit-norm filters keep the trace tie)."""
    spec = _random_spec(rng)
    params = random_activation(rng)
    ns = random_neuron_set(spec, int(rng.integers(1, 5)), rng)
    s = induced_patch_models(ns, params)
    x = rng.uniform(-1.0, 1.0, size=spec.n)
    direct = eval_neuron_sum(ns, params, x)
    errors = (direct - eval_patch_model(s, x), direct - predict(aggregate(s), x))
    return np.max([_rel(e, direct) for e in errors]), ""


def _gradient(rng):
    """Closed-form sensitivity against central finite differences."""
    step = 1e-5
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
    return _rel(np.linalg.norm(g - g_fd), np.linalg.norm(g)), ""


def _ls_optimality(rng):
    """Stationarity of the solved weights, plus 20 random perturbations
    that must not decrease the loss by more than rounding."""
    spec = _random_spec(rng, max_n=8)
    params = random_activation(rng)
    N = 2 * spec.n_weights + int(rng.integers(0, 8))
    data = Dataset(rng.uniform(-1, 1, size=(N, spec.n)), rng.uniform(-1, 1, size=N))
    H = build_regressor(data, spec, params)
    rep = solve_ridge(H, data.labels, 0.0)
    g = H.T @ (data.labels - H @ rep.theta)
    error = _rel(np.linalg.norm(g), np.linalg.norm(H.T @ data.labels))

    loss0 = float(np.sum((H @ rep.theta - data.labels) ** 2))
    note = ""
    # no early exit: the next instance's draws must not depend on this one
    for _ in range(20):
        d = rng.standard_normal(spec.n_weights)
        d /= np.linalg.norm(d)
        loss1 = float(np.sum((H @ (rep.theta + 1e-3 * d) - data.labels) ** 2))
        if loss1 < loss0 - 1e-12:
            note = "a perturbation decreased the loss"
    return error, note


def run_all_checks(seed: int, instances: int) -> list[SuiteResult]:
    """Run every suite; the costlier least-squares suite is capped at 25
    instances. Raises ValueError on a negative seed or instance count."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if instances < 0:
        raise ValueError(f"instances must be >= 0, got {instances}")
    return [
        _run("patch-aggregation equivalence", 1, 1e-10, _patch_aggregation, seed, instances),
        _run("neuron-sum consistency", 2, 1e-10, _neuron_sum, seed, instances),
        _run("sensitivity gradient check", 3, 1e-6, _gradient, seed, instances),
        _run("least-squares optimality", 4, 1e-8, _ls_optimality, seed, min(instances, 25)),
    ]
