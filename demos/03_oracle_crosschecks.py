"""Cross-checking the pipeline against brute-force implementations.

Three independent routes to the same numbers:
  1. summing per-patch quadratic forms versus evaluating the aggregated
     banded model;
  2. summing explicit neurons versus the patch parametrization they induce;
  3. the banded pipeline at full filter length versus a dense fit with its
     own feature enumeration and solver.
None of the brute-force routes shares index bookkeeping with the library
internals, which is what makes the agreement informative.
"""

import numpy as np

from quadconv import ConvSpec, Dataset, RELU_MIMIC, fit, predict, sensitivity, to_weight_vector
from quadconv.oracle import (
    aggregate,
    dense_qnn_fit,
    eval_neuron_sum,
    eval_patch_model,
    induced_patch_models,
    random_neuron_set,
    random_patch_model_set,
)

rng = np.random.default_rng(0)

print("1. per-patch sums vs aggregated banded model")
worst = 0.0
for _ in range(300):
    n = int(rng.integers(1, 17))
    spec = ConvSpec(n, int(rng.integers(1, n + 1)))
    s = random_patch_model_set(spec, RELU_MIMIC, rng)
    x = rng.uniform(-1, 1, size=n)
    worst = max(worst, abs(eval_patch_model(s, x) - predict(aggregate(s), x)))
print(f"   300 random instances, worst absolute gap: {worst:.3e}")
print()

print("2. explicit neuron sums vs induced patch models")
worst = 0.0
for _ in range(200):
    n = int(rng.integers(1, 17))
    spec = ConvSpec(n, int(rng.integers(1, n + 1)))
    ns = random_neuron_set(spec, int(rng.integers(1, 5)), rng)
    s = induced_patch_models(ns, RELU_MIMIC)
    x = rng.uniform(-1, 1, size=n)
    worst = max(worst, abs(eval_neuron_sum(ns, RELU_MIMIC, x) - eval_patch_model(s, x)))
print(f"   200 random instances, worst absolute gap: {worst:.3e}")
print("   (unit-norm filters keep the trace of each patch block equal to")
print("    its scalar term, which the parametrization requires)")
print()

print("3. banded pipeline at f = n vs independent dense fit")
n = 6
spec = ConvSpec(n, n)
data = Dataset(
    rng.uniform(-1, 1, size=(3 * spec.n_weights, n)),
    rng.uniform(-1, 1, size=3 * spec.n_weights),
)
theta_pipeline = to_weight_vector(fit(data, spec, RELU_MIMIC).model)
theta_oracle = to_weight_vector(dense_qnn_fit(data, RELU_MIMIC))
gap = np.linalg.norm(theta_pipeline - theta_oracle) / np.linalg.norm(theta_pipeline)
print(f"   relative weight-vector difference: {gap:.3e}")
print()

print("4. closed-form input gradient vs central finite differences")
spec = ConvSpec(8, 3)
model = fit(
    Dataset(rng.uniform(-1, 1, size=(120, 8)), rng.uniform(-1, 1, size=120)),
    spec,
    RELU_MIMIC,
).model
x0 = rng.uniform(-1, 1, size=8)
g = sensitivity(model, x0)
step = 1e-5
g_fd = np.empty(8)
for i in range(8):
    e = np.zeros(8)
    e[i] = step
    g_fd[i] = (predict(model, x0 + e) - predict(model, x0 - e)) / (2 * step)
print(f"   max |analytic - finite difference|: {np.abs(g - g_fd).max():.3e}")
print("   (central differences of a quadratic are exact up to rounding)")
