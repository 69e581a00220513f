"""Multi-rate sensor windows, two position targets, and a ridge sweep.

Mimics a navigation-style setup: nine fast channels (three accelerations,
three angular rates, three attitude angles) are sampled r times between
consecutive slow position fixes. Each block of r samples per channel forms
one feature row; the target is the position change across the block. The
model is single-output, so the two targets (east and north displacement)
are trained independently. With more weights than rows, plain least squares
is underdetermined and the ridge weight picks the trade-off.
"""

import numpy as np

from quadconv import (
    ConvSpec,
    RELU_MIMIC,
    SplitSpec,
    TimeSeries,
    fit_path,
    mse,
    multichannel_window,
    predict_batch,
    split,
    to_weight_vector,
)

rng = np.random.default_rng(5)
r = 20
blocks = 400
T = blocks * r

# smooth synthetic channels: filtered noise for the sensors, and positions
# driven by two of the acceleration-like channels
def smooth(size, width=15):
    return np.convolve(rng.normal(size=size + width - 1), np.ones(width) / width, "valid")

names = ["ax", "ay", "az", "wx", "wy", "wz", "rx", "ry", "rz"]
channels = {name: smooth(T) for name in names}
east = np.cumsum(0.01 * channels["ax"] + 0.002 * channels["wz"] ** 2)
north = np.cumsum(0.01 * channels["ay"] - 0.002 * channels["wz"] * channels["wx"])
channels["east"] = east
channels["north"] = north
ts = TimeSeries(channels)

print(f"{len(names)} fast channels, {blocks} blocks of r = {r} samples")
f = 7
datasets = {label: multichannel_window(ts, names, r, label) for label in ("east", "north")}
n = datasets["east"].n_features
spec = ConvSpec(n, f)
print(f"features per row n = r * channels = {n}, filter length f = {f}")
print(f"weights to fit: {spec.n_weights} from {blocks // 2} training rows "
      "(underdetermined, ridge needed)")
print()

for label, data in datasets.items():
    train_set, test_set = split(data, SplitSpec(0.5))
    print(f"target: delta {label} per block")
    print(f"  {'beta':>8} {'train mse':>12} {'test mse':>12} {'||theta||':>10}")
    betas = (0.1, 1.0, 10.0, 100.0)
    # one regressor, one Gram matrix, one Cholesky factor per beta
    for beta, result in zip(betas, fit_path(train_set, spec, RELU_MIMIC, betas)):
        tr = mse(predict_batch(result.model, train_set.inputs), train_set.labels)
        te = mse(predict_batch(result.model, test_set.inputs), test_set.labels)
        norm = np.linalg.norm(to_weight_vector(result.model).theta)
        print(f"  {beta:>8g} {tr:>12.3e} {te:>12.3e} {norm:>10.4f}")
    print(f"  (variance of test labels: {np.var(test_set.labels):.3e})")
    print()

print("||theta|| shrinks monotonically with beta; small beta chases the")
print("training rows, large beta flattens the model toward zero")
