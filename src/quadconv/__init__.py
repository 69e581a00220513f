"""Analytic least-squares training of banded quadratic convolutional models.

A two-layer network with quadratic activation and shared sliding filters
collapses to a single quadratic input-output map whose matrix is symmetric
and banded. That makes training a linear least-squares problem with a
closed-form, globally optimal solution, and gives the input sensitivity in
closed form as well.

Typical use::

    from quadconv import ConvSpec, RELU_MIMIC, fit, narx_window, synth_narx

    ts = synth_narx(2000, seed=1)
    data = narx_window(ts, "u", "y", d=5)
    result = fit(data, ConvSpec(data.n_features, 3), RELU_MIMIC)
    model = result.model
"""

from .core import (
    ActivationParams,
    ConvSpec,
    RELU_MIMIC,
    activation_eval,
    band_counts,
    band_index_map,
    validate_activation,
    vecf,
)
from .dataio import (
    SplitSpec,
    TimeSeries,
    dataset_to_csv,
    load_csv,
    load_feature_csv,
    mse,
    multichannel_window,
    narx_window,
    series_to_csv,
    split,
    synth_narx,
)
from .errors import (
    ChannelMissing,
    DimensionMismatch,
    InsufficientData,
    InvalidActivation,
    MalformedModelFile,
    MissingColumn,
    NegativeRegularizer,
    NonFiniteInput,
    ParseError,
    QuadconvError,
)
from .model import (
    QuadraticModel,
    deserialize,
    predict,
    predict_batch,
    reconstruct,
    sensitivity,
    sensitivity_batch,
    serialize,
    to_weight_vector,
)
from .regressor import Dataset, build_regressor
from .solver import SolveReport, SolveStrategy, solve_path, solve_ridge
from .train import FitResult, fit, fit_path

__version__ = "0.1.0"

__all__ = [
    "ActivationParams",
    "ChannelMissing",
    "ConvSpec",
    "Dataset",
    "DimensionMismatch",
    "FitResult",
    "InsufficientData",
    "InvalidActivation",
    "MalformedModelFile",
    "MissingColumn",
    "NegativeRegularizer",
    "NonFiniteInput",
    "ParseError",
    "QuadconvError",
    "QuadraticModel",
    "RELU_MIMIC",
    "SolveReport",
    "SolveStrategy",
    "SplitSpec",
    "TimeSeries",
    "activation_eval",
    "band_counts",
    "band_index_map",
    "build_regressor",
    "dataset_to_csv",
    "deserialize",
    "fit",
    "fit_path",
    "load_csv",
    "load_feature_csv",
    "mse",
    "multichannel_window",
    "narx_window",
    "predict",
    "predict_batch",
    "reconstruct",
    "sensitivity",
    "sensitivity_batch",
    "serialize",
    "series_to_csv",
    "solve_path",
    "solve_ridge",
    "split",
    "synth_narx",
    "to_weight_vector",
    "validate_activation",
    "vecf",
]
