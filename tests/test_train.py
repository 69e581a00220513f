import numpy as np
import pytest

import quadconv.train
from quadconv import (
    ActivationParams,
    ConvSpec,
    NegativeRegularizer,
    NonFiniteInput,
    SolveStrategy,
    fit,
    fit_path,
    narx_window,
    synth_narx,
)

_PARAMS = ActivationParams(0.0937, 0.5, 0.4688)


def _narx_data():
    return narx_window(synth_narx(600, seed=9), "u", "y", 5)


def _count_assembly(monkeypatch):
    calls = []
    original = quadconv.train.build_regressor

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quadconv.train, "build_regressor", counted)
    return calls


def test_fit_path_assembles_the_regressor_once(monkeypatch):
    calls = _count_assembly(monkeypatch)
    results = fit_path(_narx_data(), ConvSpec(10, 3), _PARAMS, [0.0, 1.0, 10.0])
    assert len(calls) == 1
    assert [r.report.beta for r in results] == [0.0, 1.0, 10.0]


@pytest.mark.parametrize(
    "betas,error",
    [([], ValueError), ([1.0, -0.5], NegativeRegularizer), ([np.nan], NonFiniteInput)],
)
def test_fit_path_rejects_bad_betas_before_assembly(monkeypatch, betas, error):
    calls = _count_assembly(monkeypatch)
    with pytest.raises(error):
        fit_path(_narx_data(), ConvSpec(10, 3), _PARAMS, betas)
    assert calls == []


def test_fit_path_matches_per_beta_fits_and_splits_time():
    data, spec = _narx_data(), ConvSpec(10, 3)
    betas = [0.0, 1.0, 10.0]
    results = fit_path(data, spec, _PARAMS, betas)
    assert results[0].report.solve_strategy == SolveStrategy.PSEUDOINVERSE
    assert results[1].report.solve_strategy == SolveStrategy.CHOLESKY
    for beta, result in zip(betas, results):
        alone = fit(data, spec, _PARAMS, beta)
        assert result.model.zbar1_band.tobytes() == alone.model.zbar1_band.tobytes()
        assert result.model.zbar2.tobytes() == alone.model.zbar2.tobytes()
    # the shared assembly is charged to the first beta only
    assert results[0].build_seconds > 0.0
    assert [r.build_seconds for r in results[1:]] == [0.0, 0.0]
    assert all(r.solve_seconds > 0.0 for r in results)
