"""Property tests for the ensemble-batched adaptation loop.

Every member of an ensemble must come out exactly as if it had been run on
its own: the loop over time runs all members at once, and run_single is the
same loop at batch shape ().
"""

import warnings
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apbench.algorithms import AlgorithmConfig, AlgorithmKind, MuMode
from apbench.signals import NoiseKind, NoiseSpec, input_variance
from apbench.sysid import (PROJECTION_BLOCK, AdaptationError, ExperimentConfig, PlantModel,
                           run_ensemble, run_single)


@st.composite
def configs(draw):
    L = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(list(AlgorithmKind)))
    noise_kind = draw(st.sampled_from(list(NoiseKind)))
    if noise_kind is NoiseKind.WHITE:
        noise = NoiseSpec(noise_kind, sigma=1.0)
    elif noise_kind is NoiseKind.AR1_COLORED:
        noise = NoiseSpec(noise_kind, sigma=1.0,
                          ar_coefficient=draw(st.floats(-0.9, 0.9)))
    else:
        # a leading zero coefficient makes the first input sample exactly 0:
        # all-zero regressors and singular warm-up Grams
        taps = draw(st.lists(st.sampled_from([-0.8, -0.3, 0.5, 1.0]), min_size=1, max_size=3))
        noise = NoiseSpec(noise_kind, sigma=1.0,
                          fir_coefficients=[draw(st.sampled_from([0.0, 1.0]))] + taps)
    if kind is AlgorithmKind.LMS:
        # at most half the 2/(L Var(x)) stability bound
        algo = AlgorithmConfig(kind, filter_length=L, mu=draw(st.floats(0.05, 1.0))
                               / (L * input_variance(noise)))
    else:
        auto = draw(st.booleans())
        algo = AlgorithmConfig(
            kind, filter_length=L,
            mu_mode=MuMode.AUTO_NORMALIZED if auto else MuMode.FIXED,
            mu=None if auto else draw(st.floats(0.1, 1.0)),
            projection_order=draw(st.integers(1, 4)) if kind is AlgorithmKind.R_AP else None,
            # 1e-8 leaves some rank-deficient Grams short of the residual bound
            delta=draw(st.sampled_from([None, 0.0, 1e-3, 1e-8])) if kind is AlgorithmKind.R_AP
            else None,
        )
    plant = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=L))
    return ExperimentConfig(
        plant=PlantModel(h=plant, measurement_noise_sigma=draw(st.sampled_from([0.0, 0.01]))),
        algorithm=algo,
        noise=noise,
        # up to three blocks of projection iterations, so that runs cross block boundaries
        iterations=draw(st.integers(1, 3 * PROJECTION_BLOCK)),
        ensemble_runs=draw(st.integers(2, 5)),
        base_seed=draw(st.integers(0, 2**64 - 1)),
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AdaptationError as exc:
        return exc


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=configs())
def test_each_member_equals_its_single_run_bit_for_bit(config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        singles = [_outcome(run_single, config, r) for r in range(config.ensemble_runs)]
        ensemble = _outcome(run_ensemble, config)
    failures = [s for s in singles if isinstance(s, AdaptationError)]
    if failures:
        # the ensemble reports the lowest failing run, exactly as run alone
        assert isinstance(ensemble, AdaptationError)
        assert (ensemble.run_index, ensemble.iteration, str(ensemble)) == (
            failures[0].run_index, failures[0].iteration, str(failures[0]))
        return
    assert not isinstance(ensemble, AdaptationError), ensemble
    for single, member in zip(singles, ensemble.runs):
        assert np.array_equal(member.mse_trace, single.mse_trace)
        assert np.array_equal(member.final_weights, single.final_weights)
        assert member.total_multiplies == single.total_multiplies


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=configs(), extra=st.integers(1, 3))
def test_members_do_not_depend_on_ensemble_size(config, extra):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        larger = replace(config, ensemble_runs=config.ensemble_runs + extra)
        small = _outcome(run_ensemble, config)
        large = _outcome(run_ensemble, larger)
    if isinstance(small, AdaptationError):
        # a failing member of the smaller ensemble is also in the larger one
        assert isinstance(large, AdaptationError)
        assert large.run_index <= small.run_index
        return
    if isinstance(large, AdaptationError):
        assert large.run_index >= config.ensemble_runs
        return
    for a, b in zip(small.runs, large.runs):
        assert np.array_equal(a.mse_trace, b.mse_trace)
        assert np.array_equal(a.final_weights, b.final_weights)

