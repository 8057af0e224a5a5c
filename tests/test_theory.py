"""Steady-state results checked against adaptive-filter theory, not against the code.

LMS with a white Gaussian input of unit variance, a filter as long as the
plant and white measurement noise of variance sigma_v^2 has the steady-state
excess mean-square error

    EMSE = mu * L * sigma_v^2 / (2 - mu * (L + 2))

(Haykin, *Adaptive Filter Theory*, ch. 6). The band is the model's stated
tolerance plus three standard errors of the simulated EMSE across runs.
"""

import numpy as np
import pytest

from apbench.algorithms import AlgorithmConfig, AlgorithmKind
from apbench.signals import NoiseKind, NoiseSpec, design_highpass_fir
from apbench.sysid import ExperimentConfig, PlantModel, run_ensemble

SIGMA_V = 0.01
RUNS, ITERATIONS = 1000, 3000
# the closed form's own tolerance, before the sampling error is added
MODEL_TOLERANCE = 0.02


@pytest.mark.parametrize("mu", [0.02, 0.05])
def test_lms_steady_state_emse_matches_the_closed_form(mu):
    h = design_highpass_fir(13, 0.4)  # the bundled white config's plant
    L = h.shape[0]
    config = ExperimentConfig(
        plant=PlantModel(h=h, measurement_noise_sigma=SIGMA_V),
        algorithm=AlgorithmConfig(AlgorithmKind.LMS, filter_length=L, mu=mu),
        noise=NoiseSpec(NoiseKind.WHITE, sigma=1.0),
        iterations=ITERATIONS,
        ensemble_runs=RUNS,
        base_seed=1,
    )
    result = run_ensemble(config)
    # each run's mean squared a-priori error over the second half, in steady state
    per_run = np.array([run.mse_trace[ITERATIONS // 2:].mean() for run in result.runs])
    emse = per_run.mean() - SIGMA_V**2
    standard_error = per_run.std(ddof=1) / np.sqrt(RUNS)

    theory = mu * L * SIGMA_V**2 / (2 - mu * (L + 2))
    ratio = emse / theory
    band = MODEL_TOLERANCE + 3 * standard_error / theory
    assert abs(ratio - 1) <= band, (
        f"mu {mu}: EMSE {emse:.4g} against {theory:.4g}, ratio {ratio:.4f}, band {band:.4f}")
