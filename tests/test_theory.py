"""Steady-state results checked against adaptive-filter theory, not against the code.

LMS with a white Gaussian input of unit variance, a filter as long as the
plant and white measurement noise of variance sigma_v^2 has the steady-state
excess mean-square error

    EMSE = mu * L * sigma_v^2 / (2 - mu * (L + 2))

(Haykin, *Adaptive Filter Theory*, ch. 6). At mu = 1 the projection family
(NLMS, BNDR-LMS, R-AP of order N) follows the Wishart form

    EMSE = mu * sigma_v^2 / (2 - mu) * L / (L - N - 1),

the NLMS expression mu * sigma_v^2 / (2 - mu) * Tr(R) * E[1/||x||^2] with the
Gram averaged through the inverse-Wishart moment E[(X X^T)^-1] = I / (L - N - 1).
Each band is the model's stated tolerance plus three standard errors of the
simulated EMSE across runs.
"""

import numpy as np
import pytest

from apbench.algorithms import AlgorithmConfig, AlgorithmKind, MuMode
from apbench.signals import NoiseKind, NoiseSpec, design_highpass_fir
from apbench.sysid import ExperimentConfig, PlantModel, run_ensemble

SIGMA_V = 0.01
RUNS, ITERATIONS = 1000, 3000
# the closed forms' own tolerances, before the sampling error is added
MODEL_TOLERANCE = 0.02
WISHART_TOLERANCE = 0.10
H = design_highpass_fir(13, 0.4)  # the bundled white config's plant
L = H.shape[0]


def _assert_steady_state_emse(algorithm, theory, tolerance):
    config = ExperimentConfig(
        plant=PlantModel(h=H, measurement_noise_sigma=SIGMA_V),
        algorithm=algorithm,
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

    ratio = emse / theory
    band = tolerance + 3 * standard_error / theory
    assert abs(ratio - 1) <= band, (
        f"{algorithm}: EMSE {emse:.4g} against {theory:.4g}, ratio {ratio:.4f}, band {band:.4f}")


@pytest.mark.parametrize("mu", [0.02, 0.05])
def test_lms_steady_state_emse_matches_the_closed_form(mu):
    _assert_steady_state_emse(AlgorithmConfig(AlgorithmKind.LMS, filter_length=L, mu=mu),
                              mu * L * SIGMA_V**2 / (2 - mu * (L + 2)), MODEL_TOLERANCE)


@pytest.mark.parametrize("kind, order", [
    (AlgorithmKind.R_AP, 1),  # NLMS
    (AlgorithmKind.BNDR_LMS, 2),
    (AlgorithmKind.R_AP, 2),
])
def test_projection_steady_state_emse_at_unit_step_matches_the_wishart_form(kind, order):
    mu = 1.0
    algorithm = AlgorithmConfig(kind, filter_length=L, mu=mu, mu_mode=MuMode.FIXED,
                                projection_order=order)
    _assert_steady_state_emse(algorithm, mu * SIGMA_V**2 / (2 - mu) * L / (L - order - 1),
                              WISHART_TOLERANCE)
