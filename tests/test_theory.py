"""Results checked against adaptive-filter theory, not against the code.

LMS with a white Gaussian input of unit variance, a filter as long as the
plant and white measurement noise of variance sigma_v^2 has the steady-state
excess mean-square error

    EMSE = mu * L * sigma_v^2 / (2 - mu * (L + 2))

(Haykin, *Adaptive Filter Theory*, ch. 6). At mu = 1 the projection family
(NLMS, BNDR-LMS, R-AP of order N) follows the Wishart form

    EMSE = mu * sigma_v^2 / (2 - mu) * L / (L - N - 1),

the NLMS expression mu * sigma_v^2 / (2 - mu) * Tr(R) * E[1/||x||^2] with the
Gram averaged through the inverse-Wishart moment E[(X X^T)^-1] = I / (L - N - 1).
The LMS learning curve follows the Gaussian independence recursion (Feuer &
Weinstein, IEEE TASSP, 1985). In the eigenbasis of the input's
autocorrelation matrix R, with k_i the mean squared weight error along
eigenvector q_i (k_i(0) = (q_i^T h)^2 from zero weights),

    k_i <- k_i (1 - 2 mu l_i + 2 mu^2 l_i^2) + mu^2 l_i (sum_j l_j k_j + sigma_v^2),
    J(n) = sigma_v^2 + sum_i l_i k_i(n).

An affine projection of order N >= p + 1 decorrelates AR(p) input, so at
mu = 1 without measurement noise it converges on that input as on white input
(Rupp, IEEE TSP, 1998; Sankaran & Beex, IEEE TSP, 2000): the decay slope of
the ensemble MSE in dB per iteration is the same on both.

Each band is the model's stated tolerance plus three standard errors of the
simulated EMSE, of a window's mean squared error or of a decay slope, across
runs.
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
CURVE_TOLERANCE = 0.10
DECORRELATION_TOLERANCE = 0.10
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


def _lms_squared_errors(noise, mu, iterations, runs, base_seed):
    """Each run's squared a-priori errors, (runs, iterations), of LMS on H from zero weights."""
    config = ExperimentConfig(
        plant=PlantModel(h=H, measurement_noise_sigma=SIGMA_V),
        algorithm=AlgorithmConfig(AlgorithmKind.LMS, filter_length=L, mu=mu),
        noise=noise,
        iterations=iterations,
        ensemble_runs=runs,
        base_seed=base_seed,
    )
    return np.array([run.mse_trace for run in run_ensemble(config).runs])


def _independence_recursion(eigenvalues, k, mu, iterations, filling=False):
    """J(n) of the independence recursion; ``filling``: mode i starts at n = i.

    A filling tap line holds tap i only from n = i on: before that the tap
    neither adapts nor adds to J, as if its eigenvalue were 0. That models
    white input, whose eigenvectors are the taps.
    """
    curve = np.empty(iterations)
    for n in range(iterations):
        lam = eigenvalues * (np.arange(L) <= n) if filling else eigenvalues
        excess = lam @ k
        curve[n] = SIGMA_V**2 + excess
        k = k * (1 - 2 * mu * lam + 2 * mu**2 * lam**2) + mu**2 * lam * (excess + SIGMA_V**2)
    return curve


def _assert_windows_match(squared_errors, theory, edges):
    misses = []
    for start, stop in zip(edges, edges[1:]):
        per_run = squared_errors[:, start:stop].mean(axis=1)
        expected = theory[start:stop].mean()
        ratio = per_run.mean() / expected
        band = CURVE_TOLERANCE + 3 * per_run.std(ddof=1) / np.sqrt(len(per_run)) / expected
        if abs(ratio - 1) > band:
            misses.append(f"n {start}-{stop}: ratio {ratio:.4f}, band {band:.4f}")
    assert not misses, misses


def test_lms_learning_curve_on_colored_input_matches_the_independence_recursion():
    # the bundled colored config's plant, input and LMS step size
    a, mu, iterations = 0.9, 0.002, 2000
    autocorrelation = a ** np.abs(np.subtract.outer(np.arange(L), np.arange(L))) / (1 - a**2)
    eigenvalues, eigenvectors = np.linalg.eigh(autocorrelation)
    theory = _independence_recursion(eigenvalues, (eigenvectors.T @ H) ** 2, mu, iterations)
    squared_errors = _lms_squared_errors(
        NoiseSpec(NoiseKind.AR1_COLORED, sigma=1.0, ar_coefficient=a), mu, iterations,
        runs=2000, base_seed=7)
    # the theory's input is stationary from n = 0, but the AR(1) recursion and
    # the tap line both start from zero; by n = 100 the input's variance is
    # within a^202 < 1e-9 (relative) of stationary, and the tap line is full
    _assert_windows_match(squared_errors, theory, [100, 300, 700, 1200, 2000])


@pytest.mark.parametrize("mu", [0.005, 0.01])
def test_lms_learning_curve_on_white_input_matches_the_filling_recursion(mu):
    iterations = 1500
    theory = _independence_recursion(np.ones(L), H**2, mu, iterations, filling=True)
    squared_errors = _lms_squared_errors(NoiseSpec(NoiseKind.WHITE, sigma=1.0), mu, iterations,
                                         runs=2000, base_seed=7)
    _assert_windows_match(squared_errors, theory, [0, 100, 300, 700, 1500])


def _decay_slope(algorithm, noise, runs=200, groups=10, iterations=1000):
    """The ensemble MSE's decay slope in dB per iteration over -30 to -230 dB, and its SE.

    The stretch runs from the first iteration after the peak at or below -30 dB
    to the first at or below -230 dB of the whole ensemble's curve (the first
    samples, with few taps filled, can lie below -30 dB). The standard error is
    that of the mean over ``groups`` equal groups of runs, each group's slope
    fitted on its own mean curve over the same stretch.
    """
    config = ExperimentConfig(plant=PlantModel(h=H), algorithm=algorithm, noise=noise,
                              iterations=iterations, ensemble_runs=runs, base_seed=11)
    result = run_ensemble(config)
    curve = result.trace.values_db
    peak = int(np.argmax(curve))
    start, stop = (peak + int(np.argmax(curve[peak:] <= level)) for level in (-30.0, -230.0))
    assert peak < start < stop, f"{algorithm}: the curve does not cross -30 and -230 dB"
    n = np.arange(start, stop)
    squared = np.array([run.mse_trace[start:stop] for run in result.runs])
    group_slopes = [np.polyfit(n, 10 * np.log10(group.mean(axis=0)), 1)[0]
                    for group in np.split(squared, groups)]
    return np.polyfit(n, curve[start:stop], 1)[0], np.std(group_slopes, ddof=1) / np.sqrt(groups)


@pytest.mark.parametrize("kind, order", [(AlgorithmKind.BNDR_LMS, 2), (AlgorithmKind.R_AP, 4)])
def test_projection_converges_on_ar1_input_as_on_white_input(kind, order):
    algorithm = AlgorithmConfig(kind, filter_length=L, mu=1.0, mu_mode=MuMode.FIXED,
                                projection_order=order)
    white, white_se = _decay_slope(algorithm, NoiseSpec(NoiseKind.WHITE, sigma=1.0))
    colored, colored_se = _decay_slope(
        algorithm, NoiseSpec(NoiseKind.AR1_COLORED, sigma=1.0, ar_coefficient=0.9))
    ratio = colored / white
    ratio_se = abs(ratio) * np.hypot(white_se / white, colored_se / colored)
    band = DECORRELATION_TOLERANCE + 3 * ratio_se
    assert abs(ratio - 1) <= band, (
        f"{kind.value} N={order}: slopes {colored:.4f} (AR(1)) and {white:.4f} (white) dB per "
        f"iteration, ratio {ratio:.4f}, band {band:.4f}")
