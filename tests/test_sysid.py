"""Tests for the identification loop and ensemble harness."""

import warnings

import numpy as np
import pytest

from apbench import sysid
from apbench.algorithms import AlgorithmConfig, AlgorithmKind, MuMode, step_multiplies
from apbench.metrics import misalignment_db
from apbench.signals import NoiseKind, NoiseSpec, design_highpass_fir, generate_noise
from apbench.sysid import (
    MEASUREMENT_STREAM_SALT,
    AdaptationError,
    ExperimentConfig,
    PlantModel,
    run_ensemble,
    run_single,
)

WHITE = NoiseSpec(NoiseKind.WHITE, sigma=1.0)


def _config(algo, plant_h, iterations=200, runs=2, seed=1234, meas_sigma=0.0, noise=WHITE):
    return ExperimentConfig(
        plant=PlantModel(h=plant_h, measurement_noise_sigma=meas_sigma),
        algorithm=algo,
        noise=noise,
        iterations=iterations,
        ensemble_runs=runs,
        base_seed=seed,
    )


def _straight_line_oracle(config, run_index):
    """Deliberately plain re-implementation of the adaptation loop.

    Explicit shift registers, numpy's own solver, no shared code with the
    package loop beyond noise generation.
    """
    algo = config.algorithm
    L, N, T = algo.filter_length, algo.projection_order, config.iterations
    from dataclasses import replace

    x = generate_noise(replace(config.noise, seed=config.base_seed ^ run_index), T)
    d = np.convolve(x, config.plant.h)[:T]
    hist = np.zeros((N, L))  # row i = regressor i samples ago
    w = np.zeros(L)
    mse = np.zeros(T)
    from apbench.signals import input_variance

    delta = algo.resolved_delta(input_variance(config.noise))
    for n in range(T):
        hist[1:] = hist[:-1]
        hist[0, 1:] = hist[1, :-1] if N > 1 else hist[0, :-1].copy()
        hist[0, 0] = x[n]
        rows = min(n + 1, N)
        X = hist[:rows]
        d_vec = np.array([d[n - i] if n - i >= 0 else 0.0 for i in range(rows)])
        e_vec = d_vec - X @ w
        mse[n] = e_vec[0] ** 2
        if algo.mu_mode is MuMode.FIXED:
            mu = algo.mu
        else:
            mu = min(1.0 / (algo.normalization_order * float(X[0] @ X[0])), 1.0)
        eps = np.linalg.solve(X @ X.T + delta * np.eye(rows), e_vec)
        w = w + mu * (X.T @ eps)
    return mse, w


class TestRunSingle:
    def test_zero_plant_is_fixed_point(self):
        algo = AlgorithmConfig(AlgorithmKind.LMS, filter_length=4, mu=0.1)
        res = run_single(_config(algo, [0.0, 0.0]), 0)
        assert np.array_equal(res.mse_trace, np.zeros(200))
        assert np.array_equal(res.final_weights, np.zeros(4))

    def test_zero_plant_projection_fixed_point(self):
        algo = AlgorithmConfig(AlgorithmKind.R_AP, filter_length=4, projection_order=2,
                               mu_mode=MuMode.FIXED, mu=1.0, delta=1e-6)
        res = run_single(_config(algo, [0.0, 0.0]), 0)
        np.testing.assert_allclose(res.mse_trace, 0.0, atol=1e-28)
        np.testing.assert_allclose(res.final_weights, 0.0, atol=1e-14)

    def test_scalar_gain_identified_in_one_step(self):
        # order-1 projection at full step: exact fit after the first sample
        algo = AlgorithmConfig(AlgorithmKind.R_AP, filter_length=1, projection_order=1,
                               mu_mode=MuMode.FIXED, mu=1.0, delta=0.0)
        config = _config(algo, [1.0], iterations=50)
        res = run_single(config, 3)
        x = generate_noise(NoiseSpec(NoiseKind.WHITE, sigma=1.0, seed=1234 ^ 3), 50)
        assert res.mse_trace[0] == pytest.approx(x[0] ** 2)
        assert np.max(res.mse_trace[1:]) < 1e-24

    def test_r_ap_identifies_highpass_plant(self):
        h = design_highpass_fir(13, 0.4)
        algo = AlgorithmConfig(AlgorithmKind.R_AP, filter_length=13, projection_order=4,
                               mu_mode=MuMode.FIXED, mu=1.0)
        res = run_single(_config(algo, h, iterations=500), 0)
        assert np.max(np.abs(res.final_weights - h)) < 1e-3
        assert misalignment_db(res.final_weights, h) < -60.0

    @pytest.mark.parametrize("algo", [
        AlgorithmConfig(AlgorithmKind.BNDR_LMS, filter_length=13, mu_mode=MuMode.FIXED, mu=1.0),
        AlgorithmConfig(AlgorithmKind.BNDR_LMS, filter_length=13),  # auto-normalized
        AlgorithmConfig(AlgorithmKind.R_AP, filter_length=13, projection_order=4,
                        mu_mode=MuMode.FIXED, mu=0.7),
        AlgorithmConfig(AlgorithmKind.R_AP, filter_length=13, projection_order=3),
    ])
    def test_matches_straight_line_oracle(self, algo):
        h = design_highpass_fir(13, 0.4)
        config = _config(algo, h, iterations=300, seed=777)
        res = run_single(config, 1)
        oracle_mse, oracle_w = _straight_line_oracle(config, 1)
        mask = oracle_mse > 1e-12
        np.testing.assert_allclose(res.mse_trace[mask], oracle_mse[mask], rtol=1e-6)
        np.testing.assert_allclose(res.final_weights, oracle_w, atol=1e-9)

    def test_lms_matches_straight_line_oracle(self):
        h = design_highpass_fir(13, 0.4)
        algo = AlgorithmConfig(AlgorithmKind.LMS, filter_length=13, mu=0.02)
        config = _config(algo, h, iterations=300, seed=777)
        res = run_single(config, 1)
        from dataclasses import replace

        x = generate_noise(replace(config.noise, seed=config.base_seed ^ 1), 300)
        d = np.convolve(x, h)[:300]
        w = np.zeros(13)
        reg = np.zeros(13)
        mse = np.zeros(300)
        for n in range(300):
            reg[1:] = reg[:-1]
            reg[0] = x[n]
            e = d[n] - reg @ w
            mse[n] = e * e
            w = w + 0.02 * e * reg
        mask = mse > 1e-12
        np.testing.assert_allclose(res.mse_trace[mask], mse[mask], rtol=1e-8)
        np.testing.assert_allclose(res.final_weights, w, atol=1e-12)

    def test_run_seed_is_base_seed_xor_run_index(self):
        # identical effective seeds give identical runs regardless of how
        # (base_seed, run_index) splits: 6 ^ 3 == 5 ^ 0
        h = [1.0, 0.5]
        algo = AlgorithmConfig(AlgorithmKind.LMS, filter_length=2, mu=0.05)
        a = run_single(_config(algo, h, seed=6), 3)
        b = run_single(_config(algo, h, seed=5), 0)
        assert np.array_equal(a.mse_trace, b.mse_trace)
        assert np.array_equal(a.final_weights, b.final_weights)

    def test_noise_seed_field_is_overridden_per_run(self):
        h = [1.0, 0.5]
        algo = AlgorithmConfig(AlgorithmKind.LMS, filter_length=2, mu=0.05)
        a = run_single(_config(algo, h, noise=WHITE), 4)
        b = run_single(_config(algo, h, noise=NoiseSpec(NoiseKind.WHITE, sigma=1.0, seed=555)), 4)
        assert np.array_equal(a.mse_trace, b.mse_trace)

    def test_measurement_noise_sets_error_floor(self):
        sigma_v = 0.1
        algo = AlgorithmConfig(AlgorithmKind.LMS, filter_length=8, mu=0.01)
        config = _config(algo, [1.0] + [0.0] * 7, iterations=4000, runs=4,
                         meas_sigma=sigma_v)
        result = run_ensemble(config)
        tail_db = result.trace.values_db[-500:].mean()
        # noiseless part converges; the observation noise cannot be removed
        assert 10 * np.log10(sigma_v**2) - 1.5 < tail_db < 10 * np.log10(sigma_v**2) + 1.5

    def test_measurement_stream_differs_from_input_stream(self):
        spec = NoiseSpec(NoiseKind.WHITE, sigma=1.0, seed=123)
        other = NoiseSpec(NoiseKind.WHITE, sigma=1.0,
                          seed=(123 ^ MEASUREMENT_STREAM_SALT))
        assert not np.array_equal(generate_noise(spec, 64), generate_noise(other, 64))

    def test_singularity_error_carries_run_and_iteration(self):
        # scalar regressors make consecutive rows parallel: the order-2 Gram
        # is singular from the second step onward
        algo = AlgorithmConfig(AlgorithmKind.BNDR_LMS, filter_length=1,
                               mu_mode=MuMode.FIXED, mu=1.0)
        with pytest.warns(UserWarning):
            config = _config(algo, [2.0, 1.0], iterations=10)
        with pytest.raises(AdaptationError) as err:
            run_single(config, 5)
        assert err.value.run_index == 5
        assert err.value.iteration == 1
        assert "run 5" in str(err.value) and "iteration 1" in str(err.value)

    def test_energy_accounting(self):
        h = [1.0, -0.5]
        cases = [
            AlgorithmConfig(AlgorithmKind.LMS, filter_length=6, mu=0.05),
            AlgorithmConfig(AlgorithmKind.BNDR_LMS, filter_length=6),
            AlgorithmConfig(AlgorithmKind.R_AP, filter_length=6, projection_order=3),
        ]
        for algo in cases:
            res = run_single(_config(algo, h, iterations=123), 0)
            expected = 123 * step_multiplies(algo.kind, 6, algo.projection_order)
            assert res.total_multiplies == expected


@pytest.mark.parametrize("algo", [
    AlgorithmConfig(AlgorithmKind.LMS, filter_length=13, mu=0.05),
    AlgorithmConfig(AlgorithmKind.BNDR_LMS, filter_length=13),
    AlgorithmConfig(AlgorithmKind.R_AP, filter_length=13, projection_order=4),
], ids=["lms", "bndr_auto", "r_ap_auto"])
def test_noiseless_exact_model_convergence(algo):
    # persistently exciting white input and an exactly modelable plant:
    # every algorithm, at its default step-size mode, should be deep into
    # convergence (below -100 dB smoothed) by iteration 2000
    from apbench.metrics import smooth

    h = design_highpass_fir(13, 0.4)
    config = _config(algo, h, iterations=2000, runs=10, seed=99)
    ens = run_ensemble(config)
    smoothed = smooth(ens.trace, 10).values_db
    assert smoothed[-1] < -100.0


class TestRunEnsemble:
    def test_single_run_degenerate_ensemble(self):
        algo = AlgorithmConfig(AlgorithmKind.LMS, filter_length=4, mu=0.05)
        config = _config(algo, [1.0, 0.3], iterations=100, runs=1)
        ens = run_ensemble(config)
        single = run_single(config, 0)
        expected = 10 * np.log10(np.maximum(single.mse_trace, 1e-30))
        assert np.array_equal(ens.trace.values_db, expected)

    def test_one_run_lms_loop_equals_the_public_step_bit_for_bit(self):
        # a one-run ensemble adapts in place; run_single steps through lms_step
        algo = AlgorithmConfig(AlgorithmKind.LMS, filter_length=6, mu=0.05)
        config = _config(algo, [1.0, -0.4, 0.2], iterations=300, runs=1, meas_sigma=0.01)
        member = run_ensemble(config).runs[0]
        single = run_single(config, 0)
        assert np.array_equal(member.mse_trace, single.mse_trace)
        assert np.array_equal(member.final_weights, single.final_weights)

    def test_zero_plant_trace_is_floor(self):
        algo = AlgorithmConfig(AlgorithmKind.LMS, filter_length=4, mu=0.05)
        ens = run_ensemble(_config(algo, [0.0], iterations=50, runs=3))
        assert np.all(ens.trace.values_db == -300.0)

    def test_bitwise_deterministic_and_thread_invariant(self):
        h = design_highpass_fir(7, 0.5)
        algo = AlgorithmConfig(AlgorithmKind.R_AP, filter_length=7, projection_order=2,
                               mu_mode=MuMode.FIXED, mu=1.0)
        config = _config(algo, h, iterations=150, runs=6)
        a = run_ensemble(config, max_workers=1)
        b = run_ensemble(config, max_workers=1)
        c = run_ensemble(config, max_workers=4)
        assert np.array_equal(a.trace.values_db, b.trace.values_db)
        assert np.array_equal(a.trace.values_db, c.trace.values_db)
        for ra, rc in zip(a.runs, c.runs):
            assert np.array_equal(ra.final_weights, rc.final_weights)
            assert np.array_equal(ra.mse_trace, rc.mse_trace)

    def test_reports_failing_run_and_iteration(self):
        algo = AlgorithmConfig(AlgorithmKind.BNDR_LMS, filter_length=1,
                               mu_mode=MuMode.FIXED, mu=1.0)
        with pytest.warns(UserWarning):
            config = _config(algo, [1.0, 2.0], iterations=5, runs=2)
        with pytest.raises(AdaptationError) as err:
            run_ensemble(config)
        assert err.value.run_index == 0

    def test_residual_failure_reports_lowest_failing_run_while_others_solve(self):
        # N > L makes every Gram rank-deficient: delta = 1e-8 keeps it above the
        # pivot tolerance but too ill-conditioned for the residual bound once
        # measurement noise leaves an error along its null direction
        algo = AlgorithmConfig(AlgorithmKind.R_AP, filter_length=1, projection_order=2,
                               mu_mode=MuMode.FIXED, mu=1.0, delta=1e-8)
        config = _config(algo, [1.0], iterations=30, runs=4, seed=0, meas_sigma=0.01)
        for r in (0, 3):
            assert np.all(np.isfinite(run_single(config, r).final_weights))
        failures = {}
        for r in (1, 2):
            with pytest.raises(AdaptationError, match="residual bound") as err:
                run_single(config, r)
            failures[r] = err.value
        # run 2 fails first in time, but the lowest failing run is reported
        assert failures[2].iteration < failures[1].iteration
        with pytest.raises(AdaptationError) as err:
            run_ensemble(config)
        assert (err.value.run_index, err.value.iteration, str(err.value)) == (
            1, failures[1].iteration, str(failures[1]))
        assert isinstance(err.value.__cause__, ArithmeticError)

    def test_divergence_reports_lowest_run_and_first_nonfinite_iteration(self):
        # LMS far above its step-size bound under colored excitation
        noise = NoiseSpec(NoiseKind.AR1_COLORED, sigma=1.0, ar_coefficient=0.9)
        algo = AlgorithmConfig(AlgorithmKind.LMS, filter_length=7, mu=0.5)
        with pytest.warns(UserWarning, match=r"exceeds 2/\(L\*Var\(x\)\)"):
            config = _config(algo, design_highpass_fir(7, 0.5), iterations=400, runs=3,
                             seed=7, noise=noise)
        firsts = []
        for r in range(3):
            with pytest.raises(AdaptationError) as err:
                run_single(config, r)
            assert str(err.value).endswith(": diverged")
            firsts.append(err.value.iteration)
        assert all(0 < n < 400 for n in firsts)  # really diverges within T
        with pytest.raises(AdaptationError, match="diverged") as err:
            run_ensemble(config)
        assert (err.value.run_index, err.value.iteration) == (0, firsts[0])

    @pytest.mark.parametrize("kind", [AlgorithmKind.LMS, AlgorithmKind.R_AP])
    def test_replaced_run_single_sees_every_run_with_the_same_result(self, kind, monkeypatch):
        algo = AlgorithmConfig(kind, filter_length=4, mu=0.05) if kind is AlgorithmKind.LMS \
            else AlgorithmConfig(kind, filter_length=4, projection_order=3)
        config = _config(algo, [1.0, 0.3], iterations=60, runs=3)
        batched = run_ensemble(config)
        calls = {"run_single": 0, "lms_step": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(sysid, name, counting(name, getattr(sysid, name)))
        wrapped = run_ensemble(config)
        lms_steps = 3 * 60 if kind is AlgorithmKind.LMS else 0
        assert calls == {"run_single": 3, "lms_step": lms_steps}
        assert np.array_equal(wrapped.trace.values_db, batched.trace.values_db)
        for a, b in zip(wrapped.runs, batched.runs):
            assert np.array_equal(a.final_weights, b.final_weights)

    def test_max_workers_below_one_rejected(self):
        algo = AlgorithmConfig(AlgorithmKind.LMS, filter_length=4, mu=0.05)
        with pytest.raises(ValueError, match="max_workers"):
            run_ensemble(_config(algo, [1.0, 0.3], iterations=50, runs=3), max_workers=0)


class TestExperimentConfig:
    def test_under_modeling_warns(self):
        algo = AlgorithmConfig(AlgorithmKind.LMS, filter_length=2, mu=0.1)
        with pytest.warns(UserWarning, match="shorter than the plant"):
            _config(algo, [1.0, 0.5, 0.25])

    def test_stable_lms_step_size_does_not_warn(self):
        algo = AlgorithmConfig(AlgorithmKind.LMS, filter_length=13, mu=0.15)  # 2/13 = 0.154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _config(algo, [1.0])

    def test_validation(self):
        algo = AlgorithmConfig(AlgorithmKind.LMS, filter_length=2, mu=0.1)
        with pytest.raises(ValueError):
            _config(algo, [1.0], iterations=0)
        with pytest.raises(ValueError):
            _config(algo, [1.0], runs=0)
        with pytest.raises(ValueError):
            _config(algo, [1.0], seed=-2)
        with pytest.raises(ValueError):
            PlantModel(h=[])
        with pytest.raises(ValueError):
            PlantModel(h=[1.0], measurement_noise_sigma=-0.1)
