"""Tests for the adaptive update rules and complexity accounting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apbench.algorithms import (
    AlgorithmConfig,
    AlgorithmKind,
    ComplexityModel,
    DataMatrix,
    MuMode,
    SingularMatrixError,
    ap_step,
    auto_mu,
    bndr_lms_step,
    i_inv,
    lms_step,
    lms_update,
    max_stable_mu,
    step_multiplies,
    step_multiplies_literal,
)
from apbench.signals import NoiseKind, NoiseSpec, TapDelayLine, design_highpass_fir, generate_noise


class TestLmsStep:
    def test_zero_regressor_no_update(self):
        w, out = lms_step([0.3, -0.2], [0.0, 0.0], 1.0, 0.5)
        assert np.array_equal(w, [0.3, -0.2])
        assert out.output_y == 0.0
        assert out.error_e == 1.0

    def test_one_step_fit_on_unit_regressor(self):
        w, out = lms_step([0.0, 0.0], [1.0, 0.0], 1.0, 1.0)
        assert np.array_equal(w, [1.0, 0.0])
        assert out.error_e == 1.0
        w2, out2 = lms_step(w, [1.0, 0.0], 1.0, 1.0)
        assert out2.error_e == 0.0
        assert np.array_equal(w2, w)

    def test_update_formula(self):
        w, out = lms_step([0.5, 0.0, 0.0], [1.0, 2.0, 0.0], 1.0, 0.1)
        assert out.output_y == pytest.approx(0.5)
        assert out.error_e == pytest.approx(0.5)
        np.testing.assert_allclose(w, [0.55, 0.10, 0.0], atol=1e-15)

    def test_accepts_tap_delay_line(self):
        line = TapDelayLine(2)
        line.push(1.0)
        w, out = lms_step([0.0, 0.0], line, 2.0, 0.5)
        np.testing.assert_allclose(w, [1.0, 0.0])

    def test_error_is_exactly_desired_minus_output(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w0 = rng.standard_normal(5)
            x = rng.standard_normal(5)
            d = float(rng.standard_normal())
            _, out = lms_step(w0, x, d, 0.3)
            assert out.error_e == d - out.output_y

    def test_weight_change_is_parallel_to_regressor(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            w0 = rng.standard_normal(9)
            x = rng.standard_normal(9)
            w, _ = lms_step(w0, x, float(rng.standard_normal()), 0.4)
            dw = w - w0
            residual = dw - (float(dw @ x) / float(x @ x)) * x
            assert np.max(np.abs(residual)) < 1e-12


    def test_public_steps_never_modify_the_callers_weights(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(6)
        before = w.copy()
        w_new, _ = lms_step(w, rng.standard_normal(6), 1.0, 0.1)
        assert np.array_equal(w, before) and not np.shares_memory(w_new, w)
        w_new, _, _ = lms_update(w, rng.standard_normal(6), 1.0, 0.1)
        assert np.array_equal(w, before) and not np.shares_memory(w_new, w)
        batch = rng.standard_normal((3, 6))
        before = batch.copy()
        w_new, _, _ = lms_update(batch, rng.standard_normal((3, 6)), rng.standard_normal(3), 0.1)
        assert np.array_equal(batch, before) and not np.shares_memory(w_new, batch)


class TestApStep:
    def test_order_one_is_full_nlms_correction(self):
        w, out = ap_step([0.0, 0.0], [[2.0, 0.0]], [4.0], 1.0, 0.0)
        np.testing.assert_allclose(w, [2.0, 0.0], atol=1e-14)
        assert out.error_e == pytest.approx(4.0)
        # a-posteriori error vanishes at full step
        assert abs(4.0 - np.dot([2.0, 0.0], w)) < 1e-12

    def test_zero_error_is_fixed_point(self):
        w0 = np.array([0.5, -1.0, 0.25])
        X = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
        d = X @ w0
        w, out = ap_step(w0, X, d, 0.7, 0.0)
        np.testing.assert_allclose(w, w0, atol=1e-13)
        assert out.error_e == pytest.approx(0.0, abs=1e-15)

    def test_identity_gram_case(self):
        w, _ = ap_step([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], 1.0, 0.0)
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-14)

    def test_nlms_closed_form_equivalence(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            L = int(rng.integers(1, 33))
            w0 = rng.standard_normal(L)
            x = rng.standard_normal(L)
            d = float(rng.standard_normal())
            mu = float(rng.uniform(0.01, 2.0))
            w_ap, _ = ap_step(w0, x[None, :], [d], mu, 0.0)
            e = d - float(x @ w0)
            w_ref = w0 + mu * e * x / float(x @ x)
            np.testing.assert_allclose(w_ap, w_ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mu", [0.25, 0.5, 1.0])
    def test_partial_correction_scaling(self, mu):
        rng = np.random.default_rng(21)
        for _ in range(100):
            N = int(rng.integers(1, 5))
            L = int(rng.integers(N + 1, 16))
            X = rng.standard_normal((N, L))
            w0 = rng.standard_normal(L)
            d = rng.standard_normal(N)
            w, _ = ap_step(w0, X, d, mu, 0.0)
            e_pri = d - X @ w0
            e_post = d - X @ w
            np.testing.assert_allclose(e_post, (1.0 - mu) * e_pri, atol=1e-10)

    def test_update_lies_in_row_space(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            N = int(rng.integers(1, 5))
            L = int(rng.integers(N + 1, 20))
            X = rng.standard_normal((N, L))
            w0 = rng.standard_normal(L)
            d = rng.standard_normal(N)
            w, _ = ap_step(w0, X, d, 0.8, 0.0)
            delta_w = w - w0
            # residual of projecting the update onto span(rows of X)
            coeffs, *_ = np.linalg.lstsq(X.T, delta_w, rcond=None)
            assert np.max(np.abs(delta_w - X.T @ coeffs)) < 1e-10

    def test_regularization_continuity(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            N, L = 3, 10
            X = rng.standard_normal((N, L))
            w0 = rng.standard_normal(L)
            d = rng.standard_normal(N)
            w_exact, _ = ap_step(w0, X, d, 1.0, 0.0)
            gaps = []
            for delta in (1e-2, 1e-4, 1e-6):
                w_reg, _ = ap_step(w0, X, d, 1.0, delta)
                gaps.append(np.linalg.norm(w_reg - w_exact))
            assert gaps[0] >= gaps[1] >= gaps[2]
            assert gaps[2] < 1e-4

    def test_error_is_exactly_desired_minus_output(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            N = int(rng.integers(1, 4))
            L = int(rng.integers(N + 1, 10))
            X = rng.standard_normal((N, L))
            d = rng.standard_normal(N)
            _, out = ap_step(rng.standard_normal(L), X, d, 0.5, 1e-8)
            assert out.error_e == d[0] - out.output_y

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ap_step([0.0, 0.0], [[1.0, 0.0, 2.0]], [1.0], 1.0, 0.0)
        with pytest.raises(ValueError):
            ap_step([0.0, 0.0], [[1.0, 0.0]], [1.0, 2.0], 1.0, 0.0)
        with pytest.raises(ValueError):
            ap_step([0.0, 0.0], [[1.0, 0.0]], [1.0], 0.0, 0.0)


class TestBndrLmsStep:
    def test_bitwise_equal_to_order_two_projection(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            L = int(rng.integers(3, 20))
            X = rng.standard_normal((2, L))
            w0 = rng.standard_normal(L)
            d = rng.standard_normal(2)
            mu = float(rng.uniform(0.05, 1.5))
            w_b, out_b = bndr_lms_step(w0, X, d, mu)
            w_a, out_a = ap_step(w0, X, d, mu, 0.0)
            assert np.array_equal(w_b, w_a)
            assert out_b.output_y == out_a.output_y
            assert out_b.error_e == out_a.error_e

    def test_identity_gram_hand_case(self):
        w, _ = bndr_lms_step([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 3.0], 1.0)
        np.testing.assert_allclose(w, [2.0, 3.0], atol=1e-14)

    def test_rank_deficient_rows_raise(self):
        with pytest.raises(SingularMatrixError):
            bndr_lms_step([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0], 1.0)

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            bndr_lms_step([0.0, 0.0], [[1.0, 0.0]], [1.0], 1.0)


class TestStepSizes:
    def test_max_stable_mu_examples(self):
        assert max_stable_mu([1.0, 0.0, 0.0]) == pytest.approx(2.0)
        assert max_stable_mu([1.0, 1.0]) == pytest.approx(1.0)
        assert max_stable_mu([3.0, 4.0]) == pytest.approx(0.08)

    def test_auto_mu_examples(self):
        assert auto_mu([1.0, 0.0], 1) == pytest.approx(1.0)
        assert auto_mu([1.0, 1.0], 2) == pytest.approx(0.25)

    def test_zero_tap_line_rejected(self):
        with pytest.raises(ValueError):
            max_stable_mu([0.0, 0.0])
        with pytest.raises(ValueError):
            auto_mu(TapDelayLine(3), 1)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=16),
           st.integers(min_value=1, max_value=8))
    def test_auto_mu_within_stability_bound(self, taps, order):
        if sum(t * t for t in taps) == 0.0:  # includes squared-norm underflow
            return
        assert auto_mu(taps, order) <= max_stable_mu(taps) / 2.0


def test_lms_long_run_stays_bounded():
    # desk-scale stability check: mu at half the tightest per-step bound
    h = design_highpass_fir(13, 0.4)
    T, L = 10**5, 13
    x = generate_noise(NoiseSpec(NoiseKind.WHITE, sigma=1.0, seed=60), T)
    d = np.convolve(x, h)[:T]
    xp = np.concatenate([np.zeros(L - 1), x])
    taps = np.lib.stride_tricks.sliding_window_view(xp, L)[:, ::-1]
    norms = np.einsum("ij,ij->i", taps, taps)
    mu = 0.5 * float(np.min(2.0 / norms[norms > 0]))
    w = np.zeros(L)
    for n in range(T):
        w, _ = lms_step(w, taps[n], d[n], mu)
    assert np.max(np.abs(w)) <= 10.0 * np.max(np.abs(h))


class TestComplexity:
    def test_reference_counts(self):
        assert step_multiplies(AlgorithmKind.LMS, 13) == 26
        assert step_multiplies(AlgorithmKind.BNDR_LMS, 13) == 84
        assert step_multiplies(AlgorithmKind.R_AP, 13, 4) == 168

    def test_formula_grid(self):
        for L in range(4, 65):
            assert step_multiplies(AlgorithmKind.LMS, L) == 2 * L
            assert step_multiplies(AlgorithmKind.BNDR_LMS, L) == 4 * L + 4 * i_inv(2)
            for N in range(1, 9):
                assert step_multiplies(AlgorithmKind.R_AP, L, N) == 2 * N * L + N**3
                assert (step_multiplies_literal(AlgorithmKind.R_AP, L, N)
                        == 2 * N * L + N**3 * N**2)

    def test_literal_matches_corrected_for_non_projection_kinds(self):
        assert step_multiplies_literal(AlgorithmKind.LMS, 13) == 26
        assert step_multiplies_literal(AlgorithmKind.BNDR_LMS, 13) == 84

    def test_complexity_model(self):
        model = ComplexityModel(AlgorithmKind.R_AP, 13, 4)
        assert model.per_step_multiplies == 168
        assert model.per_step_multiplies_literal == 2 * 4 * 13 + 4**5


class TestDataMatrix:
    def test_rows_track_consecutive_pushes(self):
        dm = DataMatrix(order=3, filter_length=4)
        seen = []
        for v in range(1, 8):
            before = dm.rows
            dm.push_sample(float(v))
            after = dm.rows
            # row i now equals row i-1 from before the push
            np.testing.assert_array_equal(after[1:], before[:-1])
            seen.append(after[0].copy())
        # row 0 is the tap-delay line
        line = TapDelayLine(4)
        line.push_all([float(v) for v in range(1, 8)])
        np.testing.assert_array_equal(seen[-1], line.taps)


class TestAlgorithmConfig:
    def test_lms_defaults(self):
        cfg = AlgorithmConfig(AlgorithmKind.LMS, filter_length=8, mu=0.1)
        assert cfg.projection_order == 1
        assert cfg.mu_mode is MuMode.FIXED
        assert cfg.delta == 0.0

    def test_bndr_defaults(self):
        cfg = AlgorithmConfig(AlgorithmKind.BNDR_LMS, filter_length=8)
        assert cfg.projection_order == 2
        assert cfg.mu_mode is MuMode.AUTO_NORMALIZED
        assert cfg.normalization_order == 1

    def test_r_ap_defaults_and_auto_delta(self):
        cfg = AlgorithmConfig(AlgorithmKind.R_AP, filter_length=13, projection_order=4)
        assert cfg.mu_mode is MuMode.AUTO_NORMALIZED
        assert cfg.normalization_order == 4
        assert cfg.delta is None
        assert cfg.resolved_delta(1.0) == pytest.approx(1.3e-5)
        fixed = AlgorithmConfig(AlgorithmKind.R_AP, filter_length=13,
                                projection_order=4, delta=1e-4, mu_mode=MuMode.FIXED, mu=1.0)
        assert fixed.resolved_delta(123.0) == 1e-4

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(AlgorithmKind.LMS, filter_length=8, mu=0.1, projection_order=2)
        with pytest.raises(ValueError):
            AlgorithmConfig(AlgorithmKind.LMS, filter_length=8, mu=0.1,
                            mu_mode=MuMode.AUTO_NORMALIZED)
        with pytest.raises(ValueError):
            AlgorithmConfig(AlgorithmKind.BNDR_LMS, filter_length=8, projection_order=3)
        with pytest.raises(ValueError):
            AlgorithmConfig(AlgorithmKind.BNDR_LMS, filter_length=8, delta=1e-3)
        with pytest.raises(ValueError):
            AlgorithmConfig(AlgorithmKind.LMS, filter_length=8)  # fixed mode needs mu
        with pytest.raises(ValueError):
            AlgorithmConfig(AlgorithmKind.R_AP, filter_length=8, mu=-0.5)
        with pytest.raises(ValueError):
            AlgorithmConfig(AlgorithmKind.R_AP, filter_length=8, projection_order=0)
