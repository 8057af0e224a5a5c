"""Tests for tap-delay lines, noise generation and FIR design."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apbench.signals import (
    FREQ_BLOCK_ROWS,
    MAG_FLOOR,
    NoiseKind,
    NoiseSpec,
    TapDelayLine,
    design_highpass_fir,
    frequency_response,
    generate_noise,
    input_variance,
)


class TestTapDelayLine:
    def test_starts_zero(self):
        line = TapDelayLine(4)
        assert np.array_equal(line.taps, np.zeros(4))

    def test_push_shifts(self):
        line = TapDelayLine(3)
        line.push(5.0)
        assert np.array_equal(line.taps, [5.0, 0.0, 0.0])
        line.push(7.0)
        assert np.array_equal(line.taps, [7.0, 5.0, 0.0])

    def test_overfill_discards_oldest(self):
        L = 6
        line = TapDelayLine(L)
        for v in range(1, L + 2):
            line.push(float(v))
        assert np.array_equal(line.taps, np.arange(L + 1, 1, -1, dtype=float))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
           st.integers(min_value=1, max_value=12))
    def test_shift_register_property(self, samples, L):
        line = TapDelayLine(L)
        line.push_all(samples)
        padded = [0.0] * L + samples
        expected = np.array(padded[-L:][::-1])
        assert np.array_equal(line.taps, expected)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            TapDelayLine(0)


class TestGenerateNoise:
    def test_white_statistics(self):
        spec = NoiseSpec(NoiseKind.WHITE, sigma=1.0, seed=2024)
        x = generate_noise(spec, 10**5)
        assert abs(x.mean()) < 0.02
        assert 0.95 < x.var() < 1.05

    def test_deterministic(self):
        spec = NoiseSpec(NoiseKind.AR1_COLORED, sigma=2.0, ar_coefficient=0.5, seed=99)
        assert np.array_equal(generate_noise(spec, 512), generate_noise(spec, 512))

    def test_ar1_zero_pole_is_white(self):
        white = NoiseSpec(NoiseKind.WHITE, sigma=1.3, seed=7)
        ar0 = NoiseSpec(NoiseKind.AR1_COLORED, sigma=1.3, ar_coefficient=0.0, seed=7)
        assert np.array_equal(generate_noise(white, 256), generate_noise(ar0, 256))

    def test_ar1_stationary_variance(self):
        a = 0.9
        spec = NoiseSpec(NoiseKind.AR1_COLORED, sigma=1.0, ar_coefficient=a, seed=31)
        x = generate_noise(spec, 10**6)
        expected = 1.0 / (1.0 - a**2)  # approx 5.263
        assert abs(x.var() - expected) / expected < 0.05

    def test_ar1_matches_recursion_oracle(self):
        a, seed, n = 0.7, 11, 200
        w = generate_noise(NoiseSpec(NoiseKind.WHITE, sigma=1.0, seed=seed), n)
        x = generate_noise(NoiseSpec(NoiseKind.AR1_COLORED, sigma=1.0,
                                     ar_coefficient=a, seed=seed), n)
        y = 0.0
        for i in range(n):
            y = a * y + w[i]
            assert abs(x[i] - y) < 1e-12

    def test_fir_matches_convolution_oracle(self):
        b = (0.5, -0.25, 0.125)
        seed, n = 5, 150
        w = generate_noise(NoiseSpec(NoiseKind.WHITE, sigma=1.0, seed=seed), n)
        x = generate_noise(NoiseSpec(NoiseKind.FIR_COLORED, sigma=1.0,
                                     fir_coefficients=b, seed=seed), n)
        ref = np.convolve(w, b)[:n]
        np.testing.assert_allclose(x, ref, atol=1e-14)

    def test_rejections(self):
        spec = NoiseSpec(NoiseKind.WHITE, sigma=1.0, seed=0)
        with pytest.raises(ValueError):
            generate_noise(spec, 0)
        with pytest.raises(ValueError):
            generate_noise(NoiseSpec(NoiseKind.WHITE, sigma=0.0), 10)
        for sigma in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                NoiseSpec(NoiseKind.WHITE, sigma=sigma)
        with pytest.raises(ValueError):
            NoiseSpec(NoiseKind.AR1_COLORED, sigma=1.0, ar_coefficient=1.0)
        with pytest.raises(ValueError):
            NoiseSpec(NoiseKind.FIR_COLORED, sigma=1.0, fir_coefficients=())
        with pytest.raises(ValueError):
            NoiseSpec(NoiseKind.WHITE, sigma=1.0, seed=-1)

    def test_input_variance_closed_forms(self):
        assert input_variance(NoiseSpec(NoiseKind.WHITE, sigma=2.0)) == 4.0
        ar = NoiseSpec(NoiseKind.AR1_COLORED, sigma=1.0, ar_coefficient=0.9)
        assert input_variance(ar) == pytest.approx(1.0 / 0.19)
        fir = NoiseSpec(NoiseKind.FIR_COLORED, sigma=2.0, fir_coefficients=(1.0, 0.5))
        assert input_variance(fir) == pytest.approx(4.0 * 1.25)


def test_ar1_coloring_increases_eigenvalue_spread():
    # theoretical Toeplitz autocorrelation r[k] = sigma^2 a^|k| / (1 - a^2)
    a, L = 0.9, 13
    k = np.arange(L)
    r = a**k / (1.0 - a**2)
    R = r[np.abs(k[:, None] - k[None, :])]
    eig = np.linalg.eigvalsh(R)
    spread = eig[-1] / eig[0]
    assert spread > 100.0
    # white input has unit spread by the same construction
    eye_spread = 1.0
    assert spread > eye_spread


class TestDesignHighpassFir:
    def test_13_tap_properties(self):
        h = design_highpass_fir(13, 0.4)
        assert h.shape == (13,)
        assert np.array_equal(h, h[::-1])  # exactly symmetric
        assert abs(h.sum()) < 1e-3  # high-pass: (near) zero DC gain

    def test_single_tap_degenerates_to_identity(self):
        for fn in (0.1, 0.4, 0.9):
            assert np.array_equal(design_highpass_fir(1, fn), [1.0])

    def test_matches_arbitrary_precision_oracle(self):
        # independent evaluation of the windowed-sinc recipe with mpmath
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        num_taps, fn = 13, 0.4
        mid = (num_taps - 1) // 2
        fn_mp = mp.mpf(2) / 5

        def sinc(v):
            return mp.mpf(1) if v == 0 else mp.sin(mp.pi * v) / (mp.pi * v)

        hlp = []
        for k in range(num_taps):
            window = mp.mpf("0.54") - mp.mpf("0.46") * mp.cos(2 * mp.pi * k / (num_taps - 1))
            hlp.append(fn_mp * sinc(fn_mp * (k - mid)) * window)
        total = sum(hlp)
        hlp = [v / total for v in hlp]
        hhp = [-v for v in hlp]
        hhp[mid] += 1
        nyq = sum(v * (-1) ** k for k, v in enumerate(hhp))
        expected = np.array([float(v / nyq) for v in hhp])

        h = design_highpass_fir(num_taps, fn)
        assert np.max(np.abs(h - expected)) < 1e-12

    def test_rejections(self):
        with pytest.raises(ValueError):
            design_highpass_fir(12, 0.4)
        with pytest.raises(ValueError):
            design_highpass_fir(-3, 0.4)
        with pytest.raises(ValueError):
            design_highpass_fir(13, 0.0)
        with pytest.raises(ValueError):
            design_highpass_fir(13, 1.0)


class TestFrequencyResponse:
    def test_impulse_is_allpass(self):
        fr = frequency_response([1.0], 33)
        np.testing.assert_allclose(fr.magnitude_db, 0.0, atol=1e-12)

    def test_highpass_endpoints(self):
        h = design_highpass_fir(13, 0.4)
        fr = frequency_response(h, 257)
        assert fr.magnitude_db[0] < -60.0
        assert abs(fr.magnitude_db[-1]) < 0.1

    def test_two_tap_averager_nulls_nyquist(self):
        fr = frequency_response([0.5, 0.5], 5)
        assert fr.magnitude_db[0] == pytest.approx(0.0, abs=1e-12)
        assert fr.magnitude_db[-1] == pytest.approx(-300.0)  # floor-clamped null

    def test_matches_direct_dtft_oracle(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(9)
        k_points = 17
        fr = frequency_response(w, k_points)
        for j in range(k_points):
            omega = j * np.pi / (k_points - 1)
            acc = sum(w[k] * np.exp(-1j * omega * k) for k in range(9))
            expected = 20.0 * np.log10(max(abs(acc), 1e-15))
            assert fr.magnitude_db[j] == pytest.approx(expected, abs=1e-9)
            assert fr.omegas[j] == pytest.approx(omega)

    def test_magnitude_invariant_to_time_reversal(self):
        h = design_highpass_fir(11, 0.3)
        a = frequency_response(h, 65).magnitude_db
        b = frequency_response(h[::-1], 65).magnitude_db
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_rejects_k_points_below_two(self):
        with pytest.raises(ValueError):
            frequency_response([1.0], 1)

    @pytest.mark.parametrize("taps", [1, 13, 64])
    @pytest.mark.parametrize("k_points", [
        2, FREQ_BLOCK_ROWS - 1, FREQ_BLOCK_ROWS, FREQ_BLOCK_ROWS + 1,
        2 * FREQ_BLOCK_ROWS + 1, 2 * FREQ_BLOCK_ROWS + 3,
    ])
    def test_blocks_equal_the_one_shot_formula_bit_for_bit(self, k_points, taps):
        omegas = np.linspace(0.0, np.pi, k_points)
        phases = np.exp(-1j * np.outer(omegas, np.arange(taps)))
        # several filters: a differently summed row changes the last bit of
        # only some of them
        for w in np.random.default_rng(taps).standard_normal((4, taps)):
            expected = 20.0 * np.log10(np.maximum(np.abs(phases @ w), MAG_FLOOR))
            fr = frequency_response(w, k_points)
            assert fr.omegas.tobytes() == omegas.tobytes()
            assert fr.magnitude_db.tobytes() == expected.tobytes()

    def test_memory_does_not_grow_with_the_grid(self):
        # one shot, 8192 x 64 complex phases alone are 8 MB (about 16 MB traced
        # peak); in blocks the peak is about one block's temporaries
        w = np.random.default_rng(5).standard_normal(64)
        tracemalloc.start()
        try:
            frequency_response(w, 8192)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6
