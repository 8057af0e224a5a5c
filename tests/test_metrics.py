"""Tests for smoothing, onset detection and misalignment."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apbench.cli import load_experiment_file, resolve_config_path, run_experiment_file
from apbench.metrics import MSE_FLOOR, MseTrace, compute_tm, misalignment_db, smooth


def _smooth_oracle(values_db, window):
    """Independent direct evaluation of the documented moving average."""
    lin = [10.0 ** (v / 10.0) for v in values_db]
    n = len(lin)
    out = []
    back, fwd = window // 2, (window - 1) // 2
    for i in range(n):
        lo, hi = max(0, i - back), min(n - 1, i + fwd)
        chunk = lin[lo : hi + 1]
        out.append(10.0 * np.log10(max(sum(chunk) / len(chunk), 1e-30)))
    return np.array(out)


def _smooth_convolved(values_db, window):
    """The earlier implementation: window sizes from convolving all-ones."""
    lin = 10.0 ** (values_db / 10.0)
    kernel = np.ones(window)
    sums = np.convolve(lin, kernel, mode="same")
    counts = np.convolve(np.ones(len(values_db)), kernel, mode="same")
    return 10.0 * np.log10(np.maximum(sums / counts, MSE_FLOOR))


def _synthetic_traces():
    rng = np.random.default_rng(7)
    yield -1.0 * np.arange(100.0)
    yield np.concatenate([rng.uniform(-0.05, 0.05, 30), -1.0 * np.arange(1, 71)])
    yield np.zeros(80)
    yield 0.5 * np.arange(60.0)
    yield rng.uniform(-50, 0, 50)


@pytest.fixture(scope="module")
def white_results():
    spec = load_experiment_file(resolve_config_path("white"))
    return spec, run_experiment_file(spec)


class TestSmooth:
    def test_window_one_is_identity(self):
        trace = MseTrace(np.array([-3.0, -5.5, -2.0]))
        out = smooth(trace, 1)
        assert np.array_equal(out.values_db, trace.values_db)

    def test_constant_trace_unchanged(self):
        trace = MseTrace(np.full(40, -17.3))
        for w in (2, 3, 10, 40):
            np.testing.assert_allclose(smooth(trace, w).values_db, -17.3, atol=1e-12)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(12)
        values = -60.0 * rng.random(50)
        trace = MseTrace(values)
        for w in (2, 3, 7, 10):
            np.testing.assert_allclose(smooth(trace, w).values_db,
                                       _smooth_oracle(values, w), atol=1e-10)

    def test_db_ramp_interior_within_oracle_discrepancy(self):
        # linear-in-dB ramp: averaging in the linear domain biases each point
        # by a fixed amount; the direct oracle quantifies that bound
        ramp = -0.5 * np.arange(60)
        out = smooth(MseTrace(ramp), 3).values_db
        oracle = _smooth_oracle(ramp, 3)
        bound = np.max(np.abs(oracle[1:-1] - ramp[1:-1]))
        assert np.max(np.abs(out[1:-1] - ramp[1:-1])) <= bound + 1e-12

    def test_preserves_minimum_location_on_unimodal_trace(self):
        n = np.arange(200)
        valley = 0.005 * (n - 120.0) ** 2 - 40.0
        for w in (3, 10, 21):
            sm = smooth(MseTrace(valley), w).values_db
            assert abs(int(np.argmin(sm)) - 120) <= w

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 301])
    def test_bit_identical_to_the_convolved_window_sizes(self, n):
        values = -300.0 * np.random.default_rng(n).random(n)
        # window 1, n, and odd and even windows in between
        for w in sorted({2, 3, 4, 10, 11, n // 2 + 1, n - 1, n} & set(range(2, n + 1))):
            out = smooth(MseTrace(values), w).values_db
            assert out.tobytes() == _smooth_convolved(values, w).tobytes(), w
        assert smooth(MseTrace(values), 1).values_db.tobytes() == values.tobytes()

    def test_window_validation(self):
        trace = MseTrace(np.zeros(5))
        with pytest.raises(ValueError):
            smooth(trace, 0)
        with pytest.raises(ValueError):
            smooth(trace, 6)


class TestComputeTm:
    def test_strictly_decreasing_starts_at_zero(self):
        trace = MseTrace(-1.0 * np.arange(100.0))
        report = compute_tm(trace)
        assert report.t_m == 0
        assert not report.never_monotone

    def test_flat_then_decreasing_synthetic(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            flat = rng.uniform(-0.05, 0.05, 30)
            falling = -1.0 * np.arange(1, 71)
            trace = MseTrace(np.concatenate([flat, falling]))
            report = compute_tm(trace)
            assert 25 <= report.t_m <= 35
            assert not report.never_monotone

    def test_constant_trace_never_monotone(self):
        report = compute_tm(MseTrace(np.zeros(80)))
        assert report.never_monotone
        assert report.t_m == 79

    def test_rising_trace_never_monotone(self):
        report = compute_tm(MseTrace(0.5 * np.arange(60.0)))
        assert report.never_monotone

    def test_invariant_to_constant_offset(self):
        rng = np.random.default_rng(9)
        base = np.concatenate([rng.uniform(-0.05, 0.05, 25), -0.8 * np.arange(1, 60)])
        a = compute_tm(MseTrace(base))
        b = compute_tm(MseTrace(base + 55.0))
        assert a.t_m == b.t_m
        assert a.never_monotone == b.never_monotone

    def test_tm_below_trace_length(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            trace = MseTrace(rng.uniform(-50, 0, 50))
            report = compute_tm(trace)
            assert 0 <= report.t_m < 50

    def test_report_carries_parameters(self):
        report = compute_tm(MseTrace(-np.arange(40.0)), window=5, slack_db=0.2)
        assert report.window == 5
        assert report.slack_db == 0.2

    @pytest.mark.parametrize("window", [1, 2, 5, 10])
    def test_smoothed_trace_is_used_as_it_is(self, window):
        for values in _synthetic_traces():
            raw = MseTrace(values)
            assert compute_tm(smooth(raw, window), window) == compute_tm(raw, window)

    def test_smoothed_bundled_white_curves_give_the_same_onset(self, white_results):
        spec, results = white_results
        for res in results:
            raw = res.ensemble.trace
            w = spec.smoothing_window
            assert compute_tm(smooth(raw, w), w, spec.tm_slack_db) == compute_tm(
                raw, w, spec.tm_slack_db) == res.tm

    def test_rejects_negative_slack(self):
        with pytest.raises(ValueError):
            compute_tm(MseTrace(np.zeros(10)), slack_db=-0.1)


class TestMisalignment:
    def test_exact_match_is_floor(self):
        h = np.array([0.5, -0.25, 1.0])
        assert misalignment_db(h, h) == -300.0

    def test_zero_weights_is_zero_db(self):
        h = np.array([0.5, -0.25, 1.0])
        assert misalignment_db(np.zeros(3), h) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_weights_closed_form(self):
        h = np.array([0.5, -0.25, 1.0])
        assert misalignment_db(1.1 * h, h) == pytest.approx(20.0 * np.log10(0.1), abs=1e-9)

    def test_zero_padding_of_shorter_vector(self):
        h = np.array([1.0, 0.0])
        assert misalignment_db([1.0], h) == pytest.approx(-300.0)
        assert misalignment_db([1.0, 0.0, 2.0], h) == pytest.approx(20 * np.log10(2.0))

    def test_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            misalignment_db([1.0], [0.0])

    @given(st.floats(min_value=-50, max_value=50).filter(lambda a: abs(a) > 1e-6))
    def test_scale_invariance(self, alpha):
        w = np.array([0.3, -0.7, 0.2])
        h = np.array([1.0, 0.5, -0.5])
        assert misalignment_db(alpha * w, alpha * h) == pytest.approx(
            misalignment_db(w, h), abs=1e-9)
