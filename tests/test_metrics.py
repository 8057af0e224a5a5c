"""Tests for smoothing, onset detection and misalignment."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apbench import algorithms, cli, metrics, sysid
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

    @pytest.mark.parametrize("n", [37, 50, 301])
    def test_within_a_derived_bound_of_an_fsum_window_mean(self, n):
        # a twin of the bit test above that holds in any summation order: each position
        # is 10 log10 of the math.fsum mean of its clipped window of Python-float powers.
        # Both sides divide by 10 alike, then differ by at most pow_ulp ulp per power,
        # (W - 1) u for smooth's sum of W positive terms, u for the fsum and u per
        # division; that relative error moves the dB value by 10/ln 10 times as much.
        # Each log10 adds log_ulp ulp of |log10| < 32, times 10, and the final
        # multiplication half an ulp of |dB| < 512 on each side
        u, pow_ulp, log_ulp = 2.0 ** -53, 4, 4
        values = np.random.default_rng(n).uniform(-280.0, 40.0, n)
        lin = [10.0 ** (v / 10.0) for v in values.tolist()]
        for w in sorted({2, 10, 37, n} & set(range(2, n + 1))):
            mean_rel = 2 * pow_ulp * 2 * u + (w - 1) * u + 3 * u
            bound = 10 / math.log(10) * mean_rel + 10 * 2 * log_ulp * math.ulp(31.0) \
                + math.ulp(511.0)
            back, fwd = w // 2, (w - 1) // 2
            expected = []
            for i in range(n):
                window = lin[max(0, i - back):min(n, i + fwd + 1)]
                expected.append(10.0 * math.log10(math.fsum(window) / len(window)))
            got = smooth(MseTrace(values), w).values_db
            assert np.abs(got - expected).max() <= bound, w

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
        with pytest.raises(ValueError, match="slack_db must be >= 0"):
            compute_tm(MseTrace(-np.arange(200.0)), slack_db=float("nan"))
        # unchecked, inf and True were accepted and a string died in a bare TypeError
        for slack, message in ((np.inf, "slack_db must be finite, got inf"),
                               ("0.1", r"slack_db must be a number, got '0\.1'"),
                               (True, "slack_db must be a number, got True")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                compute_tm(MseTrace(-np.arange(50.0)), slack_db=slack)


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

    @pytest.mark.parametrize("w, h, shapes", [
        ([[1.0]], [1.0], r"\(1, 1\) and \(1,\)"),
        ([1.0], [[1.0, 2.0]], r"\(1,\) and \(1, 2\)"),
        (1.0, [1.0], r"\(\) and \(1,\)"),
    ], ids=["2d_w", "2d_h", "scalar_w"])
    def test_rejects_what_is_not_a_vector(self, w, h, shapes):
        # unchecked, the first two read -300.0 and -6.99 dB, and a scalar died in an IndexError
        with pytest.raises(ValueError, match=f"^w and h must be 1-D vectors, got shapes {shapes}$"):
            misalignment_db(w, h)

    @given(st.floats(min_value=-50, max_value=50).filter(lambda a: abs(a) > 1e-6))
    def test_scale_invariance(self, alpha):
        w = np.array([0.3, -0.7, 0.2])
        h = np.array([1.0, 0.5, -0.5])
        assert misalignment_db(alpha * w, alpha * h) == pytest.approx(
            misalignment_db(w, h), abs=1e-9)


@pytest.mark.parametrize("values, window, message", [
    ([], 1, "values_db must be a non-empty 1-D array"),
    ([[0.0]], 1, "values_db must be a non-empty 1-D array"),
    ([0.0, -np.inf], 1, r"values_db must be finite \(floor-clamp upstream\)"),
    ([0.0], 0, "smoothing_window must be >= 1, got 0"),
    ([0.0, -1.0, -2.0], 2.5, r"smoothing_window must be an integer, got 2\.5"),
    ([0.0, -1.0, -2.0], 2.0, r"smoothing_window must be an integer, got 2\.0"),
    # unchecked, a bool was taken as a window of 1
    ([0.0, -1.0, -2.0], True, "^smoothing_window must be an integer, got True$"),
], ids=["empty", "2d", "not_finite", "window", "window_fraction", "window_float", "window_bool"])
def test_an_invalid_trace_is_rejected_with_its_message(values, window, message):
    with pytest.raises(ValueError, match=message):
        MseTrace(values, smoothing_window=window)


def test_smooth_rejects_a_float_window_with_its_message():
    with pytest.raises(ValueError, match=r"window must be an integer, got 2\.0"):
        smooth(MseTrace([0.0, -1.0, -2.0]), 2.0)
    # unchecked, a bool window returned the trace unsmoothed
    with pytest.raises(ValueError, match="^window must be an integer, got True$"):
        smooth(MseTrace([0.0, -1.0, -2.0]), True)


def test_the_number_rules_have_one_home():
    # a second copy of a rule is how a field comes to be checked by a rule of its own
    rules = {"_integer", "_check_count", "_check_seed", "_check_real", "MAX_COUNT", "_SEED_MASK"}
    for path in sorted(Path(metrics.__file__).parent.glob("*.py")):
        if path.name == "metrics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            defined = {node.name} if isinstance(node, ast.FunctionDef) else {
                t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)}
            assert not defined & rules, (path.name, defined & rules)
            imported = ([a.name for a in node.names] if isinstance(node, ast.Import)
                        else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "numbers" not in imported, path.name
    assert sysid._check_seed is metrics._check_seed
    assert algorithms._check_real is metrics._check_real
    assert cli._check_count is metrics._check_count
