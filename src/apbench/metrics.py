"""Learning-curve post-processing: smoothing, onset detection, weight match.

MSE traces are handled in dB but smoothed in the linear domain. Every dB value
in apbench comes from _db, whose floor keeps deep convergence finite. Every
module checks its numbers with the rules here: _integer, _check_count, _check_seed, _check_real.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MseTrace",
    "TmReport",
    "smooth",
    "compute_tm",
    "misalignment_db",
    "MSE_FLOOR",
    "MSE_FLOOR_DB",
    "ONSET_DROP_DB",
]

MSE_FLOOR_DB = -300.0
MSE_FLOOR = 10.0 ** (MSE_FLOOR_DB / 10.0)  # 1e-30, exactly
# compute_tm confirms a descent once the smoothed curve falls this far below its running maximum
ONSET_DROP_DB = 3.0

_SEED_MASK = (1 << 64) - 1

# the most float64 elements numpy can describe in one array: it refuses a
# longer one outright, so a count above it fails validation instead
MAX_COUNT = np.iinfo(np.intp).max // 8


def _db(values: np.ndarray, per_decade: float = 10.0) -> np.ndarray:
    """10 (powers) or 20 (magnitudes) * log10 of values, floored at MSE_FLOOR_DB, in place."""
    np.maximum(values, 10.0 ** (MSE_FLOOR_DB / per_decade), out=values)
    np.log10(values, out=values)
    values *= per_decade
    return values


def _integer(name: str, value) -> int:
    """``value`` as an int or a ValueError naming it: a float or bool is refused, as in a file."""
    try:
        return operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_count(name: str, count) -> int:
    """The one rule for a count: an integer, 1 <= count <= MAX_COUNT. Returns it."""
    count = _integer(name, count)
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    if count > MAX_COUNT:
        raise ValueError(f"{name} must be at most {MAX_COUNT}, got {count}")
    return count


def _check_seed(name: str, seed) -> int:
    """The one rule for a seed: an unsigned 64-bit integer. Returns it."""
    seed = _integer(name, seed)
    if not 0 <= seed <= _SEED_MASK:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {seed}")
    return seed


def _check_real(name: str, value, low=None, strict=False, ndim=0):
    """The one rule for a real, or a vector of reals at ndim 1: held by numpy as an int or float,
    finite and, given low, >= low (> if strict). Returns it."""
    values = np.asarray(value)
    if values.dtype.kind not in "iuf" or values.ndim != ndim:
        raise ValueError(f"{name} must be a number, got {value!r}")
    if low is not None and not (value > low if strict else value >= low):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {low}, got {value}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class MseTrace:
    """A learning curve in dB plus the smoothing window it was produced with."""

    values_db: np.ndarray
    smoothing_window: int = 1

    def __post_init__(self):
        object.__setattr__(self, "values_db", np.asarray(self.values_db, dtype=float))
        if self.values_db.ndim != 1 or self.values_db.shape[0] < 1:
            raise ValueError("values_db must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.values_db)):
            raise ValueError("values_db must be finite (floor-clamp upstream)")
        object.__setattr__(self, "smoothing_window",
                           _check_count("smoothing_window", self.smoothing_window))

    def __len__(self) -> int:
        return self.values_db.shape[0]


def smooth(trace: MseTrace, window: int) -> MseTrace:
    """Centered moving average in the linear domain, re-expressed in dB.

    Position n averages the linear values over [n - floor(W/2),
    n + floor((W-1)/2)]; edge positions use the part of that window that
    fits inside the trace. window = 1 returns the trace unchanged.
    """
    n = len(trace)
    window = _integer("window", window)
    if not 1 <= window <= n:
        raise ValueError(f"window must lie in [1, {n}], got {window}")
    if window == 1:
        return MseTrace(trace.values_db.copy(), smoothing_window=1)
    lin = trace.values_db / 10.0
    np.power(10.0, lin, out=lin)
    # each window sum is an independent dot product, so tiny late-trace
    # values are not absorbed by large early ones (unlike a cumsum scheme)
    out = np.convolve(lin, np.ones(window), mode="same")
    # divide position i by the size of [i - head, i + tail] clipped to the
    # trace, an exact integer. As window <= n, the first head positions are
    # clipped at the start only, the last tail ones at the end only, and the
    # rest hold all window values.
    head, tail = window // 2, (window - 1) // 2
    out[:head] /= np.arange(tail + 1, window)
    out[head:n - tail] /= window
    out[n - tail:] /= np.arange(window - 1, head, -1)
    return MseTrace(_db(out), smoothing_window=window)


@dataclass(frozen=True)
class TmReport:
    """Adaptation-onset index plus the parameters that produced it."""

    t_m: int
    window: int
    slack_db: float
    never_monotone: bool = False


def compute_tm(trace: MseTrace, window: int = 10, slack_db: float = 0.1) -> TmReport:
    """Iteration index at which the smoothed curve starts decreasing.

    The descent is confirmed at the first index where the smoothed trace has
    fallen ONSET_DROP_DB below its running maximum (it has left its
    initial plateau for good); the onset t_m is then the smallest index m
    from which every consecutive smoothed pair up to the confirmation point
    decreases by at least ``slack_db``. A trace that never drops
    ONSET_DROP_DB below its running maximum never becomes monotone:
    t_m = len(trace) - 1 with the never_monotone flag set.

    A trace whose ``smoothing_window`` equals ``window`` is taken as already
    smoothed and used as it is, so compute_tm(smooth(raw, W), W) equals
    compute_tm(raw, W) without a second smoothing pass.

    The result is invariant to adding a constant (in dB) to the whole trace.
    """
    _check_real("slack_db", slack_db, 0)
    if trace.smoothing_window != window:
        trace = smooth(trace, window)
    s = trace.values_db
    n = s.shape[0]

    confirm = -1
    running_max = -np.inf
    for i in range(n):
        if s[i] > running_max:
            running_max = s[i]
        elif s[i] <= running_max - ONSET_DROP_DB:
            confirm = i
            break
    if confirm < 0:
        return TmReport(t_m=n - 1, window=window, slack_db=slack_db, never_monotone=True)

    m = confirm
    while m > 0 and s[m] <= s[m - 1] - slack_db:
        m -= 1
    return TmReport(t_m=m, window=window, slack_db=slack_db, never_monotone=False)


def misalignment_db(w, h) -> float:
    """Normalized weight-error 20*log10(||w - h|| / ||h||), floored at -300 dB.

    Both are 1-D; vectors of unequal length are compared after zero-padding
    the shorter.
    """
    wv, hv = np.asarray(w, dtype=float), np.asarray(h, dtype=float)
    if wv.ndim != 1 or hv.ndim != 1:
        raise ValueError(f"w and h must be 1-D vectors, got shapes {wv.shape} and {hv.shape}")
    size = max(wv.shape[0], hv.shape[0])
    wv, hv = (np.pad(v, (0, size - v.shape[0])) for v in (wv, hv))
    h_norm = float(np.linalg.norm(hv))
    if h_norm == 0.0:
        raise ValueError("misalignment is undefined for an all-zero reference vector")
    return float(_db(np.array(float(np.linalg.norm(wv - hv)) / h_norm), 20.0))
