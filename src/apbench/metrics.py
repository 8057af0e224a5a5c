"""Learning-curve post-processing: smoothing, onset detection, weight match.

MSE traces are handled in dB but smoothed in the linear domain; every dB
conversion clamps at MSE_FLOOR so logs stay finite through deep convergence.
"""

from __future__ import annotations

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
]

MSE_FLOOR = 1e-30
MSE_FLOOR_DB = -300.0


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
        if self.smoothing_window < 1:
            raise ValueError(f"smoothing_window must be >= 1, got {self.smoothing_window}")

    def __len__(self) -> int:
        return self.values_db.shape[0]


def smooth(trace: MseTrace, window: int) -> MseTrace:
    """Centered moving average in the linear domain, re-expressed in dB.

    Position n averages the linear values over [n - floor(W/2),
    n + floor((W-1)/2)]; edge positions use the part of that window that
    fits inside the trace. window = 1 returns the trace unchanged.
    """
    n = len(trace)
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
    np.maximum(out, MSE_FLOOR, out=out)
    np.log10(out, out=out)
    out *= 10.0
    return MseTrace(out, smoothing_window=window)


@dataclass(frozen=True)
class TmReport:
    """Adaptation-onset index plus the parameters that produced it."""

    t_m: int
    window: int
    slack_db: float
    never_monotone: bool = False


def compute_tm(trace: MseTrace, window: int = 10, slack_db: float = 0.1,
               onset_drop_db: float = 3.0) -> TmReport:
    """Iteration index at which the smoothed curve starts decreasing.

    The descent is confirmed at the first index where the smoothed trace has
    fallen ``onset_drop_db`` below its running maximum (it has left its
    initial plateau for good); the onset t_m is then the smallest index m
    from which every consecutive smoothed pair up to the confirmation point
    decreases by at least ``slack_db``. A trace that never drops
    ``onset_drop_db`` below its running maximum never becomes monotone:
    t_m = len(trace) - 1 with the never_monotone flag set.

    A trace whose ``smoothing_window`` equals ``window`` is taken as already
    smoothed and used as it is, so compute_tm(smooth(raw, W), W) equals
    compute_tm(raw, W) without a second smoothing pass.

    The result is invariant to adding a constant (in dB) to the whole trace.
    """
    if slack_db < 0:
        raise ValueError(f"slack_db must be >= 0, got {slack_db}")
    if trace.smoothing_window != window:
        trace = smooth(trace, window)
    s = trace.values_db
    n = s.shape[0]

    confirm = -1
    running_max = -np.inf
    for i in range(n):
        if s[i] > running_max:
            running_max = s[i]
        elif s[i] <= running_max - onset_drop_db:
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

    Vectors of unequal length are compared after zero-padding the shorter.
    """
    wv = np.asarray(w, dtype=float)
    hv = np.asarray(h, dtype=float)
    size = max(wv.shape[0], hv.shape[0])
    wv, hv = (np.pad(v, (0, size - v.shape[0])) for v in (wv, hv))
    h_norm = float(np.linalg.norm(hv))
    if h_norm == 0.0:
        raise ValueError("misalignment is undefined for an all-zero reference vector")
    ratio = float(np.linalg.norm(wv - hv)) / h_norm
    return max(20.0 * np.log10(max(ratio, 10 ** (MSE_FLOOR_DB / 20.0))), MSE_FLOOR_DB)
