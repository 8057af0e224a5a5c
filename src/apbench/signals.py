"""Sample buffers, noise generation, FIR plant design and frequency responses.

All randomness goes through numpy's PCG64 bit generator with explicit 64-bit
seeds, so every generated sequence is bit-reproducible across platforms and
runs. Signals are real-valued float64 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "TapDelayLine",
    "NoiseKind",
    "NoiseSpec",
    "FrequencyResponse",
    "generate_noise",
    "input_variance",
    "design_highpass_fir",
    "frequency_response",
    "MAG_FLOOR",
]

# magnitudes below this are clamped before taking logs
MAG_FLOOR = 1e-15

# frequencies evaluated per block in frequency_response: its phase matrix is
# at most this many rows x taps (1 MB of complex128 at 64 taps)
FREQ_BLOCK_ROWS = 1024

_SEED_MASK = (1 << 64) - 1


class TapDelayLine:
    """Fixed-length shift register holding the most recent input samples.

    ``taps[0]`` is the newest sample, ``taps[L-1]`` the oldest. All taps are
    exactly zero until samples are pushed; each push shifts every tap by one
    and discards the oldest.
    """

    __slots__ = ("_taps",)

    def __init__(self, length: int):
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        self._taps = np.zeros(length)

    @property
    def length(self) -> int:
        return self._taps.shape[0]

    @property
    def taps(self) -> np.ndarray:
        """Current contents, newest first (a copy)."""
        return self._taps.copy()

    def push(self, x: float) -> "TapDelayLine":
        """Shift in one sample; returns self for chaining."""
        self._taps[1:] = self._taps[:-1]
        self._taps[0] = x
        return self

    def push_all(self, xs) -> "TapDelayLine":
        for x in xs:
            self.push(x)
        return self

    def squared_norm(self) -> float:
        return float(self._taps @ self._taps)

    def __len__(self) -> int:
        return self._taps.shape[0]

    def __repr__(self) -> str:
        return f"TapDelayLine({self._taps.tolist()})"


class NoiseKind(Enum):
    WHITE = "white"
    AR1_COLORED = "ar1"
    FIR_COLORED = "fir"


@dataclass(frozen=True)
class NoiseSpec:
    """Specification of a seeded excitation sequence.

    sigma is the standard deviation of the underlying white Gaussian source.
    For AR1_COLORED the source is passed through y[n] = a*y[n-1] + w[n] with
    zero initial state; for FIR_COLORED it is convolved causally with
    ``fir_coefficients`` (zero initial state).
    """

    kind: NoiseKind
    sigma: float
    ar_coefficient: float = 0.0
    fir_coefficients: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not (0 <= self.seed <= _SEED_MASK):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.kind is NoiseKind.AR1_COLORED and not abs(self.ar_coefficient) < 1:
            raise ValueError(
                f"ar_coefficient must lie in (-1, 1) for a stable AR(1) process, "
                f"got {self.ar_coefficient}"
            )
        if self.kind is NoiseKind.FIR_COLORED:
            if not self.fir_coefficients:
                raise ValueError("fir_coefficients must be a non-empty sequence")
            object.__setattr__(self, "fir_coefficients", tuple(float(c) for c in self.fir_coefficients))


def generate_noise(spec: NoiseSpec, count: int) -> np.ndarray:
    """Generate ``count`` samples of the excitation described by ``spec``.

    Pure function of (spec, count): equal arguments give bit-identical arrays.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if spec.sigma <= 0:
        raise ValueError("sigma must be > 0 to generate a nonzero-length sequence")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    w = spec.sigma * rng.standard_normal(count)
    if spec.kind is NoiseKind.WHITE:
        return w
    # imported only for colored noise: loading scipy.signal costs more than a white run
    from scipy.signal import lfilter

    if spec.kind is NoiseKind.AR1_COLORED:
        return lfilter([1.0], [1.0, -spec.ar_coefficient], w)
    return lfilter(list(spec.fir_coefficients), [1.0], w)


def input_variance(spec: NoiseSpec) -> float:
    """Stationary variance of the excitation process."""
    s2 = spec.sigma**2
    if spec.kind is NoiseKind.WHITE:
        return s2
    if spec.kind is NoiseKind.AR1_COLORED:
        return s2 / (1.0 - spec.ar_coefficient**2)
    b = np.asarray(spec.fir_coefficients)
    return s2 * float(b @ b)


def design_highpass_fir(num_taps: int, cutoff_fn: float) -> np.ndarray:
    """Design a linear-phase high-pass FIR filter by spectral inversion.

    A Hamming-windowed sinc low-pass at ``cutoff_fn`` (normalized so that
    1.0 is the Nyquist frequency) is normalized to unit DC gain, inverted
    about the center tap (h_hp[k] = delta[k-M] - h_lp[k]), and finally scaled
    for unit magnitude at the Nyquist frequency. ``num_taps`` must be odd
    (type-I linear phase); the result is exactly symmetric about its center.
    """
    if num_taps < 1 or num_taps % 2 == 0:
        raise ValueError(f"num_taps must be an odd positive integer, got {num_taps}")
    if not 0.0 < cutoff_fn < 1.0:
        raise ValueError(f"cutoff_fn must lie in (0, 1), got {cutoff_fn}")
    if num_taps == 1:
        # Degenerate single-tap case: inversion of the raw kernel gives
        # [1 - cutoff_fn], which Nyquist normalization maps to [1].
        return np.ones(1)

    mid = (num_taps - 1) // 2
    # build one half and mirror so symmetry is exact in floating point
    k = np.arange(mid + 1)
    half = cutoff_fn * np.sinc(cutoff_fn * (k - mid))
    half *= 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (num_taps - 1))
    h_lp = np.concatenate([half, half[:-1][::-1]])
    h_lp /= h_lp.sum()

    h_hp = -h_lp
    h_hp[mid] += 1.0
    # response at omega = pi; alternating signs since e^{-j pi k} = (-1)^k
    signs = np.where(np.arange(num_taps) % 2 == 0, 1.0, -1.0)
    gain_nyquist = float(h_hp @ signs)
    return h_hp / gain_nyquist


@dataclass(frozen=True)
class FrequencyResponse:
    """Magnitude response sampled on [0, pi]."""

    omegas: np.ndarray
    magnitude_db: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omegas", np.asarray(self.omegas, dtype=float))
        object.__setattr__(self, "magnitude_db", np.asarray(self.magnitude_db, dtype=float))
        if self.omegas.shape != self.magnitude_db.shape:
            raise ValueError("omegas and magnitude_db must have matching shapes")
        if np.any(np.diff(self.omegas) <= 0):
            raise ValueError("omegas must be strictly increasing")


def frequency_response(w, k_points: int) -> FrequencyResponse:
    """Evaluate 20*log10|H(e^{j omega})| at k_points frequencies on [0, pi].

    The grid is evaluated in blocks of at most FREQ_BLOCK_ROWS frequencies,
    so the complex phase matrix never exceeds FREQ_BLOCK_ROWS x taps and
    memory does not grow with k_points. Each block does the same arithmetic
    as one k_points x taps evaluation, so the result is the same bit for bit.
    Magnitudes are clamped at MAG_FLOOR before the log so the response of a
    perfect null is finite (-300 dB).
    """
    if k_points < 2:
        raise ValueError(f"k_points must be >= 2, got {k_points}")
    coeffs = np.asarray(w, dtype=float)
    omegas = np.linspace(0.0, np.pi, k_points)
    taps = np.arange(coeffs.shape[0])
    mags = np.empty(k_points)
    # equal blocks of at most FREQ_BLOCK_ROWS rows, never a single row: numpy
    # evaluates a one-row product as a vector dot product, which sums in a
    # different order than the matrix-vector product and changes the last bit
    blocks = -(-k_points // FREQ_BLOCK_ROWS)
    for i in range(blocks):
        rows = slice(i * k_points // blocks, (i + 1) * k_points // blocks)
        mags[rows] = np.abs(np.exp(-1j * np.outer(omegas[rows], taps)) @ coeffs)
    mag_db = 20.0 * np.log10(np.maximum(mags, MAG_FLOOR))
    return FrequencyResponse(omegas=omegas, magnitude_db=mag_db)
