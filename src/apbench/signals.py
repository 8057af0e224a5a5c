"""Sample buffers, noise generation, FIR plant design and frequency responses.

All randomness goes through numpy's PCG64 bit generator with explicit 64-bit
seeds, so every generated sequence is bit-reproducible across platforms and
runs. Signals are real-valued float64 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .metrics import MSE_FLOOR_DB, _check_count, _check_real, _check_seed, _db, _integer

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

# magnitudes below this are clamped before taking logs: 1e-15, exactly
MAG_FLOOR = 10.0 ** (MSE_FLOOR_DB / 20.0)

# the most phases (rows x taps) in one frequency_response block: OpenBLAS threads
# a longer complex product, and a threaded call may stall for milliseconds
FREQ_BLOCK_ENTRIES = 4095


class TapDelayLine:
    """Fixed-length shift register holding the most recent input samples.

    ``taps[0]`` is the newest sample, ``taps[L-1]`` the oldest. All taps are
    exactly zero until samples are pushed; each push shifts every tap by one
    and discards the oldest.
    """

    __slots__ = ("_taps",)

    def __init__(self, length: int):
        _check_count("length", length)
        self._taps = np.zeros(length)

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
        if not isinstance(self.kind, NoiseKind):
            raise ValueError(f"kind must be a NoiseKind, got {self.kind!r}")
        _check_real("sigma", self.sigma, 0)
        object.__setattr__(self, "seed", _check_seed("seed", self.seed))
        _check_real("ar_coefficient", self.ar_coefficient)
        if self.kind is NoiseKind.AR1_COLORED and not abs(self.ar_coefficient) < 1:
            raise ValueError(
                f"ar_coefficient must lie in (-1, 1) for a stable AR(1) process, "
                f"got {self.ar_coefficient}"
            )
        if self.kind is NoiseKind.FIR_COLORED:
            if np.ndim(self.fir_coefficients) != 1 or not np.size(self.fir_coefficients):
                raise ValueError("fir_coefficients must be a non-empty sequence")
            object.__setattr__(self, "fir_coefficients", tuple(float(c) for c in _check_real(
                "fir_coefficients", self.fir_coefficients, ndim=1)))


def generate_noise(spec: NoiseSpec, count: int) -> np.ndarray:
    """Generate ``count`` samples of the excitation described by ``spec``.

    Pure function of (spec, count): equal arguments give bit-identical arrays.
    AR(1) coloring is the recursion y = w[n] + a*y in Python floats and FIR
    coloring the first ``count`` samples of the full convolution; both round
    as scipy.signal.lfilter does, so they give its output bit for bit.
    """
    _check_count("count", count)
    if spec.sigma <= 0:
        raise ValueError("sigma must be > 0 to generate a nonzero-length sequence")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    w = spec.sigma * rng.standard_normal(count)
    if spec.kind is NoiseKind.WHITE:
        return w
    if spec.kind is NoiseKind.FIR_COLORED:
        return np.convolve(spec.fir_coefficients, w)[:count]
    a, y, out = spec.ar_coefficient, 0.0, []
    for v in w.tolist():
        y = v + a * y
        out.append(y)
    return np.array(out)


def _ar1_rows(w: np.ndarray, a: float) -> None:
    """Color the white rows of ``w`` (R, T) in place by generate_noise's AR(1) recursion.

    y = w[:, n] + a*y runs over time on (R,) columns, with the operations of
    the Python-float loop, so each row equals that loop's output bit for bit.
    """
    y, ay, a = np.zeros(w.shape[0]), np.empty(w.shape[0]), np.float64(a)
    for col in w.T:
        col += np.multiply(a, y, out=ay)
        y = col


def input_variance(spec: NoiseSpec) -> float:
    """Stationary variance of the excitation process; inf where it overflows."""
    s2 = np.float64(spec.sigma) ** 2
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
    num_taps = _check_count("num_taps", num_taps)
    if num_taps % 2 == 0:
        raise ValueError(f"num_taps must be an odd positive integer, got {num_taps}")
    if not 0.0 < _check_real("cutoff_fn", cutoff_fn) < 1.0:
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

    Blocks of at most FREQ_BLOCK_ENTRIES phases bound the phase matrix
    without changing a bit of the result. A perfect null reads -300 dB.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or not w.size:
        raise ValueError(f"w must be a non-empty 1-D array, got shape {w.shape}")
    _check_real("w", w, ndim=1)
    omegas, (magnitude_db,) = _responses_db([w], k_points)
    return FrequencyResponse(omegas=omegas, magnitude_db=magnitude_db)


def _responses_db(vectors, k_points: int):
    """The grid of frequency_response and each vector's magnitude_db on it.

    Each block's phase matrix is built once for all the vectors; a shorter
    vector uses its leading columns.
    """
    k_points = _integer("k_points", k_points)
    if k_points < 2:
        raise ValueError(f"k_points must be >= 2, got {k_points}")
    coeffs = [np.asarray(w, dtype=float) for w in vectors]
    omegas = np.linspace(0.0, np.pi, k_points)
    taps = np.arange(max(c.shape[0] for c in coeffs))
    mags = np.empty((len(coeffs), k_points))
    # equal blocks of at most FREQ_BLOCK_ENTRIES phases (3 rows at any length),
    # so never a single row: numpy evaluates a one-row product as a vector dot
    # product, which sums in a different order than the matrix-vector product
    # and changes the last bit
    blocks = -(-k_points // max(3, FREQ_BLOCK_ENTRIES // taps.shape[0]))
    for i in range(blocks):
        rows = slice(i * k_points // blocks, (i + 1) * k_points // blocks)
        phase = np.exp(-1j * np.outer(omegas[rows], taps))
        for mag, c in zip(mags, coeffs):
            mag[rows] = np.abs(phase[:, :c.shape[0]] @ c)
    return omegas, _db(mags, 20.0)
