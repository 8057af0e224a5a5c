"""Black-box system identification: plant, adaptation loop, ensemble average.

A run drives an unknown FIR plant and an adaptive filter with the same
excitation, feeds the error back into the chosen update rule, and records
the squared a-priori error per iteration. Runs are pure functions of
(config, run_index): the input noise is seeded with base_seed XOR run_index
and the optional measurement noise with an independent salted stream, so
ensembles are bit-reproducible and order-independent.

The members of an ensemble share the iteration count, projection order and
filter length, so one loop over time adapts all of them at once: weights of
shape (*B, L), data matrices of shape (*B, k, L) taken as strided views of
the inputs, errors of shape (*B, k), with B = (R,) for an ensemble and
B = () for a single run (also a one-run ensemble). Every member goes through
the same floating-point operations whatever else is in the batch, so its
results are bit-identical in an ensemble of any size and in run_single.
The LMS loop updates its weights in place through preallocated buffers,
with lms_update's operations. A member that fails (a singular projection
step after warm-up, a solve short of the residual bound, or divergence) is
frozen while the others finish, and the lowest failing run is reported.
run_single steps LMS through the public lms_step, and an ensemble runs
member by member through run_single when that function has been replaced
at this module's attribute (a timing wrapper), so that such a wrapper sees
every run and every LMS step.
The ``max_workers`` argument (``--threads`` on the command line) is still
accepted and validated but no longer changes how a run executes or what it
outputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algorithms import (AlgorithmConfig, AlgorithmKind, MuMode, ap_update, lms_step,
                         step_multiplies)
# not called here; it stays a module attribute next to lms_step for code that
# looks it up or wraps it here
from .algorithms import ap_step  # noqa: F401
from .linalg import residual_error, singular_error
from .metrics import MSE_FLOOR, MseTrace
from .signals import NoiseKind, NoiseSpec, generate_noise, input_variance

__all__ = [
    "PlantModel",
    "ExperimentConfig",
    "RunResult",
    "EnsembleResult",
    "AdaptationError",
    "run_single",
    "run_ensemble",
    "MEASUREMENT_STREAM_SALT",
]

_SEED_MASK = (1 << 64) - 1
# XORed into the per-run seed to decorrelate measurement noise from the input
MEASUREMENT_STREAM_SALT = 0x9E3779B97F4A7C15

# auto-normalized step sizes are clamped here so that near-empty warm-up
# regressors (tiny ||x||^2) cannot push the projection update outside its
# stability range mu in (0, 2)
AUTO_MU_CAP = 1.0


class AdaptationError(RuntimeError):
    """An adaptation step failed; carries the run index and iteration."""

    def __init__(self, run_index: int, iteration: int, cause: Exception | str):
        super().__init__(f"run {run_index} failed at iteration {iteration}: {cause}")
        self.run_index = run_index
        self.iteration = iteration


@dataclass(frozen=True)
class PlantModel:
    """Unknown FIR system plus optional observation noise on its output."""

    h: np.ndarray
    measurement_noise_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float))
        if self.h.ndim != 1 or self.h.shape[0] < 1:
            raise ValueError("plant h must be a non-empty 1-D coefficient array")
        if self.measurement_noise_sigma < 0:
            raise ValueError(
                f"measurement_noise_sigma must be >= 0, got {self.measurement_noise_sigma}"
            )

    @property
    def length(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class ExperimentConfig:
    plant: PlantModel
    algorithm: AlgorithmConfig
    noise: NoiseSpec
    iterations: int
    ensemble_runs: int
    base_seed: int

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.ensemble_runs < 1:
            raise ValueError(f"ensemble_runs must be >= 1, got {self.ensemble_runs}")
        if not 0 <= self.base_seed <= _SEED_MASK:
            raise ValueError(f"base_seed must be an unsigned 64-bit integer, got {self.base_seed}")
        if self.algorithm.filter_length < self.plant.length:
            warnings.warn(
                f"filter_length {self.algorithm.filter_length} is shorter than the "
                f"plant ({self.plant.length} taps): the plant cannot be identified exactly",
                stacklevel=2,
            )
        algo = self.algorithm
        if algo.kind is AlgorithmKind.LMS:
            # 2/(L Var(x)) = 2/tr(R) is the classic LMS step-size stability bound
            trace_r = algo.filter_length * input_variance(self.noise)
            if algo.mu * trace_r > 2.0:
                warnings.warn(
                    f"LMS mu {algo.mu} exceeds 2/(L*Var(x)) = {2.0 / trace_r:.3g}: "
                    "the filter is expected to diverge",
                    stacklevel=2,
                )


@dataclass(frozen=True)
class RunResult:
    """Squared a-priori error per iteration plus the run's end state."""

    mse_trace: np.ndarray
    final_weights: np.ndarray
    total_multiplies: int


@dataclass(frozen=True)
class EnsembleResult:
    trace: MseTrace
    runs: tuple[RunResult, ...]

    @property
    def final_weights_mean(self) -> np.ndarray:
        return np.mean([r.final_weights for r in self.runs], axis=0)


def _member_signals(config: ExperimentConfig, run_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Input x and desired response d of one run; a pure function of its index."""
    input_seed = (config.base_seed ^ run_index) & _SEED_MASK
    x = generate_noise(replace(config.noise, seed=input_seed), config.iterations)
    d = np.convolve(x, config.plant.h)[: x.shape[0]]
    sigma_v = config.plant.measurement_noise_sigma
    if sigma_v > 0:
        spec = NoiseSpec(kind=NoiseKind.WHITE, sigma=sigma_v,
                         seed=(input_seed ^ MEASUREMENT_STREAM_SALT) & _SEED_MASK)
        d = d + generate_noise(spec, x.shape[0])
    return x, d


def _adapt(algo: AlgorithmConfig, delta: float, x: np.ndarray, d: np.ndarray,
           via_lms_step: bool = False):
    """The adaptation loop: every member of a batch, one time step at a time.

    ``x`` and ``d`` hold each member's input and desired signal, shape
    (*B, T). Weights start at zero; each iteration pushes one input sample
    and performs one step of the configured algorithm for all members.
    With ``via_lms_step`` (B = () only) an LMS iteration calls the public
    lms_step, which performs the same operations.

    Returns the a-priori errors (T, *B), the final weights (*B, L) and, per
    member, the iteration at which its projection step failed (-1 if never)
    and whether that failure was a solve short of the residual bound rather
    than a singular Gram; a failed member keeps its weights from then on.
    """
    L, N = algo.filter_length, algo.projection_order
    batch, T = x.shape[:-1], x.shape[-1]
    # after N + L - 2 leading zeros every row of every data matrix is a window:
    # regressors[m] is the tap-delay line at time m - N + 1, newest sample first
    xp = np.concatenate([np.zeros(batch + (N + L - 2,)), x], axis=-1)
    regressors = np.moveaxis(sliding_window_view(xp, L, axis=-1)[..., ::-1], -2, 0)
    errors = np.empty((T,) + batch)
    failed_at = np.full(batch, -1)
    inexact = np.zeros(batch, dtype=bool)
    w = np.zeros(batch + (L,))
    # non-finite values are reported as divergence once the loop has ended
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if algo.kind is AlgorithmKind.LMS:
            w = _lms_loop(algo.mu, regressors, d, w, errors, via_lms_step)
        else:
            step = _projection_step(algo, delta, regressors, d, failed_at, inexact)
            for n in range(T):
                w, errors[n] = step(n, w)
    return errors, w, failed_at, inexact


def _lms_loop(mu: float, regressors: np.ndarray, d: np.ndarray, w: np.ndarray,
              errors: np.ndarray, via_lms_step: bool) -> np.ndarray:
    """All T iterations of LMS for a batch; returns the final weights.

    The weights are updated in place through preallocated buffers and each
    a-priori error is written straight into ``errors[n]``. The operations
    are lms_update's, so the results are bit-identical to it. The desired
    samples are read from the array, not from a list of it: a list costs
    about 32 bytes per sample, which raises the peak memory of a long run.
    """
    if via_lms_step:
        for n, (x, d_n) in enumerate(zip(regressors, d)):
            w, out = lms_step(w, x, d_n, mu)
            errors[n] = out.error_e
        return w
    step = np.empty_like(w)
    if w.ndim == 1:
        # one member: the error is a scalar, so the scale needs no broadcast
        for n, (x, d_n) in enumerate(zip(regressors, d)):
            errors[n] = e = d_n - np.vecdot(x, w)
            np.add(w, np.multiply(x, mu * e, out=step), out=w)
        return w
    y = np.empty(w.shape[:-1])
    scale = np.empty(w.shape[:-1] + (1,))
    for x, d_n, e in zip(regressors, np.moveaxis(d, -1, 0), errors):
        np.subtract(d_n, np.vecdot(x, w, out=y), out=e)
        np.multiply(e[..., None], mu, out=scale)
        np.add(w, np.multiply(x, scale, out=step), out=w)
    return w


def _projection_step(algo: AlgorithmConfig, delta: float, regressors: np.ndarray,
                     d: np.ndarray, failed_at: np.ndarray, inexact: np.ndarray):
    """Iteration n of BNDR-LMS or R-AP for a batch: (n, w) -> (w_new, error).

    Iterations with fewer than N-1 past samples use the regressors available
    so far: the all-zero padding rows carry no constraint and are omitted,
    which equals the zero-padded update in the regularized limit. A member
    whose newest regressor is all zero has nothing to project onto and keeps
    its weights. A member whose step is singular after warm-up, or whose
    solve misses the residual bound, is recorded in ``failed_at`` (the
    latter also in ``inexact``) and keeps its weights from then on.
    """
    N, L = algo.projection_order, algo.filter_length
    # rows[n][..., i, :] is the regressor at time n - i; d_rows likewise
    rows = np.swapaxes(sliding_window_view(regressors, N, axis=0), -1, -2)[..., ::-1, :]
    dp = np.concatenate([np.zeros(d.shape[:-1] + (N - 1,)), d], axis=-1)
    d_rows = np.moveaxis(sliding_window_view(dp, N, axis=-1)[..., ::-1], -2, 0)
    auto = algo.mu_mode is MuMode.AUTO_NORMALIZED
    warmup = N + L - 2  # rows are not fully populated before this

    def step(n, w):
        k = min(n + 1, N)
        X = rows[n][..., :k, :]
        d_vec = d_rows[n][..., :k]
        norm2 = np.vecdot(X[..., 0, :], X[..., 0, :])
        mu = np.minimum(1.0 / (algo.normalization_order * norm2), AUTO_MU_CAP) if auto \
            else algo.mu
        idle = (norm2 == 0.0) | (failed_at >= 0)
        w_new, _, e, singular, short = ap_update(w, X, d_vec, mu, delta, skip=idle)
        # one test per step in the common case; idle members may be flagged
        # singular too, their flag is dropped here
        if (singular | short).any():
            stuck = singular & ~idle
            if stuck.any() and n < warmup:
                stuck = _shed_rows(w, X, d_vec, mu, delta, stuck, short, w_new)
            failed = stuck | short
            failed_at[failed] = n
            inexact[short] = True
            idle |= failed
        if idle.any():
            w_new = np.where(idle[..., None], w, w_new)
        return w_new, e[..., 0]

    return step


def _shed_rows(w, X, d_vec, mu, delta, stuck, short, w_new) -> np.ndarray:
    """Warm-up fallback for the members whose projection step was singular.

    While the regressors are still filling up, an old sparse row can make
    the Gram numerically singular with delta = 0 although it adds (almost)
    nothing. Each stuck member sheds its oldest rows one at a time, as the
    pseudo-inverse limit would, until its step is no longer singular; the
    result is written into ``w_new``, or the member is flagged in ``short``
    if that step misses the residual bound. Returns the members still
    singular with one row.
    """
    mu = np.broadcast_to(mu, stuck.shape)
    for rows in range(X.shape[-2] - 1, 0, -1):
        w_try, _, _, singular, missed = ap_update(w[stuck], X[stuck][:, :rows],
                                                  d_vec[stuck][:, :rows], mu[stuck], delta)
        solved = np.zeros_like(stuck)
        solved[stuck] = ~singular
        w_new[solved] = w_try[~singular]
        short[stuck] |= missed
        stuck = stuck & ~solved
        if not stuck.any():
            break
    return stuck


def _run(config: ExperimentConfig, run_indices: range,
         via_lms_step: bool = False) -> tuple[RunResult, ...]:
    """Adapt the given runs together; a single run is adapted unbatched.

    Raises AdaptationError for the lowest failing run index, at its first
    failing iteration: a singular projection step after warm-up, a solve
    short of the residual bound, or a non-finite error or weight
    ("diverged").
    """
    algo = config.algorithm
    L, T = algo.filter_length, config.iterations
    signals = [_member_signals(config, r) for r in run_indices]
    x, d = signals[0] if len(signals) == 1 else (np.stack(s) for s in zip(*signals))
    delta = algo.resolved_delta(input_variance(config.noise))
    errors, w, failed_at, inexact = _adapt(algo, delta, x, d, via_lms_step)

    errors = np.ascontiguousarray(errors.reshape(T, -1).T)
    w = w.reshape(-1, L)
    failed_at = failed_at.reshape(-1)
    inexact = inexact.reshape(-1)
    finite = np.isfinite(errors)
    # first non-finite error; weights that overflow in the last step count there
    diverged_at = np.where(finite.all(axis=1), T, np.argmin(finite, axis=1))
    diverged_at = np.where(np.isfinite(w).all(axis=1), diverged_at,
                           np.minimum(diverged_at, T - 1))
    solve_failed_at = np.where(failed_at >= 0, failed_at, T)
    failing = np.flatnonzero(np.minimum(diverged_at, solve_failed_at) < T)
    if failing.size:
        m = failing[0]
        if solve_failed_at[m] <= diverged_at[m]:
            cause = residual_error() if inexact[m] else singular_error()
            raise AdaptationError(run_indices[m], int(solve_failed_at[m]), cause) from cause
        raise AdaptationError(run_indices[m], int(diverged_at[m]), "diverged")

    mse = errors * errors
    total = T * step_multiplies(algo.kind, L, algo.projection_order)
    return tuple(RunResult(mse_trace=mse[m], final_weights=w[m], total_multiplies=total)
                 for m in range(len(run_indices)))


def run_single(config: ExperimentConfig, run_index: int) -> RunResult:
    """One adaptation run; deterministic given (config, run_index).

    This is the batched adaptation loop at batch shape (): its results are
    bit-identical to member ``run_index`` of any ensemble that contains it.
    Its LMS iterations call the public lms_step, looked up at this module's
    attribute, so a wrapper installed there (a tracer) sees every step.
    """
    return _run(config, range(run_index, run_index + 1), via_lms_step=True)[0]


_library_run_single = run_single


def run_ensemble(config: ExperimentConfig, max_workers: int = 1) -> EnsembleResult:
    """Average squared error over ensemble_runs independent runs.

    All runs are adapted together in one loop over time. If run_single has
    been replaced at this module's attribute (a tracing wrapper), the runs
    go through it one by one instead, with bit-identical results, so that
    the wrapper sees every run. ``max_workers`` must be >= 1; it is kept for
    compatibility and changes neither how the ensemble runs nor its result.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    indices = range(config.ensemble_runs)
    if run_single is not _library_run_single:
        runs = tuple(run_single(config, r) for r in indices)
    else:
        runs = _run(config, indices)
    mean_e2 = np.mean(np.stack([r.mse_trace for r in runs]), axis=0)
    values_db = 10.0 * np.log10(np.maximum(mean_e2, MSE_FLOOR))
    return EnsembleResult(trace=MseTrace(values_db, smoothing_window=1), runs=runs)
