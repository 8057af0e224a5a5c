"""Black-box system identification: plant, adaptation loop, ensemble average.

A run drives an unknown FIR plant and an adaptive filter with the same
excitation, feeds the error back into the chosen update rule, and records
the squared a-priori error per iteration. Runs are pure functions of
(config, run_index): the input noise is seeded with base_seed XOR run_index
and the optional measurement noise with an independent salted stream, so
ensembles are bit-reproducible and order-independent.

_adapt is the one adaptation loop, over a batch of members at once: batch
shape (R,) for run_ensemble and (V, *B) for an LMS µ sweep; run_single's
projection run adapts at shape () and its LMS run as a (1,) batch.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import linalg
from .algorithms import (AlgorithmConfig, AlgorithmKind, MuMode, _ap_correct, _ap_errors,
                         ap_update, lms_step, step_multiplies)
# not called here; it stays a module attribute next to lms_step for code that
# looks it up or wraps it here
from .algorithms import ap_step  # noqa: F401
from .linalg import residual_error, singular_error
from .metrics import MseTrace, _check_count, _check_real, _check_seed, _db
from .signals import NoiseKind, NoiseSpec, _ar1_rows, generate_noise, input_variance

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

# XORed into the per-run seed to decorrelate measurement noise from the input
MEASUREMENT_STREAM_SALT = 0x9E3779B97F4A7C15

# auto-normalized step sizes are clamped here so that near-empty warm-up
# regressors (tiny ||x||^2) cannot push the projection update outside its
# stability range mu in (0, 2)
AUTO_MU_CAP = 1.0

# the open _shared_signals scope: each LMS variant's sweep, and a memo of the
# signals by key and of each sweep's results by (signals key, sweep); None
# outside one
_SCOPE: ContextVar[tuple[dict, dict] | None] = ContextVar("scope", default=None)

# projection steps whose Gram matrices are built and factored together: long
# enough to spread the per-block numpy calls, short enough that a block's
# Grams and factors stay small beside the ensemble's signals
PROJECTION_BLOCK = 16


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
        if np.ndim(self.h) != 1 or not np.size(self.h):
            raise ValueError("plant h must be a non-empty 1-D coefficient array")
        object.__setattr__(self, "h", np.asarray(_check_real("plant h", self.h, ndim=1),
                                                 dtype=float))
        _check_real("measurement_noise_sigma", self.measurement_noise_sigma, 0)

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
        algo = self.algorithm
        for field in ("iterations", "ensemble_runs"):
            object.__setattr__(self, field, _check_count(field, getattr(self, field)))
        # _adapt pads the input with N + L - 2 leading zeros, for every run at once
        padded = self.iterations + algo.projection_order + algo.filter_length - 2
        _check_count("iterations + projection_order + filter_length - 2", padded)
        _check_count("ensemble_runs * (iterations + projection_order + filter_length - 2)",
                     self.ensemble_runs * padded)
        object.__setattr__(self, "base_seed", _check_seed("base_seed", self.base_seed))
        if self.noise.sigma <= 0:
            raise ValueError(f"noise.sigma must be > 0, got {self.noise.sigma}")
        # a silent input excites nothing: every error, and so every curve, would be 0; an
        # infinite variance (finite but huge sigma or taps) would diverge at the first step
        with np.errstate(over="ignore"):
            variance = input_variance(self.noise)
            if not variance > 0:
                raise ValueError("noise.sigma and noise.fir_coefficients must give the input a "
                                 f"variance > 0, got {variance}")
            _check_real("input variance", variance)
            _check_real("measurement noise variance",
                        np.float64(self.plant.measurement_noise_sigma) ** 2)
        if self.algorithm.filter_length < self.plant.length:
            warnings.warn(
                f"filter_length {self.algorithm.filter_length} is shorter than the "
                f"plant ({self.plant.length} taps): the plant cannot be identified exactly",
                stacklevel=3,
            )
        if algo.kind is AlgorithmKind.LMS:
            # 2/(L Var(x)) = 2/tr(R) is the classic LMS step-size stability bound
            trace_r = algo.filter_length * variance
            if algo.mu * trace_r > 2.0:
                warnings.warn(
                    f"LMS mu {algo.mu} exceeds 2/(L*Var(x)) = {2.0 / trace_r:.3g}: "
                    "the filter is expected to diverge",
                    stacklevel=3,
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


@contextmanager
def _shared_signals(algorithms=()):
    """A scope in which every ensemble's signals are built once and shared.

    Inside it, _signals returns the same read-only arrays for an equal key.
    ``algorithms`` are the variants the scope will run. An LMS variant's
    sweep is the scope's LMS variants of its filter length, in scope order.
    Leaving the scope, also by an exception, drops the memo. A scope opened
    inside another starts empty and restores the outer one on leaving.
    """
    lms = [a for a in algorithms if a.kind is AlgorithmKind.LMS]
    sweeps = {a: tuple(b for b in lms if b.filter_length == a.filter_length) for a in lms}
    token = _SCOPE.set((sweeps, {}))
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _signals_key(config: ExperimentConfig, run_indices: range) -> tuple:
    """Everything an ensemble's signals depend on.

    The noise spec goes in as its repr, which tells -0.0 from 0.0 where
    equality does not.
    """
    return (repr(config.noise), config.plant.h.tobytes(), config.plant.measurement_noise_sigma,
            config.iterations, config.base_seed, run_indices)


def _signals(config: ExperimentConfig, run_indices: range) -> tuple[np.ndarray, np.ndarray]:
    """Inputs x and desired responses d of the runs, (*B, T) each.

    Run r fills row r of (R, T) arrays. One run returns its row 0 views, B = ():
    a lone projection run then steps on numpy scalars, and a µ sweep of one run
    (long_trace's) adapts at batch (V,) instead of (V, 1), which is faster.
    """
    _, memo = _SCOPE.get() or ({}, None)
    if memo is not None:
        key = _signals_key(config, run_indices)
        if key in memo:
            return memo[key]
    # allocated first, so an ensemble too large to hold fails before any run
    T = config.iterations
    x, d = np.empty((len(run_indices), T)), np.empty((len(run_indices), T))
    seeds = [config.base_seed ^ r for r in run_indices]
    # an AR(1) input is drawn white per run, then colored for all runs at once
    ar1 = config.noise.kind is NoiseKind.AR1_COLORED
    source = replace(config.noise, kind=NoiseKind.WHITE) if ar1 else config.noise
    for row, seed in zip(x, seeds):
        row[:] = generate_noise(replace(source, seed=seed), T)
    if ar1:
        _ar1_rows(x, config.noise.ar_coefficient)
    sigma_v = config.plant.measurement_noise_sigma
    for x_row, d_row, seed in zip(x, d, seeds):
        d_row[:] = np.convolve(x_row, config.plant.h)[:T]
        if sigma_v > 0:
            spec = NoiseSpec(NoiseKind.WHITE, sigma_v, seed=seed ^ MEASUREMENT_STREAM_SALT)
            d_row += generate_noise(spec, T)
    # a lone projection run steps on numpy scalars; long_trace's sweep adapts at (V,)
    if len(seeds) == 1:
        x, d = x[0], d[0]
    if memo is not None:
        # an in-place edit by one variant would otherwise reach the next
        x.flags.writeable = d.flags.writeable = False
        memo[key] = x, d
    return x, d


def _adapt_sweep(config: ExperimentConfig, run_indices: range, delta: float,
                 x: np.ndarray, d: np.ndarray):
    """_adapt's results for ``config``; in a scope, its slice of its LMS µ sweep.

    The first call of any variant of a sweep adapts the whole sweep on its
    signals, one batch (V, *B) with a µ column in scope order, and memoizes
    it; each call takes its own slice, and the last one drops the batch. A
    variant alone in its sweep, or any call while run_single is replaced (a
    tracer), adapts alone.
    """
    algo = config.algorithm
    sweeps, memo = _SCOPE.get() or ({}, None)
    sweep = sweeps.get(algo, ())
    if len(sweep) < 2 or run_single is not _library_run_single:
        return _adapt(algo, delta, x, d)
    key = (_signals_key(config, run_indices), sweep)
    if key not in memo:
        # a µ column: one per member of the leading axis, broadcast over the runs
        mu = np.array([a.mu for a in sweep]).reshape((-1,) + (1,) * (x.ndim - 1))
        d = np.broadcast_to(d, (len(sweep),) + d.shape)
        memo[key] = [_adapt(algo, delta, x, d, mu=mu), len(sweep)]
    record = memo[key]
    record[1] -= 1
    if not record[1]:
        del memo[key]
    (errors, *rest), v = record[0], sweep.index(algo)
    return (errors[:, v], *(r[v] for r in rest))


def _adapt(algo: AlgorithmConfig, delta: float, x: np.ndarray, d: np.ndarray, mu=None):
    """The adaptation loop: every member of a batch, one time step at a time.

    ``d`` holds each member's desired signal, shape (*B, T), and ``x`` its
    input, of the same shape or, in an LMS µ sweep, without d's leading
    axis V. Weights start at zero; each iteration pushes one input sample
    and performs one step of the configured algorithm for all members.
    The LMS step size ``mu`` is algo.mu, or a column (V, 1, …) with one per
    member of that axis.

    Returns the a-priori errors (T, *B), the final weights (*B, L) and, per
    member, the iteration at which its projection step failed (-1 if never)
    and whether that failure was a solve short of the residual bound rather
    than a singular Gram; a failed member keeps its weights from then on.
    """
    L, N = algo.filter_length, algo.projection_order
    batch, T = d.shape[:-1], d.shape[-1]
    # after N + L - 2 leading zeros every row of every data matrix is a window:
    # regressors[m] is the tap-delay line at time m - N + 1, newest sample first
    xp = np.concatenate([np.zeros(x.shape[:-1] + (N + L - 2,)), x], axis=-1)
    regressors = np.moveaxis(sliding_window_view(xp, L, axis=-1)[..., ::-1], -2, 0)
    errors = np.empty((T,) + batch)
    failed_at = np.full(batch, -1)
    inexact = np.zeros(batch, dtype=bool)
    w = np.zeros(batch + (L,))
    # non-finite values are reported as divergence once the loop has ended
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if algo.kind is AlgorithmKind.LMS:
            w = _lms_loop(algo.mu if mu is None else mu, regressors, d, w, errors)
        else:
            w = _projection_loop(algo, delta, regressors, d, w, errors, failed_at, inexact)
    return errors, w, failed_at, inexact


def _lms_loop(mu, regressors: np.ndarray, d: np.ndarray, w: np.ndarray,
              errors: np.ndarray) -> np.ndarray:
    """All T iterations of LMS for a batch; returns the final weights.

    The weights are updated in place through ``step``, and mu*e goes into
    ``scale``, as a scalar operand would be converted to an array on every
    step. Each step's errors go into that step's row of ``errors`` and its
    outputs and scale into buffers, so a step allocates nothing. A lone run
    adapts as a one-member batch of views of its own arrays, so its results
    are written in place in their own shapes. ``mu`` is a float or,
    for a batch (V, *B), a column (V, 1, …). The operations are lms_update's,
    so the results are bit-identical to it. While run_single is replaced (a
    tracer), each run adapts alone and steps through lms_step at this
    module's attribute, with the same operations.
    """
    if run_single is not _library_run_single:
        for n, (x, d_n) in enumerate(zip(regressors, d)):
            w, out = lms_step(w, x, d_n, mu)
            errors[n] = out.error_e
        return w
    if w.ndim == 1:
        return _lms_loop(mu, regressors, d[None], w[None], errors[:, None])[0]
    step = np.empty_like(w)
    vecdot, subtract, multiply, add = np.vecdot, np.subtract, np.multiply, np.add
    scale = np.empty(w.shape[:-1] + (1,))
    col, y = scale[..., 0], np.empty(w.shape[:-1])
    for x, d_n, e in zip(regressors, np.moveaxis(d, -1, 0), errors):
        subtract(d_n, vecdot(x, w, out=y), out=e)
        multiply(mu, e, out=col)
        add(w, multiply(x, scale, out=step), out=w)
    return w


def _projection_loop(algo: AlgorithmConfig, delta: float, regressors: np.ndarray,
                     d: np.ndarray, w: np.ndarray, errors: np.ndarray, failed_at: np.ndarray,
                     inexact: np.ndarray) -> np.ndarray:
    """All T iterations of BNDR-LMS or R-AP for a batch; returns the final weights.

    Iterations with fewer than N-1 past samples use the regressors available
    so far: the all-zero padding rows carry no constraint and are omitted,
    which equals the zero-padded update in the regularized limit. A member
    whose newest regressor is all zero has nothing to project onto and keeps
    its weights. A member whose step is singular after warm-up, or whose
    solve misses the residual bound, is recorded in ``failed_at`` (the
    latter also in ``inexact``) and keeps its weights from then on.

    The time steps run in blocks with one row count k: one step each for the
    first N-1, then up to PROJECTION_BLOCK. The Grams X X^T + delta*I, their
    Cholesky factors and singular flags, and ||x||^2 with the auto step
    sizes are computed once per block (the fixed step sizes once per loop).
    Unless a live member (with a regressor and no failure before the block)
    has a singular Gram, each step writes its errors into the (k, steps, *B)
    right-hand sides, substitutes its solution into a like buffer and
    corrects the live weights. The block's errors are the right-hand sides'
    first rows; one residual check covers the live members: without one short
    of the bound, that is ap_update's work step by step. Any other block, and
    a block found short, reruns from its start weights through ap_update,
    which refines and flags members; singular ones shed rows (_shed_rows).
    """
    N, L = algo.projection_order, algo.filter_length
    batch, T = d.shape[:-1], d.shape[-1]
    # rows[n][..., i, :] is the regressor at time n - i; d_rows likewise
    rows = np.swapaxes(sliding_window_view(regressors, N, axis=0), -1, -2)[..., ::-1, :]
    dp = np.concatenate([np.zeros(batch + (N - 1,)), d], axis=-1)
    d_rows = np.moveaxis(sliding_window_view(dp, N, axis=-1)[..., ::-1], -2, 0)
    auto = algo.mu_mode is MuMode.AUTO_NORMALIZED
    warmup = N + L - 2  # rows are not fully populated before this
    starts = list(range(min(N - 1, T))) + list(range(N - 1, T, PROJECTION_BLOCK))
    fixed_mus = [algo.mu] * PROJECTION_BLOCK
    for start, stop in zip(starts, starts[1:] + [T]):
        k, steps = min(start + 1, N), stop - start
        X = rows[start:stop, ..., :k, :]
        d_block = d_rows[start:stop, ..., :k]
        # a[i][j] has shape (steps, *B): one step's entries of a single run are scalars
        a, chol, singular = linalg._factor(X @ np.swapaxes(X, -1, -2), k, delta)
        norm2 = np.vecdot(X[..., 0, :], X[..., 0, :])
        mus = list(np.minimum(1.0 / (algo.normalization_order * norm2), AUTO_MU_CAP)) if auto \
            else fixed_mus
        idle = (norm2 == 0.0) | (failed_at >= 0)
        w_start = w
        if not (singular & ~idle).any():
            chol_steps = [[[c[i] for c in row] for row in chol] for i in range(steps)]
            any_idle = idle.reshape(steps, -1).any(axis=1).tolist()
            # entries over (step, *B), as the block check takes them
            rhs = np.empty((k, steps) + batch)
            sol = np.empty_like(rhs)
            for i in range(steps):
                rhs[:, i] = _ap_errors(w, X[i], d_block[i])[1].T
                sol[:, i] = linalg._substitute(chol_steps[i], rhs[:, i], k)
                # sol[:, i] is (k, *B); its transpose is the (*B, k) view _ap_correct takes
                w_new = _ap_correct(w, X[i], sol[:, i].T, mus[i])
                w = np.where(idle[i][..., None], w, w_new) if any_idle[i] else w_new
            errors[start:stop] = rhs[0]
            if not linalg._residual_norm(a, list(sol), list(rhs), k, ~idle)[1].any():
                continue
        w = w_start
        for i, n in enumerate(range(start, stop)):
            w_new, _, e, stuck, short = ap_update(w, X[i], d_block[i], mus[i], delta)
            errors[n] = e[..., 0]
            # the idle members and those failed earlier in this block
            keep = idle[i] | (failed_at >= 0)
            stuck &= ~keep
            short = np.asarray(short & ~keep)  # _shed_rows updates it in place
            if n < warmup and stuck.any():
                stuck = _shed_rows(w, X[i], d_block[i], mus[i], delta, stuck, short, w_new)
            failed = stuck | short
            failed_at[failed] = n
            inexact[short] = True
            w = np.where((keep | failed)[..., None], w, w_new)
    return w


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


def _run(config: ExperimentConfig, run_indices: range) -> tuple[np.ndarray, tuple[RunResult, ...]]:
    """Adapt the given runs together, a single run at batch shape ().

    Returns the squared errors (R, T), whose rows are the runs' mse_trace,
    and the runs' results.

    Raises AdaptationError for the lowest failing run index, at its first
    failing iteration: a singular projection step after warm-up, a solve
    short of the residual bound, or a non-finite squared error or weight
    ("diverged").
    """
    algo = config.algorithm
    L, T = algo.filter_length, config.iterations
    x, d = _signals(config, run_indices)
    delta = algo.resolved_delta(input_variance(config.noise))
    errors, w, failed_at, inexact = _adapt_sweep(config, run_indices, delta, x, d)

    w = w.reshape(-1, L)
    failed_at = failed_at.reshape(-1)
    inexact = inexact.reshape(-1)
    with np.errstate(over="ignore"):
        mse = np.square(errors.reshape(T, -1).T, order="C")
    finite = np.isfinite(mse)
    # first non-finite square; weights that overflow in the last step count there
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

    total = T * step_multiplies(algo.kind, L, algo.projection_order)
    return mse, tuple(RunResult(mse_trace=mse[m], final_weights=w[m], total_multiplies=total)
                      for m in range(len(run_indices)))


def run_single(config: ExperimentConfig, run_index: int) -> RunResult:
    """One adaptation run; deterministic given (config, run_index).

    The batched adaptation loop at batch shape (), or LMS's at (1,): its results
    are bit-identical to member ``run_index`` of any ensemble that contains it.
    ``run_index`` is an unsigned 64-bit integer, as base_seed is.
    """
    run_index = _check_seed("run_index", run_index)
    return _run(config, range(run_index, run_index + 1))[1][0]


_library_run_single = run_single


def run_ensemble(config: ExperimentConfig, max_workers: int = 1) -> EnsembleResult:
    """Average squared error over ensemble_runs independent runs.

    All runs are adapted together in one loop over time; a run_single
    replaced at this module's attribute (a tracing wrapper) sees every run,
    one by one, with bit-identical results. ``max_workers`` must be >= 1 and
    changes nothing. The first iteration where the mean of the finite
    squared errors overflows fails as the divergence of the run with the
    largest square there.
    """
    _check_count("max_workers", max_workers)
    indices = range(config.ensemble_runs)
    if run_single is not _library_run_single:
        runs = tuple(run_single(config, r) for r in indices)
        mse = np.stack([r.mse_trace for r in runs])
    else:
        mse, runs = _run(config, indices)
    with np.errstate(over="ignore"):
        mean_e2 = np.mean(mse, axis=0)
    overflow = np.isinf(mean_e2)
    if overflow.any():
        n = int(np.argmax(overflow))
        raise AdaptationError(int(np.argmax(mse[:, n])), n,
                              "diverged (the ensemble mean of the squared errors overflows)")
    return EnsembleResult(trace=MseTrace(_db(mean_e2), smoothing_window=1), runs=runs)
