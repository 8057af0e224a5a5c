"""Adaptive update rules: LMS, BNDR-LMS and regularized affine projection.

All three algorithms share the same step interface: given the current weight
vector, the regressor state and the desired response, produce the updated
weights plus a StepOutcome with the a-priori output, a-priori error and the
multiply count charged to the step.

BNDR-LMS is the order-2 member of the affine-projection family, so its step
delegates to the general projection step with a zero regularization constant;
it is kept as a distinct kind for configuration and complexity accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .linalg import SingularMatrixError, solve_regularized, solve_stacked
from .signals import TapDelayLine

__all__ = [
    "AlgorithmKind",
    "MuMode",
    "AlgorithmConfig",
    "StepOutcome",
    "DataMatrix",
    "ComplexityModel",
    "lms_step",
    "ap_step",
    "lms_update",
    "ap_update",
    "bndr_lms_step",
    "max_stable_mu",
    "auto_mu",
    "i_inv",
    "step_multiplies",
    "step_multiplies_literal",
    "SingularMatrixError",
]


class AlgorithmKind(Enum):
    LMS = "lms"
    BNDR_LMS = "bndr_lms"
    R_AP = "r_ap"


class MuMode(Enum):
    FIXED = "fixed"
    AUTO_NORMALIZED = "auto"


# default regularization: delta = DELTA_SCALE * filter_length * Var(x)
DELTA_SCALE = 1e-6


class KindRules(NamedTuple):
    """Per-kind defaults and pins that AlgorithmConfig applies."""

    projection_order: int  # the default order
    order_pinned: bool  # no other order is valid
    mu_mode: MuMode  # the default mode
    auto_allowed: bool  # if not, mu_mode must be FIXED
    delta_pinned: bool  # delta must be 0
    normalize_by_order: bool  # auto kinds' unset normalization order: N if set, else 1


KIND_RULES = {
    AlgorithmKind.LMS: KindRules(1, True, MuMode.FIXED, False, True, False),
    AlgorithmKind.BNDR_LMS: KindRules(2, True, MuMode.AUTO_NORMALIZED, True, True, False),
    AlgorithmKind.R_AP: KindRules(2, False, MuMode.AUTO_NORMALIZED, True, False, True),
}


@dataclass(frozen=True)
class AlgorithmConfig:
    """Validated parameter set for one adaptive algorithm.

    Unset fields are resolved to the per-kind defaults of KIND_RULES: LMS
    runs with a fixed step size at projection order 1; BNDR-LMS is pinned to
    order 2; both use no regularization. R_AP defaults to order 2, auto mode
    and, when ``delta`` is left as None, resolves the regularization constant
    at experiment time from the excitation variance (DELTA_SCALE * L * Var(x)).

    ``normalization_order`` is the divisor order in the auto step size
    1/(order * ||x||^2). BNDR-LMS defaults to 1 and R_AP to its projection
    order; both choices are overridable because the literature states both
    prescriptions.
    """

    kind: AlgorithmKind
    filter_length: int
    mu: float | None = None
    mu_mode: MuMode | None = None
    projection_order: int | None = None
    delta: float | None = None
    normalization_order: int | None = None

    def __post_init__(self):
        if self.filter_length < 1:
            raise ValueError(f"filter_length must be >= 1, got {self.filter_length}")
        if self.mu is not None and not self.mu > 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if self.kind not in KIND_RULES:
            raise ValueError(f"kind must be an AlgorithmKind, got {self.kind!r}")
        rules, name = KIND_RULES[self.kind], self.kind.value

        def _default(field, value):
            if getattr(self, field) is None:
                object.__setattr__(self, field, value)

        _default("projection_order", rules.projection_order)
        if rules.order_pinned and self.projection_order != rules.projection_order:
            raise ValueError(f"{name} requires projection_order == {rules.projection_order}")
        if self.projection_order < 1:
            raise ValueError(f"projection_order must be >= 1, got {self.projection_order}")
        _default("mu_mode", rules.mu_mode)
        if not rules.auto_allowed and self.mu_mode is not MuMode.FIXED:
            raise ValueError(f"{name} uses a fixed step size; auto normalization is not valid")
        if rules.auto_allowed:
            _default("normalization_order", self.projection_order if rules.normalize_by_order else 1)

        if rules.delta_pinned:
            if self.delta not in (None, 0, 0.0):
                raise ValueError(f"{name} requires delta == 0, got {self.delta}")
            object.__setattr__(self, "delta", 0.0)
        elif self.delta is not None and not self.delta >= 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")

        if self.mu_mode is MuMode.FIXED and self.mu is None:
            raise ValueError("mu is required when mu_mode is FIXED")
        if self.normalization_order is not None and self.normalization_order < 1:
            raise ValueError(f"normalization_order must be >= 1, got {self.normalization_order}")

    def resolved_delta(self, input_var: float) -> float:
        """Regularization constant actually used for a given input variance."""
        if self.delta is not None:
            return float(self.delta)
        return DELTA_SCALE * self.filter_length * input_var


@dataclass(frozen=True)
class StepOutcome:
    """A-priori output y(n), a-priori error e(n) and the step's multiply count."""

    output_y: float
    error_e: float
    multiplies: int


class DataMatrix:
    """Stack of the N most recent regressors, newest first.

    Row 0 holds the current tap-delay-line contents; row i the contents i
    samples ago. Pushing one sample shifts every row down by one: afterwards
    row i equals what row i-1 was before the push.
    """

    __slots__ = ("_rows",)

    def __init__(self, order: int, filter_length: int):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if filter_length < 1:
            raise ValueError(f"filter_length must be >= 1, got {filter_length}")
        self._rows = np.zeros((order, filter_length))

    @property
    def order(self) -> int:
        return self._rows.shape[0]

    @property
    def filter_length(self) -> int:
        return self._rows.shape[1]

    @property
    def rows(self) -> np.ndarray:
        """Current regressor stack (a copy)."""
        return self._rows.copy()

    def push_sample(self, x: float) -> "DataMatrix":
        """Advance time by one input sample."""
        tail = self._rows[0, :-1].copy()  # current regressor, oldest tap dropped
        self._rows[1:] = self._rows[:-1]
        self._rows[0, 0] = x
        self._rows[0, 1:] = tail
        return self


def _as_vector(x) -> np.ndarray:
    if isinstance(x, TapDelayLine):
        return x.taps
    return np.asarray(x, dtype=float)


def _as_rows(x) -> np.ndarray:
    if isinstance(x, DataMatrix):
        return x.rows
    rows = np.asarray(x, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"data matrix must be 2-D, got shape {rows.shape}")
    return rows


def lms_update(w: np.ndarray, x: np.ndarray, desired, mu):
    """LMS step for a batch of members: weights (*B, L), regressors (*B, L).

    Returns (w_new, y, e): the updated weights and the a-priori outputs and
    errors, each of shape B. ``mu`` is a scalar or has shape B.
    """
    y = np.vecdot(x, w)
    e = desired - y
    scale = mu * e
    # a single member's scale multiplies as a scalar, much faster than broadcast
    return w + (scale[..., None] if scale.ndim else scale) * x, y, e


def ap_update(w: np.ndarray, X: np.ndarray, d_vec: np.ndarray, mu, delta: float, skip=None):
    """Affine-projection step for a batch of members.

    Weights have shape (*B, L), data matrices (*B, k, L) newest row first and
    desired samples (*B, k); ``mu`` is a scalar or has shape B. Solves
    (X X^T + delta*I) eps = d_vec - X w per member and returns (w_new, y, e,
    singular, inexact): the updated weights, the a-priori outputs and errors
    (*B, k), the members whose Gram matrix is numerically singular and the
    members whose solve missed the residual bound (solve_stacked's flags;
    the rows of w_new of flagged members are NaN). The members flagged in
    ``skip`` (shape B) discard their update, so their solve is not held to
    the residual bound.
    """
    y, e = _ap_errors(w, X, d_vec)
    Xt = np.swapaxes(X, -1, -2)
    eps, singular, inexact = solve_stacked(X @ Xt, delta, e, skip)
    return _ap_correct(w, Xt, eps, mu), y, e, singular, inexact


def _ap_errors(w, X, d_vec):
    """A-priori outputs X w and errors d_vec - X w of a batch, each (*B, k)."""
    y = (X @ w[..., None])[..., 0]
    return y, d_vec - y


def _ap_correct(w, Xt, eps, mu):
    """Weights moved along the rows: w + mu * X^T eps, with Xt = X^T."""
    return w + np.asarray(mu)[..., None] * (Xt @ eps[..., None])[..., 0]


def lms_step(w, x, desired: float, mu: float) -> tuple[np.ndarray, StepOutcome]:
    """One LMS update: y = w.x, e = d - y, w' = w + mu*e*x."""
    if not mu > 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    wv = np.asarray(w, dtype=float)
    xv = _as_vector(x)
    w_new, y, e = lms_update(wv, xv, desired, mu)
    return w_new, StepOutcome(float(y), float(e), step_multiplies(AlgorithmKind.LMS, wv.shape[0]))


def ap_step(w, data, d_vec, mu: float, delta: float) -> tuple[np.ndarray, StepOutcome]:
    """One affine-projection update over the N most recent regressors.

    With X the N x L data matrix (newest row first) and d_vec the matching
    desired samples, the step solves (X X^T + delta*I) eps = d_vec - X w and
    applies w' = w + mu * X^T eps. The reported output/error pair refers to
    the newest row. Raises SingularMatrixError (via the solver) when
    delta = 0 and the Gram matrix is numerically singular.
    """
    if not mu > 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    wv = np.asarray(w, dtype=float)
    X = _as_rows(data)
    d = np.asarray(d_vec, dtype=float)
    n_rows = X.shape[0]
    if X.shape[1] != wv.shape[0]:
        raise ValueError(f"regressor length {X.shape[1]} != weight length {wv.shape[0]}")
    if d.shape != (n_rows,):
        raise ValueError(f"d_vec must have shape ({n_rows},), got {d.shape}")
    # ap_update's operations, with the solve through solve_regularized
    y, e = _ap_errors(wv, X, d)
    eps = solve_regularized(X @ X.T, delta, e)
    w_new = _ap_correct(wv, X.T, eps, mu)
    outcome = StepOutcome(float(y[0]), float(e[0]),
                          step_multiplies(AlgorithmKind.R_AP, wv.shape[0], n_rows))
    return w_new, outcome


def bndr_lms_step(w, data, d_vec, mu: float) -> tuple[np.ndarray, StepOutcome]:
    """One BNDR-LMS update; identical to ap_step at order 2 with delta = 0."""
    X = _as_rows(data)
    if X.shape[0] != 2:
        raise ValueError(f"BNDR-LMS requires exactly 2 regressor rows, got {X.shape[0]}")
    w_new, outcome = ap_step(w, X, d_vec, mu, delta=0.0)
    wlen = np.asarray(w).shape[0]
    return w_new, StepOutcome(outcome.output_y, outcome.error_e,
                              step_multiplies(AlgorithmKind.BNDR_LMS, wlen))


def max_stable_mu(x) -> float:
    """Upper bound 2/||x||^2 on the step size for the current regressor."""
    xv = _as_vector(x)
    n2 = float(xv @ xv)
    if n2 == 0.0:
        raise ValueError("step-size bound is undefined for an all-zero tap line")
    return 2.0 / n2


def auto_mu(x, order: int) -> float:
    """Normalized step size 1/(order * ||x||^2).

    Order 1 gives the full normalized step of the two-direction algorithm;
    higher orders follow the projection-order-scaled prescription.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    xv = _as_vector(x)
    n2 = float(xv @ xv)
    if n2 == 0.0:
        raise ValueError("auto step size is undefined for an all-zero tap line")
    return 1.0 / (order * n2)


def i_inv(n: int) -> int:
    """Multiply-count convention for inverting an n x n matrix: n**3."""
    return n**3


def step_multiplies(kind: AlgorithmKind, filter_length: int, projection_order: int = 1) -> int:
    """Multiplies charged per adaptation step.

    LMS: 2L. BNDR-LMS: 4L + 4*i_inv(2). R_AP: 2NL + i_inv(N), reading the
    inverse term as the total cost of one N x N inverse (the corrected count;
    see step_multiplies_literal for the uncorrected reading).
    """
    L = filter_length
    if kind is AlgorithmKind.LMS:
        if projection_order != 1:
            raise ValueError("LMS has projection order 1")
        return 2 * L
    if kind is AlgorithmKind.BNDR_LMS:
        if projection_order not in (1, 2):
            raise ValueError("BNDR-LMS has projection order 2")
        return 4 * L + 4 * i_inv(2)
    N = projection_order
    if N < 1:
        raise ValueError(f"projection_order must be >= 1, got {N}")
    return 2 * N * L + i_inv(N)


def step_multiplies_literal(kind: AlgorithmKind, filter_length: int,
                                  projection_order: int = 1) -> int:
    """Per-step multiplies under the literal published formulas.

    Identical to step_multiplies for LMS and BNDR-LMS; for R_AP the inverse
    term reads i_inv(N) * N^2, i.e. 2NL + N^5, which double-counts the
    inverse and is reported only for side-by-side comparison.
    """
    if kind is AlgorithmKind.R_AP:
        N = projection_order
        if N < 1:
            raise ValueError(f"projection_order must be >= 1, got {N}")
        return 2 * N * filter_length + i_inv(N) * N**2
    return step_multiplies(kind, filter_length, projection_order)


@dataclass(frozen=True)
class ComplexityModel:
    """Pairs the corrected and literal per-step multiply counts for one setup."""

    kind: AlgorithmKind
    filter_length: int
    projection_order: int = 1

    @property
    def per_step_multiplies(self) -> int:
        return step_multiplies(self.kind, self.filter_length, self.projection_order)

    @property
    def per_step_multiplies_literal(self) -> int:
        return step_multiplies_literal(self.kind, self.filter_length, self.projection_order)
