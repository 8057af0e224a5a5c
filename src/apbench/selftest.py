"""The three algebraic properties behind the paper's argument, as one suite.

NLMS is the order-1 projection step, a projection step contracts the
a-posteriori errors by (1 - mu), and the regularized solve meets its residual
bound. Acceptance criteria 5-7 and ``apbench selftest`` (run_all) run these
checks at their own counts and seeds. ``ap_step`` and
``linalg.solve_regularized`` are looked up at call time, so a negative
control can substitute either.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algorithms import ap_step

__all__ = ["run_all", "nlms_equivalence", "aposteriori_contraction", "solver_residual"]


def nlms_equivalence(count: int, seed: int) -> tuple[bool, str]:
    """ap_step at order 1 with no regularization must equal NLMS closed form."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        L = int(rng.integers(1, 33))
        w0 = rng.standard_normal(L)
        x = rng.standard_normal(L)
        d = float(rng.standard_normal())
        mu = float(rng.uniform(0.01, 2.0))
        w_ap, _ = ap_step(w0, x[None, :], [d], mu, 0.0)
        e = d - float(x @ w0)
        w_ref = w0 + mu * e * x / float(x @ x)
        scale = max(float(np.max(np.abs(w_ref))), 1.0)
        worst = max(worst, float(np.max(np.abs(w_ap - w_ref))) / scale)
    return worst <= 1e-12, f"max relative deviation {worst:.2e} (bound 1e-12)"


def aposteriori_contraction(count: int, seed: int) -> tuple[bool, str]:
    """A step at mu in {0.25, 0.5, 1} (delta = 0) scales the errors by 1 - mu (to 0 at 1)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        N = int(rng.integers(1, 5))
        L = int(rng.integers(N + 1, 24))
        X = rng.standard_normal((N, L))
        w0 = rng.standard_normal(L)
        d = rng.standard_normal(N)
        for mu in (0.25, 0.5, 1.0):
            w_new, _ = ap_step(w0, X, d, mu, 0.0)
            e_pri = d - X @ w0
            e_post = d - X @ w_new
            worst = max(worst, float(np.max(np.abs(e_post - (1.0 - mu) * e_pri))))
    return worst <= 1e-10, f"max |e_post - (1-mu) e_pri| = {worst:.2e} (bound 1e-10)"


def solver_residual(count: int, seed: int) -> tuple[bool, str]:
    """Every regularized solve must meet the documented residual bound."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(count):
        n = int(rng.integers(1, 9))
        if i % 4 == 0:
            # singular without regularization; delta >= 1e-4 keeps ||x|| small
            # enough that the residual bound is attainable at all in float64
            u = rng.standard_normal(n)
            gram = np.outer(u, u)
            delta = float(rng.uniform(1e-4, 1e-2))
        else:
            a = rng.standard_normal((n, n))
            gram = a @ a.T + 1e-3 * np.eye(n)
            delta = float(rng.choice([0.0, 1e-8, 1e-6, 1e-3]))
        rhs = rng.standard_normal(n)
        x = linalg.solve_regularized(gram, delta, rhs)
        resid = float(np.max(np.abs((gram + delta * np.eye(n)) @ x - rhs)))
        bound = linalg.RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(rhs))))
        worst = max(worst, resid / bound)
    return worst <= 1.0, f"worst residual at {worst:.3f} of the permitted bound"


def run_all() -> dict[str, tuple[bool, str]]:
    """Every property at the selftest's counts and seeds, keyed by name."""
    return {
        "nlms_equivalence": nlms_equivalence(2000, 101),
        "aposteriori_contraction": aposteriori_contraction(500, 202),
        "solver_residual": solver_residual(2000, 303),
    }
