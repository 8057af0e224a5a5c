"""Small dense symmetric positive-definite solves for the projection family.

The Gram systems solved here are tiny (order <= 8 in practice) but come in
stacks, one per ensemble member. The solver therefore loops over the matrix
indices in Python, on entries that are arrays over the stack (or Python
floats for a single system): every member sees exactly the scalar operation
sequence of a textbook Cholesky, so its result does not depend on what else
is in the stack, and the pivot tolerance is under exact control. Only the
lower triangle of the input matrix is read by the factorization.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "SingularMatrixError",
    "solve_regularized",
    "solve_stacked",
    "singular_error",
    "residual_error",
    "PIVOT_RTOL",
    "RESIDUAL_RTOL",
]

# pivot smaller than PIVOT_RTOL * max diagonal entry counts as singular
PIVOT_RTOL = 1e-12
# guaranteed residual bound: max|A x - b| <= RESIDUAL_RTOL * (1 + max|b|)
RESIDUAL_RTOL = 1e-10
# iterative-refinement passes allowed before the bound counts as unreachable
REFINEMENT_PASSES = 3


class SingularMatrixError(ArithmeticError):
    """Factorization hit a pivot below tolerance (matrix numerically singular)."""


def _largest(values):
    """Entrywise maximum of the values; NaN wherever one of them is NaN."""
    if isinstance(values[0], np.ndarray):
        return functools.reduce(np.maximum, values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def _select(flag, a, b):
    """``a`` where ``flag`` is set, else ``b``."""
    return np.where(flag, a, b) if isinstance(flag, np.ndarray) else (a if flag else b)


def _cholesky(a: list, n: int) -> tuple[list, object]:
    """Lower Cholesky factor of ``a``, column by column, with a relative pivot check.

    Returns (chol, singular). A member whose pivot falls to PIVOT_RTOL times
    its own largest diagonal entry or below is flagged singular; its factor
    is finished with unit pivots and must not be used.
    """
    tol = PIVOT_RTOL * _largest([a[j][j] for j in range(n)])
    chol = [[0.0] * (i + 1) for i in range(n)]
    singular = False
    for j in range(n):
        row_j = chol[j]
        d = a[j][j]
        for k in range(j):
            d = d - row_j[k] * row_j[k]
        bad = d <= tol
        singular = singular | bad
        dj = np.sqrt(np.where(bad, 1.0, d)) if isinstance(bad, np.ndarray) \
            else 1.0 if bad else math.sqrt(d)
        row_j[j] = dj
        for i in range(j + 1, n):
            row_i = chol[i]
            s = a[i][j]
            for k in range(j):
                s = s - row_i[k] * row_j[k]
            row_i[j] = s / dj
    return chol, singular


def _substitute(chol: list, b: list, n: int) -> list:
    """Solve L L^T x = b, with L given as the rows of its lower triangle."""
    y = [0.0] * n
    for i in range(n):
        s = b[i]
        row = chol[i]
        for k in range(i):
            s = s - row[k] * y[k]
        y[i] = s / row[i]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, n):
            s = s - chol[k][i] * x[k]
        x[i] = s / chol[i][i]
    return x


def _residual_norm(a: list, x: list, b: list, n: int) -> tuple[list, object]:
    """Residual b - A x and its largest magnitude."""
    r = []
    for i in range(n):
        s = b[i]
        row = a[i]
        for k in range(n):
            s = s - row[k] * x[k]
        r.append(s)
    return r, _largest([abs(v) for v in r])


def _solve(a: list, b: list, n: int, delta: float, skip) -> tuple[list, object, object]:
    """solve_stacked on entry lists: Python floats or arrays over the stack.

    ``a`` is the Gram matrix as n rows of n entries (its diagonal receives
    delta in place), ``b`` the right-hand side as n entries. Returns the
    solution entries, the singular flags and the flags of the members still
    short of the residual bound after the refinement passes.
    """
    if delta:
        for i in range(n):
            a[i][i] = a[i][i] + delta
    chol, singular = _cholesky(a, n)
    x = _substitute(chol, b, n)
    bound = RESIDUAL_RTOL * (1.0 + _largest([abs(v) for v in b]))
    r, r_norm = _residual_norm(a, x, b, n)
    held = np.logical_not(singular if skip is None else singular | skip)
    # a NaN residual (non-finite system) never counts as short of the bound
    short = (r_norm > bound) & held
    for _ in range(REFINEMENT_PASSES):
        if not short.any():
            break
        x = [_select(short, xi + ci, xi) for xi, ci in zip(x, _substitute(chol, r, n))]
        r, r_norm = _residual_norm(a, x, b, n)
        short = (r_norm > bound) & held
    return x, singular, short


def solve_stacked(gram, delta: float, rhs, skip=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve (gram + delta*I) x = rhs for every system of a stack.

    ``gram`` has shape (..., n, n) and ``rhs`` (..., n); each member is an
    independent symmetric PSD system with solve_regularized's contract.
    Returns (x, singular, inexact), each flag of shape (...): ``singular``
    flags the members whose factorization met a pivot below tolerance,
    ``inexact`` the nonsingular members still short of the residual bound
    after the refinement passes (unreachable in float64 when ||x|| >> ||rhs||,
    at extreme delta/Gram ratios). The rows of ``x`` of flagged members are
    NaN; no member makes the whole stack fail. Non-finite systems pass
    through unflagged. Members flagged in the boolean mask ``skip`` (shape
    (...)) are neither refined nor held to the residual bound: their
    solution is not going to be used.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    g = np.asarray(gram, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError(f"gram must be square, got shape {g.shape}")
    b = np.asarray(rhs, dtype=float)
    n = g.shape[-1]
    if n == 0:
        raise ValueError("gram must be at least 1 x 1")
    if b.shape != g.shape[:-1]:
        raise ValueError(f"rhs must have shape {g.shape[:-1]}, got {b.shape}")

    if g.ndim == 2:
        # a single system runs on Python floats, which raise where numpy
        # returns inf or NaN; such a system is solved as a one-member stack
        try:
            x, singular, inexact = _solve(g.tolist(), b.tolist(), n, delta, skip)
        except (ZeroDivisionError, ValueError):
            x, singular, inexact = solve_stacked(g[None], delta, b[None],
                                                 None if skip is None else np.reshape(skip, 1))
            return x[0], singular[0], inexact[0]
        x = np.full(n, np.nan) if singular or inexact else np.array(x)
        return x, np.asarray(singular), np.asarray(inexact)
    a = [list(row) for row in np.moveaxis(g, (-2, -1), (0, 1))]
    x, singular, inexact = _solve(a, list(np.moveaxis(b, -1, 0)), n, delta, skip)
    x = np.stack(x, axis=-1)
    x[singular | inexact] = np.nan
    return x, singular, inexact


def solve_regularized(gram, delta: float, rhs) -> np.ndarray:
    """Solve (gram + delta*I) x = rhs for a symmetric PSD ``gram``.

    Raises SingularMatrixError when the factorization meets a pivot below
    PIVOT_RTOL times the largest diagonal entry (with delta = 0 this is the
    singular-Gram case the regularization constant exists to prevent). The
    returned solution satisfies max|A x - rhs| <= RESIDUAL_RTOL * (1 +
    max|rhs|); iterative refinement runs (at most three passes) whenever a
    substitution falls short of that bound, and ArithmeticError is raised
    when the bound is still not met.

    Stacked systems of shape (..., n, n) with right-hand sides (..., n) are
    solved member by member under the same contract; a failing member
    raises for the whole stack (see solve_stacked for per-member flags).
    """
    x, singular, inexact = solve_stacked(gram, delta, rhs)
    if singular.any():
        raise singular_error(singular)
    if inexact.any():
        raise residual_error(inexact)
    return x


def _members(flags: np.ndarray | None) -> str:
    """The flagged members of a stack, for an error message; empty for one system."""
    if flags is None or not flags.ndim:
        return ""
    return f" (stack member(s) {np.argwhere(flags).tolist()})"


def residual_error(inexact: np.ndarray | None = None) -> ArithmeticError:
    """The error reported for a system short of the residual bound."""
    return ArithmeticError(
        f"solve_regularized could not reach the guaranteed residual bound "
        f"{RESIDUAL_RTOL:.0e} x (1 + max|rhs|) in {REFINEMENT_PASSES} refinement "
        f"passes{_members(inexact)}"
    )


def singular_error(singular: np.ndarray | None = None) -> SingularMatrixError:
    """The error reported for a singular system, naming the flagged stack members."""
    return SingularMatrixError(
        f"pivot below tolerance {PIVOT_RTOL:.0e} x max diagonal{_members(singular)}; the Gram "
        "matrix is numerically singular (consider a regularization constant > 0)"
    )
