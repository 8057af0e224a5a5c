"""Tests for the regularized SPD solver."""

import numpy as np
import pytest

from apbench.linalg import RESIDUAL_RTOL, SingularMatrixError, solve_regularized, solve_stacked


def test_identity_system():
    x = solve_regularized(np.eye(2), 0.0, [3.0, 4.0])
    np.testing.assert_allclose(x, [3.0, 4.0], atol=1e-14)


def test_hand_inverted_2x2():
    x = solve_regularized([[2.0, 1.0], [1.0, 2.0]], 0.0, [3.0, 3.0])
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_rank_one_gram_with_regularization():
    # (gram + delta I)^-1 [1,1] for gram = ones(2,2): both entries 1/(2+delta)
    delta = 1e-6
    x = solve_regularized([[1.0, 1.0], [1.0, 1.0]], delta, [1.0, 1.0])
    # conditioning is ~2/delta, so a backward-stable solve is only good to
    # about cond * eps ~ 4e-10 relative here
    np.testing.assert_allclose(x, [1.0 / (2.0 + delta)] * 2, rtol=1e-8)


def test_singular_without_regularization():
    with pytest.raises(SingularMatrixError):
        solve_regularized([[1.0, 1.0], [1.0, 1.0]], 0.0, [1.0, 1.0])


def test_tiny_but_positive_definite_scales():
    # the pivot tolerance is relative, so a uniformly tiny SPD system solves
    x = solve_regularized([[1e-30]], 0.0, [2e-30])
    assert x[0] == pytest.approx(2.0)


def test_residual_bound_random_spd():
    rng = np.random.default_rng(17)
    for i in range(1000):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        if i % 4 == 0:
            u = rng.standard_normal(n)
            gram = np.outer(u, u)  # singular without the delta term
            delta = float(rng.uniform(1e-4, 1e-2))
        else:
            gram = a @ a.T + 1e-3 * np.eye(n)
            delta = float(rng.choice([0.0, 1e-8, 1e-3]))
        rhs = rng.standard_normal(n)
        x = solve_regularized(gram, delta, rhs)
        resid = np.max(np.abs((gram + delta * np.eye(n)) @ x - rhs))
        assert resid <= RESIDUAL_RTOL * (1.0 + np.max(np.abs(rhs)))


def test_matches_eigendecomposition_oracle_and_monotone_in_delta():
    rng = np.random.default_rng(5)
    deltas = [0.0, 1e-6, 1e-4, 1e-2, 1.0]
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n))
        gram = a @ a.T + 1e-3 * np.eye(n)
        rhs = rng.standard_normal(n)
        evals, evecs = np.linalg.eigh(gram)
        norms = []
        for delta in deltas:
            x = solve_regularized(gram, delta, rhs)
            x_ref = evecs @ ((evecs.T @ rhs) / (evals + delta))
            np.testing.assert_allclose(x, x_ref, rtol=1e-8, atol=1e-10)
            norms.append(np.linalg.norm(x))
        # heavier regularization never increases the solution norm
        for lo, hi in zip(norms[1:], norms[:-1]):
            assert lo <= hi * (1.0 + 1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        solve_regularized(np.eye(2), -1e-9, [1.0, 1.0])
    with pytest.raises(ValueError):
        solve_regularized(np.ones((2, 3)), 0.0, [1.0, 1.0])
    with pytest.raises(ValueError):
        solve_regularized(np.eye(2), 0.0, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("delta", [0.0, 1e-3])
def test_stacked_members_match_single_solves_and_are_flagged_per_member(delta):
    rng = np.random.default_rng(11)
    for n in (1, 2, 4):
        a = rng.standard_normal((20, n, n + 1))
        gram = a @ np.swapaxes(a, -1, -2)
        gram[7] = np.ones((n, n))  # singular without regularization
        rhs = rng.standard_normal((20, n))
        x, singular, inexact = solve_stacked(gram, delta, rhs)
        assert singular.tolist() == [delta == 0.0 and n > 1 and r == 7 for r in range(20)]
        assert not inexact.any()
        for r in range(20):
            if singular[r]:
                assert np.all(np.isnan(x[r]))
                with pytest.raises(SingularMatrixError):
                    solve_regularized(gram[r], delta, rhs[r])
            else:
                assert np.array_equal(x[r], solve_regularized(gram[r], delta, rhs[r]))


def test_stacked_solve_regularized_raises_for_a_singular_member():
    gram = np.stack([np.eye(2), np.ones((2, 2))])
    with pytest.raises(SingularMatrixError, match=r"member\(s\) \[\[1\]\]"):
        solve_regularized(gram, 0.0, np.ones((2, 2)))
    x = solve_regularized(gram, 1e-3, np.ones((2, 2)))
    np.testing.assert_allclose(x[1], [1.0 / (2.0 + 1e-3)] * 2, rtol=1e-8)


def test_pivot_tolerance_is_relative_to_each_members_own_diagonal():
    # one member 1e30 times larger must not make the tiny one singular
    gram = np.stack([np.array([[1e-30]]), np.array([[1.0]])]) * [[[1.0]], [[1e30]]]
    x, singular, inexact = solve_stacked(gram, 0.0, np.array([[2e-30], [1e30]]))
    assert not singular.any() and not inexact.any()
    np.testing.assert_allclose(x[:, 0], [2.0, 1.0])


# nonsingular, but too ill-conditioned to reach the residual bound in float64
ILL_GRAM = np.array([[0.03435064017636203, 0.08336686983895734, -0.15913739553992812],
                     [0.08336686983895734, 0.20703641384536325, -0.3964818013753262],
                     [-0.15913739553992812, -0.3964818013753262, 0.7596129461284367]])
ILL_RHS = np.array([0.3515100700930197, 0.9034701816518086, 0.09401229776087457])
GOOD_GRAM = np.diag([1.0, 2.0, 4.0])


def test_skipped_members_are_not_held_to_the_residual_bound():
    gram = np.stack([GOOD_GRAM, ILL_GRAM])
    rhs = np.stack([np.ones(3), ILL_RHS])
    assert solve_stacked(gram, 0.0, rhs)[2].tolist() == [False, True]
    x, singular, inexact = solve_stacked(gram, 0.0, rhs, skip=np.array([False, True]))
    assert not singular.any() and not inexact.any()
    assert np.array_equal(x[0], solve_regularized(GOOD_GRAM, 0.0, rhs[0]))


def test_a_member_short_of_the_residual_bound_is_flagged_and_the_rest_solve():
    gram = np.stack([GOOD_GRAM, ILL_GRAM, GOOD_GRAM])
    rhs = np.stack([np.ones(3), ILL_RHS, -np.ones(3)])
    x, singular, inexact = solve_stacked(gram, 0.0, rhs)
    assert not singular.any()
    assert inexact.tolist() == [False, True, False]
    assert np.all(np.isnan(x[1]))
    for r in (0, 2):
        assert np.array_equal(x[r], solve_regularized(GOOD_GRAM, 0.0, rhs[r]))
    # the same member alone: flagged as a single system, raised by solve_regularized
    x1, singular1, inexact1 = solve_stacked(ILL_GRAM, 0.0, ILL_RHS)
    assert inexact1 and not singular1 and np.all(np.isnan(x1))
    with pytest.raises(ArithmeticError, match="residual bound"):
        solve_regularized(ILL_GRAM, 0.0, ILL_RHS)
    with pytest.raises(ArithmeticError, match=r"residual bound .*member\(s\) \[\[1\]\]"):
        solve_regularized(gram, 0.0, rhs)


def test_single_system_matches_a_one_member_stack_where_python_floats_would_raise():
    # the zero pivot is not flagged against a NaN tolerance; 0/0 must give NaN
    gram = np.array([[0.0, 0.0], [0.0, np.nan]])
    with np.errstate(invalid="ignore", divide="ignore"):
        x, singular, inexact = solve_stacked(gram, 0.0, np.ones(2))
        x1, singular1, inexact1 = solve_stacked(gram[None], 0.0, np.ones((1, 2)))
    assert x.shape == (2,) and singular.shape == () and inexact.shape == ()
    assert np.array_equal(x, x1[0], equal_nan=True) and singular == singular1[0]
    assert inexact == inexact1[0]
