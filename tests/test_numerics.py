"""Linear-algebra and integration kernel tests.

Oracle values are recomputed independently (scipy/numpy reference routines or
closed-form expansions) rather than taken from the implementation under test.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from adreg.errors import IntegrationBlowupError, InvalidInputError
from adreg.numerics import (
    is_controllable,
    is_hurwitz,
    place_poles,
    pseudoinverse,
    rk4_step,
)


class TestPseudoinverse:
    def test_matches_numpy_pinv_full_rank(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 3))
        assert np.allclose(pseudoinverse(m), np.linalg.pinv(m), atol=1e-12)

    def test_rank_deficient_projects(self):
        # rank-1 matrix built by hand; the Penrose identities pin the answer
        u = np.array([1.0, 2.0, -1.0])
        v = np.array([0.5, -1.0])
        m = np.outer(u, v)
        p = pseudoinverse(m)
        assert np.allclose(m @ p @ m, m, atol=1e-12)
        assert np.allclose(p @ m @ p, p, atol=1e-12)

    def test_relative_cutoff_drops_small_singular_values(self):
        m = np.diag([1.0, 1e-15])
        p = pseudoinverse(m, cutoff_rel=1e-12)
        assert p[1, 1] == 0.0
        p = pseudoinverse(m, cutoff_rel=1e-16)
        assert p[1, 1] == pytest.approx(1e15)

    def test_zero_matrix(self):
        assert np.all(pseudoinverse(np.zeros((3, 2))) == 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            pseudoinverse(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_bad_cutoff_rejected(self):
        with pytest.raises(InvalidInputError):
            pseudoinverse(np.eye(2), cutoff_rel=0.0)


class TestPlacePoles:
    def test_two_pole_example(self):
        # poly (s+1)(s+2) = s^2 + 3 s + 2 -> K = [2, 3]
        k = place_poles(2, 1, [-1.0, -2.0])
        assert np.allclose(k, [[2.0, 3.0]])

    def test_three_pole_example(self):
        # poly (s+1)(s+2)(s+3) = s^3 + 6 s^2 + 11 s + 6 -> K = [6, 11, 6]
        k = place_poles(3, 1, [-1.0, -2.0, -3.0])
        assert np.allclose(k, [[6.0, 11.0, 6.0]])

    def test_closed_loop_eigenvalues(self):
        from adreg.plant import build_chain_matrices

        desired = np.array([-0.5, -1.5, -4.0])
        k = place_poles(3, 1, desired)
        a, b, _ = build_chain_matrices(3, 1)
        eig = np.sort(np.linalg.eigvals(a - b @ k).real)
        assert np.allclose(eig, np.sort(desired), atol=1e-9)

    def test_multichannel_block_structure(self):
        from adreg.plant import build_chain_matrices

        k = place_poles(2, 2, [-1.0, -2.0])
        a, b, _ = build_chain_matrices(2, 2)
        eig = np.sort(np.linalg.eigvals(a - b @ k).real)
        assert np.allclose(eig, [-2.0, -2.0, -1.0, -1.0], atol=1e-9)

    def test_nonnegative_pole_rejected(self):
        with pytest.raises(InvalidInputError):
            place_poles(2, 1, [-1.0, 0.0])

    def test_wrong_count_rejected(self):
        with pytest.raises(InvalidInputError):
            place_poles(2, 1, [-1.0])


class TestStabilityChecks:
    def test_hurwitz_true_false(self):
        assert is_hurwitz(np.diag([-1.0, -2.0]))
        assert not is_hurwitz(np.diag([-1.0, 0.5]))
        assert not is_hurwitz(np.zeros((2, 2)))

    def test_controllable_chain(self):
        f = -np.eye(3) + np.diag([1.0, 1.0], k=1)
        g = np.array([[0.0], [0.0], [1.0]])
        assert is_controllable(f, g)

    def test_uncontrollable_decoupled_mode(self):
        f = np.diag([-1.0, -2.0])
        g = np.array([[1.0], [0.0]])
        assert not is_controllable(f, g)


class TestRk4Step:
    def test_linear_system_matches_expm(self):
        a = np.array([[0.0, 1.0], [-4.0, -0.5]])
        x0 = np.array([1.0, -1.0])
        dt = 1e-3
        x = rk4_step(lambda s: a @ s, x0, dt)
        exact = expm(a * dt) @ x0
        assert np.allclose(x, exact, atol=1e-12)

    def test_fourth_order_convergence(self):
        # scalar xdot = -x: error at t=1 should shrink ~16x per halving
        def run(n):
            x = [1.0]
            for _ in range(n):
                x = rk4_step(lambda s: [-v for v in s], x, 1.0 / n)
            return abs(float(x[0]) - np.exp(-1.0))

        e1, e2 = run(50), run(100)
        assert 12.0 < e1 / e2 < 20.0

    def test_step_equals_textbook_expression_bit_for_bit(self):
        a = np.random.default_rng(4).standard_normal((7, 7))

        def field(s):
            s = np.asarray(s)
            return np.sin(a @ s) - s * s[::-1]

        state = np.random.default_rng(5).standard_normal(7)
        before = state.tobytes()
        for dt in (1e-3, 0.37, 2.0 / 3.0):
            got = np.array(rk4_step(field, state.tolist(), dt))
            k1 = field(state)
            k2 = field(state + 0.5 * dt * k1)
            k3 = field(state + 0.5 * dt * k2)
            k4 = field(state + dt * k3)
            want = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert got.tobytes() == want.tobytes()
            assert state.tobytes() == before

    def test_blowup_raises(self):
        state = [1e160]
        with pytest.raises(IntegrationBlowupError) as exc, np.errstate(over="ignore"):
            rk4_step(lambda s: [v * v * v for v in s], state, 1.0, t=2.5)
        assert exc.value.t == pytest.approx(3.5)
        assert exc.value.state is state
        assert not np.isfinite(exc.value.output).all()

    def test_bad_dt_rejected(self):
        with pytest.raises(InvalidInputError):
            rk4_step(lambda s: [-v for v in s], [1.0], 0.0)


def _numpy_rk4_step(field, state, dt, t=0.0):
    """The RK4 step on numpy arrays that the list step replaced: the stages
    combined in place in the arrays the field returns."""
    k1 = field(state)
    k2 = field(state + 0.5 * dt * k1)
    k3 = field(state + 0.5 * dt * k2)
    k4 = field(state + dt * k3)
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    k1 += state
    if not np.isfinite(k1).all():
        raise IntegrationBlowupError(t + dt, 0, state, k1)
    return k1


class TestRk4StepOnLists:
    """The list step makes the numpy step's IEEE operations in its order."""

    @staticmethod
    def _fields(rng, n):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        yield lambda s: np.sin(a @ s) - s * s[::-1]
        yield lambda s: np.tanh(b * s) * (a @ s) + 1e-3 * s**3
        yield lambda s: np.cos(s) - a @ (s * b)

    def test_equals_the_numpy_step_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 13):
            for field in self._fields(rng, n):
                for _ in range(10):
                    state = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 2)
                    dt = float(rng.choice([1e-3, 0.05, 0.37]))
                    want = _numpy_rk4_step(field, state, dt)
                    got = rk4_step(lambda s: field(np.asarray(s)).tolist(), state.tolist(), dt)
                    assert type(got) is list
                    assert np.array(got).tobytes() == want.tobytes()

    def test_overflowing_field_raises_with_the_numpy_steps_output(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            state = rng.standard_normal(5) * 1e100
            field = lambda s: s * s * s  # noqa: E731
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(IntegrationBlowupError) as want:
                    _numpy_rk4_step(field, state, 0.1, t=1.0)
                with pytest.raises(IntegrationBlowupError) as got:
                    rk4_step(lambda s: field(np.asarray(s)).tolist(), state.tolist(), 0.1, t=1.0)
            assert got.value.t == want.value.t
            assert np.array_equal(got.value.output, want.value.output, equal_nan=True)
