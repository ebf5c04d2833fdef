"""Linear-algebra and integration kernel tests.

Oracle values are recomputed independently (scipy/numpy reference routines or
closed-form expansions) rather than taken from the implementation under test.
"""

import re

import numpy as np
import pytest
from scipy.linalg import expm

from adreg.errors import InvalidConfigError, InvalidInputError
from adreg.numerics import (
    is_controllable,
    place_poles,
    pseudoinverse,
    rk4_stable_step,
    rk4_step,
)
from adreg.scenario import ScenarioConfig


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
        assert pseudoinverse(m)[1, 1] == 0.0

    def test_zero_matrix(self):
        assert np.all(pseudoinverse(np.zeros((3, 2))) == 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            pseudoinverse(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPlacePoles:
    def test_two_pole_example(self):
        # poly (s+1)(s+2) = s^2 + 3 s + 2 -> K = [2, 3]
        k = place_poles([-1.0, -2.0])
        assert np.allclose(k, [[2.0, 3.0]])

    def test_closed_loop_eigenvalues(self):
        desired = np.array([-0.5, -4.0])
        k = place_poles(desired)
        a = np.array([[0.0, 1.0], [0.0, 0.0]])  # the chain of two integrators
        b = np.array([[0.0], [1.0]])
        eig = np.sort(np.linalg.eigvals(a - b @ k).real)
        assert np.allclose(eig, np.sort(desired), atol=1e-9)

    def test_nonnegative_pole_rejected(self):
        # the poles' range is the config schema's: place_poles is given two
        # negative numbers only
        error = "regulator.poles must be two negative numbers, got [-1.0, 0.0]"
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(error)}$"):
            ScenarioConfig(regulator={"poles": [-1.0, 0.0]})

    def test_wrong_count_rejected(self):
        error = "regulator.poles must be a list of 2 finite numbers, got [-1.0]"
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(error)}$"):
            ScenarioConfig(regulator={"poles": [-1.0]})


class TestStabilityChecks:
    def test_controllable_chain(self):
        f = -np.eye(3) + np.diag([1.0, 1.0], k=1)
        g = np.array([[0.0], [0.0], [1.0]])
        assert is_controllable(f, g)

    def test_uncontrollable_decoupled_mode(self):
        f = np.diag([-1.0, -2.0])
        g = np.array([[1.0], [0.0]])
        assert not is_controllable(f, g)

    @staticmethod
    def _hurwitz_pairs(d, count=20):
        """Random dense Hurwitz pairs: F standard normal shifted by its
        largest real eigenvalue + 0.5, G standard normal."""
        rng = np.random.default_rng(0)
        for _ in range(count):
            f = rng.standard_normal((d, d))
            f -= (np.linalg.eigvals(f).real.max() + 0.5) * np.eye(d)
            yield f, rng.standard_normal((d, 1))

    @pytest.mark.parametrize("d", [12, 16, 24, 64])
    def test_random_dense_pairs_are_controllable(self, d):
        # the rank of the raw Krylov matrix [G, FG, ..., F^{d-1}G] passed
        # none of these at d = 16
        for f, g in self._hurwitz_pairs(d):
            assert np.linalg.eigvals(f).real.max() < 0.0
            assert is_controllable(f, g)

    def test_unreachable_mode_rejected(self):
        # G has no component along the third mode
        assert not is_controllable(np.diag([-1.0, -2.0, -3.0]), np.array([[1.0], [1.0], [0.0]]))
        # a repeated eigenvalue with one input: F G is parallel to G
        assert not is_controllable(np.diag([-1.0, -1.0]), np.array([[1.0], [1.0]]))

    @pytest.mark.parametrize("d", [1, 2, 6, 20, 100])
    def test_default_pairs_are_controllable(self, d):
        # the raw Krylov matrix's rank rejected the default pair at d = 100
        from adreg.regulator import Regulator

        im = Regulator(**{**ScenarioConfig().regulator, "d_eta": d})
        assert is_controllable(im.F, im.G)


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

    @pytest.mark.parametrize("stage", range(4))
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_field_of_another_length_rejected(self, stage, extra):
        calls = []

        def field(s):
            calls.append(len(s))
            out = [-v for v in s]
            if len(calls) == stage + 1:
                return out[:-1] if extra < 0 else out + [0.0]
            return out

        with pytest.raises(InvalidInputError,
                           match=f"field returned {3 + extra} components for a state of 3"):
            rk4_step(field, [1.0, 2.0, 3.0], 0.1)
        assert calls == [3] * (stage + 1)


def _rk4_stability(z):
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


class TestRk4StableStep:
    @pytest.mark.parametrize("lam", [-1.0, -2850.0, -1.0 + 1.0j, -0.1 + 2.0j, -2.0 + 0.1j,
                                     -1e-9 + 1.0j, -3.0 - 4.0j, 1.0j, -2846.05j])
    def test_stable_up_to_the_bound_and_not_past_it(self, lam):
        h = rk4_stable_step(lam)
        steps = np.linspace(0.0, h, 2001) * lam
        assert np.abs(_rk4_stability(steps)).max() <= 1.0 + 1e-9
        assert abs(_rk4_stability(1.001 * h * lam)) > 1.0

    def test_real_closed_form_is_the_limit_of_the_complex_roots(self):
        assert rk4_stable_step(-1.0) == pytest.approx(2.785293563405282, rel=1e-15)
        assert rk4_stable_step(complex(-1.0, 1e-9)) == pytest.approx(rk4_stable_step(-1.0),
                                                                     rel=1e-8)
        assert rk4_stable_step(-1.0 + 1e-9j) == rk4_stable_step(-1.0 - 1e-9j)

    @pytest.mark.parametrize("y", [1.0, 1000.0, 2.0**-10, 2.0**20])
    def test_imaginary_closed_form(self, y):
        # |R(iy)|^2 = 1 - y^6/72 + y^8/576 <= 1 iff y^2 <= 8; the polynomial's
        # h^5 factor gave numpy's roots a noise root near 0 (6.3e-8 at 1000i)
        assert rk4_stable_step(1j * y) * y == 2.0 * np.sqrt(2.0)

    def test_scales_inversely_with_the_pole(self):
        assert rk4_stable_step(-1e6 + 1e6j) == pytest.approx(rk4_stable_step(-1 + 1j) / 1e6,
                                                             rel=1e-12)


class TestRk4StepOnLists:
    """The list step makes the numpy step's IEEE operations in its order."""

    @staticmethod
    def _fields(rng, n):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        yield lambda s: np.sin(a @ s) - s * s[::-1]
        yield lambda s: np.tanh(b * s) * (a @ s) + 1e-3 * s**3
        yield lambda s: np.cos(s) - a @ (s * b)

    def test_equals_the_numpy_step_bit_for_bit(self, numpy_rk4_step):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 13, 307):
            for field in self._fields(rng, n):
                for _ in range(10):
                    state = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 2)
                    dt = float(rng.choice([1e-3, 0.05, 0.37]))
                    want = numpy_rk4_step(field, state, dt)
                    got = rk4_step(lambda s: field(np.asarray(s)).tolist(), state.tolist(), dt)
                    assert type(got) is list
                    assert np.array(got).tobytes() == want.tobytes()

    def test_overflowing_field_returns_the_numpy_steps_output(self, numpy_rk4_step):
        # the step checks nothing: simulate checks its output
        rng = np.random.default_rng(12)
        for _ in range(10):
            state = rng.standard_normal(5) * 1e100
            field = lambda s: s * s * s  # noqa: E731
            with np.errstate(over="ignore", invalid="ignore"):
                want = numpy_rk4_step(field, state, 0.1)
                got = rk4_step(lambda s: field(np.asarray(s)).tolist(), state.tolist(), 0.1)
            assert not np.isfinite(want).all()
            assert np.array(got).tobytes() == want.tobytes()
