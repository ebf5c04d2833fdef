"""Plant/exosystem tests: reference wave, Lie derivatives, error form.

The analytic Lie derivatives are cross-checked against central finite
differences of the reference along exosystem flow lines, which is the
independent oracle for the hand-derived formulas.
"""

import numpy as np
import pytest

from adreg.errors import BranchPointError, InvalidConfigError
from adreg.plant import (
    BRANCH_TOL,
    build_chain_matrices,
    build_vdp_scenario,
    lie_derivatives_p1star,
    triangular_output,
    vdp_ustar_rows,
)
from adreg.regulator import ObserverConfig, StabilizerConfig, default_internal_model
from adreg.scenario import build_closed_loop, state_layout


def _flow_exo(w, rho, dt, steps=1):
    """RK4 integration of the exosystem, independent of the hybrid engine."""
    w = np.asarray(w, dtype=float)

    def s(v):
        return np.array([v[1], -rho * v[0]])

    for _ in range(steps):
        k1 = s(w)
        k2 = s(w + 0.5 * dt * k1)
        k3 = s(w + 0.5 * dt * k2)
        k4 = s(w + dt * k3)
        w = w + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return w


class TestChainMatrices:
    def test_r2_structure(self):
        a, b, c = build_chain_matrices(2, 1)
        assert np.array_equal(a, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(b, [[0.0], [1.0]])
        assert np.array_equal(c, [[1.0, 0.0]])

    def test_multivariable_blocks(self):
        a, b, c = build_chain_matrices(3, 2)
        x = np.arange(6.0)
        u = np.array([1.0, -1.0])
        xdot = a @ x + b @ u
        # block-shift: xdot_i = x_{i+1}, last block = u
        assert np.allclose(xdot[:4], x[2:])
        assert np.allclose(xdot[4:], u)
        assert np.allclose(c @ x, x[:2])

    def test_invalid_dims(self):
        with pytest.raises(InvalidConfigError):
            build_chain_matrices(0, 1)


class TestTriangularOutput:
    def test_peak_value(self):
        # w = (1, 0): p1* = 2 * 1 * arcsin(1) = pi
        assert triangular_output(np.array([1.0, 0.0])) == pytest.approx(np.pi)

    def test_unit_amplitude_start(self):
        w = np.array([1.0 / np.pi, 0.0])
        assert triangular_output(w) == pytest.approx(1.0)

    def test_zero_crossing_and_origin(self):
        assert triangular_output(np.array([0.0, 1.0])) == pytest.approx(0.0)
        assert triangular_output(np.array([0.0, 0.0])) == pytest.approx(0.0)

    def test_odd_symmetry(self):
        w = np.array([0.3, -0.7])
        assert triangular_output(-w) == pytest.approx(-triangular_output(w))


class TestLieDerivatives:
    @pytest.mark.parametrize("rho", [1.0, 2.0, 0.5])
    @pytest.mark.parametrize("w", [(0.6, 0.8), (-0.3, 0.5), (0.9, -0.1), (1.0, 1.0)])
    def test_matches_finite_differences(self, w, rho):
        w = np.array(w)
        l1, l2 = lie_derivatives_p1star(w, rho)
        h = 1e-6
        wp, wm = _flow_exo(w, rho, h), _flow_exo(w, rho, -h)
        fd1 = (triangular_output(wp) - triangular_output(wm)) / (2 * h)
        assert l1 == pytest.approx(fd1, abs=5e-8, rel=1e-6)
        l1p, _ = lie_derivatives_p1star(wp, rho)
        l1m, _ = lie_derivatives_p1star(wm, rho)
        fd2 = (l1p - l1m) / (2 * h)
        assert l2 == pytest.approx(fd2, abs=5e-7, rel=1e-5)

    def test_rho_one_slope_value(self):
        # circular exosystem, |w| = 1: triangle slope at the zero crossing
        # equals 2 * |w2| by inspection of p1* = 2 arcsin(w1)
        l1, _ = lie_derivatives_p1star(np.array([0.0, 1.0]), 1.0)
        assert l1 == pytest.approx(2.0)

    def test_branch_point_raises_without_side(self):
        with pytest.raises(BranchPointError):
            lie_derivatives_p1star(np.array([1.0, 0.0]), 2.0)
        with pytest.raises(BranchPointError):
            lie_derivatives_p1star(np.array([0.0, 0.0]), 2.0)

    def test_branch_side_selects_one_sided_limit(self):
        w_peak = np.array([1.0, 0.0])
        lp, _ = lie_derivatives_p1star(w_peak, 2.0, branch_side=+1)
        lm, _ = lie_derivatives_p1star(w_peak, 2.0, branch_side=-1)
        eps = 1e-6
        l_above, _ = lie_derivatives_p1star(np.array([1.0, eps]), 2.0)
        l_below, _ = lie_derivatives_p1star(np.array([1.0, -eps]), 2.0)
        assert lp == pytest.approx(l_above, abs=1e-4)
        assert lm == pytest.approx(l_below, abs=1e-4)
        assert lp != pytest.approx(lm)  # genuine slope flip at the peak

    def test_tolerance_is_relative(self):
        w = np.array([1.0, 2.0 * BRANCH_TOL])  # just outside the tolerance
        lie_derivatives_p1star(w, 2.0)  # should not raise


class TestVdpScenario:
    def test_feedforward_consistency(self):
        # u*(w) = -q(w, 0) / b, the defining identity of the feedforward,
        # checked on the closed-loop field: with x = x_hat = 0 and
        # sigma_hat = -u*(w) the controller applies u*(w), so x2' = 0
        plant = build_vdp_scenario(2.0, 2.0)
        stab = StabilizerConfig(K=[[2.0, 3.0]], sat_level=100.0)
        obs = ObserverConfig(ell=20.0, h_coeffs=[6.0, 11.0, 6.0], psi_bar=100.0)
        field, control = build_closed_loop(plant, default_internal_model(6), stab, obs)
        lay = state_layout(6)
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.uniform(-1.0, 1.0, size=2)
            if abs(w[1]) / np.linalg.norm(w) < 1e-6:
                continue
            u = plant.extras["ustar"](w).item()
            v = np.zeros(lay.size)
            v[lay.w] = w
            v[lay.sigma_hat] = -u
            assert control(0.0, 0.0, -u) == u
            assert field(v)[lay.x][1] == pytest.approx(0.0, abs=1e-12)

    def test_ustar_rows_matches_scalar(self):
        a, rho = 2.0, 2.0
        rng = np.random.default_rng(2)
        rows = rng.uniform(-1.0, 1.0, size=(50, 2))
        rows = rows[np.abs(rows[:, 1]) > 1e-3]
        vec = vdp_ustar_rows(rows, a, rho)
        ref = []
        for w in rows:
            p1 = triangular_output(w)
            l1, l2 = lie_derivatives_p1star(w, rho)
            ref.append(p1 + l2 - a * (1.0 - p1**2) * l1)
        assert np.allclose(vec, ref, atol=1e-12)

    def test_fast_q_is_vdp_in_error_coordinates(self):
        # q(w, x) = -p1 + a (1 - p1^2) p2 - L_s^2 p1*(w) with the plant state
        # p = x + (p1*, L_s p1*)(w); the Lie derivatives here are central
        # differences of p1* along the exosystem flow
        a, rho = 2.0, 2.0
        fast_q = build_vdp_scenario(a, rho).extras["fast_q"]
        rng = np.random.default_rng(3)
        h = 1e-4
        for _ in range(50):
            w = rng.uniform(-1.0, 1.0, size=2)
            x = rng.uniform(-2.0, 2.0, size=2)
            if abs(w[1]) / np.linalg.norm(w) < 1e-2:
                continue
            pp = triangular_output(_flow_exo(w, rho, h))
            pm = triangular_output(_flow_exo(w, rho, -h))
            p0 = triangular_output(w)
            l1, l2 = (pp - pm) / (2 * h), (pp - 2 * p0 + pm) / h**2
            p1, p2 = x[0] + p0, x[1] + l1
            ref = -p1 + a * (1.0 - p1**2) * p2 - l2
            assert fast_q(w[0], w[1], x[0], x[1]) == pytest.approx(ref, abs=1e-5)

    def test_ustar_continuous_at_unit_amplitude_peak(self):
        # at triangle amplitude 1 the peak factor (1 - p1*^2) vanishes, so
        # the one-sided limits of u* agree there
        a, rho = 2.0, 2.0
        w_peak = 1.0 / np.pi
        eps = 1e-8
        up = vdp_ustar_rows(np.array([[w_peak, eps]]), a, rho)[0]
        um = vdp_ustar_rows(np.array([[w_peak, -eps]]), a, rho)[0]
        assert up == pytest.approx(um, abs=1e-5)

    def test_ustar_jumps_at_larger_amplitude_peak(self):
        a, rho = 2.0, 2.0
        eps = 1e-8
        up = vdp_ustar_rows(np.array([[1.0, eps]]), a, rho)[0]
        um = vdp_ustar_rows(np.array([[1.0, -eps]]), a, rho)[0]
        # jump size a * (1 - pi^2) * Delta L1 with Delta L1 = 4 rho
        expected = abs(a * (1.0 - np.pi**2) * 4.0 * rho)
        assert abs(up - um) == pytest.approx(expected, rel=1e-5)

    def test_invalid_params(self):
        with pytest.raises(InvalidConfigError):
            build_vdp_scenario(0.0, 2.0)
        with pytest.raises(InvalidConfigError):
            build_vdp_scenario(2.0, -1.0)
