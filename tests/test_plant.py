"""Plant/exosystem tests: reference wave, Lie derivatives, error form.

The analytic Lie derivatives are cross-checked against central finite
differences of the reference along exosystem flow lines, which is the
independent oracle for the hand-derived formulas.
"""

import numpy as np
import pytest

from adreg.errors import InvalidConfigError
from adreg.plant import SyntheticLinearPlant, build_vdp_scenario, p1star_and_lie
from adreg.regulator import Regulator
from adreg.scenario import ScenarioConfig, _wire, build_closed_loop, state_layout


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


def _reference(w, rho=2.0):
    """(p1*, L_s p1*) at w from the Van der Pol plant's evaluator."""
    return build_vdp_scenario(2.0, rho).reference(np.asarray(w, dtype=float))


def triangular_output(w):
    return _reference(w)[0]


def _lie(w, rho):
    """(L_s p1*, L_s^2 p1*) at w, with the plant's one-sided sign of w2."""
    w1, w2 = float(w[0]), float(w[1])
    return p1star_and_lie(w1, w2, rho, 1.0 if w2 >= 0.0 else -1.0)[1:]


class TestTriangularOutput:
    def test_peak_value(self):
        # w = (1, 0): p1* = 2 * 1 * arcsin(1) = pi
        assert triangular_output(np.array([1.0, 0.0])) == pytest.approx(np.pi)

    def test_unit_amplitude_start(self):
        w = np.array([1.0 / np.pi, 0.0])
        assert triangular_output(w) == pytest.approx(1.0)

    def test_zero_crossing_and_origin(self):
        assert triangular_output(np.array([0.0, 1.0])) == pytest.approx(0.0)
        assert p1star_and_lie(0.0, 0.0, 2.0, 1.0) == (0.0, 0.0, 0.0)

    def test_odd_symmetry(self):
        w = np.array([0.3, -0.7])
        assert triangular_output(-w) == pytest.approx(-triangular_output(w))


class TestLieDerivatives:
    @pytest.mark.parametrize("rho", [1.0, 2.0, 0.5])
    @pytest.mark.parametrize("w", [(0.6, 0.8), (-0.3, 0.5), (0.9, -0.1), (1.0, 1.0)])
    def test_matches_finite_differences(self, w, rho):
        w = np.array(w)
        l1, l2 = _lie(w, rho)
        assert _reference(w, rho)[1] == l1
        h = 1e-6
        wp, wm = _flow_exo(w, rho, h), _flow_exo(w, rho, -h)
        fd1 = (triangular_output(wp) - triangular_output(wm)) / (2 * h)
        assert l1 == pytest.approx(fd1, abs=5e-8, rel=1e-6)
        l1p, _ = _lie(wp, rho)
        l1m, _ = _lie(wm, rho)
        fd2 = (l1p - l1m) / (2 * h)
        assert l2 == pytest.approx(fd2, abs=5e-7, rel=1e-5)

    def test_rho_one_slope_value(self):
        # circular exosystem, |w| = 1: triangle slope at the zero crossing
        # equals 2 * |w2| by inspection of p1* = 2 arcsin(w1)
        assert _reference([0.0, 1.0], rho=1.0)[1] == pytest.approx(2.0)

    def test_branch_side_selects_one_sided_limit(self):
        _, lp, _ = p1star_and_lie(1.0, 0.0, 2.0, +1.0)
        _, lm, _ = p1star_and_lie(1.0, 0.0, 2.0, -1.0)
        eps = 1e-6
        l_above, _ = _lie(np.array([1.0, eps]), 2.0)
        l_below, _ = _lie(np.array([1.0, -eps]), 2.0)
        assert lp == pytest.approx(l_above, abs=1e-4)
        assert lm == pytest.approx(l_below, abs=1e-4)
        assert lp != pytest.approx(lm)  # genuine slope flip at the peak


class TestReference:
    """The plant's one reference evaluator, w -> (p1*, L_s p1*), takes the
    sign of w2 as the closed-loop field and u* do: +1 where w2 >= 0."""

    def test_peak_takes_the_w2_nonnegative_side(self):
        assert _reference([1.0, 0.0])[1] == p1star_and_lie(1.0, 0.0, 2.0, +1.0)[1]
        assert _reference([1.0, -0.0])[1] == p1star_and_lie(1.0, 0.0, 2.0, +1.0)[1]

    def test_slightly_negative_w2_takes_the_negative_side(self):
        # 1e-12 below a peak: the w2 < 0 side, as the field takes it there
        _, slope = _reference([1.0, -1e-12])
        assert slope == p1star_and_lie(1.0, -1e-12, 2.0, -1.0)[1]
        assert slope == pytest.approx(-_reference([1.0, 0.0])[1], rel=1e-9)

    def test_initial_error_coordinates_take_the_negative_side(self):
        cfg = ScenarioConfig(plant={"w0": [1.0, -1e-12], "p0": [0.1, 0.0]},
                             sim={"horizon": 1.0})
        x = _wire(cfg).v0[state_layout(6).x]
        p1, l1, _ = p1star_and_lie(1.0, -1e-12, 2.0, -1.0)
        assert x.tolist() == [0.1 - p1, 0.0 - l1]

    def test_origin_is_config_error(self):
        with pytest.raises(InvalidConfigError):
            _reference([0.0, 0.0])

    def test_synthetic_linear_reference_is_w(self):
        im = Regulator(**{**ScenarioConfig().regulator, "d_eta": 2})
        plant = SyntheticLinearPlant(2.0, im.F, im.G)
        assert plant.reference(np.array([0.25, -0.5])) == (0.25, -0.5)


class TestVdpScenario:
    def test_feedforward_consistency(self):
        # u*(w) = -q(w, 0) / b, the defining identity of the feedforward,
        # checked on the closed-loop field: with x = x_hat = 0 and
        # sigma_hat = -u*(w) the controller applies u*(w), so x2' = 0
        plant = build_vdp_scenario(2.0, 2.0)
        field, control = build_closed_loop(plant, Regulator(**ScenarioConfig().regulator))
        lay = state_layout(6)
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.uniform(-1.0, 1.0, size=2)
            if abs(w[1]) / np.linalg.norm(w) < 1e-6:
                continue
            u = plant.ustar_rows(w[None, :])[0]
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
        vec = build_vdp_scenario(a, rho).ustar_rows(rows)
        ref = []
        for w in rows:
            p1 = triangular_output(w)
            l1, l2 = _lie(w, rho)
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
        up = build_vdp_scenario(a, rho).ustar_rows(np.array([[w_peak, eps]]))[0]
        um = build_vdp_scenario(a, rho).ustar_rows(np.array([[w_peak, -eps]]))[0]
        assert up == pytest.approx(um, abs=1e-5)

    def test_ustar_jumps_at_larger_amplitude_peak(self):
        a, rho = 2.0, 2.0
        eps = 1e-8
        up = build_vdp_scenario(a, rho).ustar_rows(np.array([[1.0, eps]]))[0]
        um = build_vdp_scenario(a, rho).ustar_rows(np.array([[1.0, -eps]]))[0]
        # jump size a * (1 - pi^2) * Delta L1 with Delta L1 = 4 rho
        expected = abs(a * (1.0 - np.pi**2) * 4.0 * rho)
        assert abs(up - um) == pytest.approx(expected, rel=1e-5)

    def test_invalid_params(self):
        # the plant section's ranges are the config schema's
        with pytest.raises(InvalidConfigError, match="^plant.a must be positive, got 0.0$"):
            ScenarioConfig(plant={"a": 0.0})
        with pytest.raises(InvalidConfigError, match="^plant.rho must be positive, got -1.0$"):
            ScenarioConfig(plant={"rho": -1.0})
