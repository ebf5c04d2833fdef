"""Harness tests: ideal data generation and the identifier-requirement
verification report."""

import numpy as np
import pytest

from adreg.errors import InvalidConfigError
from adreg.harness import (
    brute_force_cost_minimizer,
    format_report,
    run_core_process,
    verify_identifier_requirement,
)
from adreg.hybrid import ClockConfig, simulate
from adreg.identifier import LsIdentifier, MiniBatchIdentifier, PolyRegressor


def _harmonic_samples(tau_rows, ustar_rows, horizon, dt=1e-3, w0=(1.0, 0.0), period=0.1):
    clock = ClockConfig(period, period, "periodic", period, 0)
    return run_core_process(clock, lambda w: np.array([w[1], -w[0]]), np.array(w0), tau_rows,
                            ustar_rows, horizon, dt)


class TestRunCoreProcess:
    def test_sample_count_and_shapes(self):
        etas, us = _harmonic_samples(lambda rows: rows, lambda rows: rows[:, 0], horizon=1.0)
        assert etas.shape == (10, 2)
        assert us.shape == (10,)
        assert etas.dtype == us.dtype == float

    def test_samples_follow_the_flow(self):
        etas, us = _harmonic_samples(lambda rows: rows, lambda rows: rows[:, 0], horizon=0.5,
                                     dt=1e-4)
        # harmonic oscillator: w(t) = (cos t, -sin t)
        assert len(us) == 5
        for j, (win, wout) in enumerate(zip(etas, us)):
            t = 0.1 * (j + 1)
            assert np.allclose(win, [np.cos(t), -np.sin(t)], atol=1e-9)
            assert wout == pytest.approx(np.cos(t), abs=1e-9)

    def test_samples_are_the_pre_jump_rows(self):
        # the row maps see the arc's pre-jump rows of w, bit for bit
        clock = ClockConfig(0.1, 0.1, "periodic", 0.1, 0)
        exo = lambda w: [w[1], -w[0]]
        etas, us = run_core_process(clock, exo, np.array([1.0, 0.0]), lambda rows: 2.0 * rows,
                                    lambda rows: rows[:, 1], horizon=0.45, dt=1e-3)
        arc = simulate(exo, lambda t, j, w: w, np.array([1.0, 0.0]), clock, 0.45, 1e-3)
        pre = arc.states[np.flatnonzero(np.diff(arc.j))]
        assert pre.shape == (4, 2)
        assert etas.tobytes() == (2.0 * pre).tobytes()
        assert us.tobytes() == pre[:, 1].tobytes()

    def test_accepts_bare_callable_exosystem(self):
        clock = ClockConfig(0.1, 0.1, "periodic", 0.1, 0)
        etas, us = run_core_process(clock, lambda w: [-v for v in w], np.array([1.0]),
                                    lambda rows: rows, lambda rows: rows[:, 0], horizon=0.35,
                                    dt=1e-3)
        assert len(us) == 3
        assert etas[0, 0] == pytest.approx(np.exp(-0.1), abs=1e-9)


class TestBruteForceCostMinimizer:
    def test_hand_computed_two_samples(self):
        # regressor sigma(eta) = eta (order 1, d = 1); two samples with
        # forgetting mu weights the older one by mu
        reg = PolyRegressor(1, 1)
        mu, omega = 0.5, 0.0
        theta = brute_force_cost_minimizer(np.array([[1.0], [1.0]]), np.array([2.0, 4.0]), reg,
                                           mu, omega)
        # minimize mu*(2 - th)^2 + (4 - th)^2 => th = (mu*2 + 4) / (mu + 1)
        assert theta[0] == pytest.approx((0.5 * 2.0 + 4.0) / 1.5)

    def test_regularization_shrinks(self):
        reg = PolyRegressor(1, 1)
        etas, us = np.array([[1.0]]), np.array([2.0])
        th0 = brute_force_cost_minimizer(etas, us, reg, 1.0, 0.0)[0]
        th1 = brute_force_cost_minimizer(etas, us, reg, 1.0, 1.0)[0]
        assert th0 == pytest.approx(2.0)
        assert th1 == pytest.approx(1.0)  # (1 + 1)^{-1} * 2

    def test_matches_the_per_sample_sum(self):
        # the one-product Gram against the sum of weighted outer products,
        # newest sample weighted 1, at a tolerance set by float64 rounding
        reg = PolyRegressor(3, 3)
        rng = np.random.default_rng(2)
        etas, us = rng.uniform(-1.0, 1.0, size=(40, 3)), rng.standard_normal(40)
        mu, omega = 0.9, 1e-3
        gram, rhs = omega * np.eye(reg.d_sigma), np.zeros(reg.d_sigma)
        for i, (eta, u) in enumerate(zip(etas, us)):
            sig = reg(eta)
            gram += mu ** (39 - i) * np.outer(sig, sig)
            rhs += mu ** (39 - i) * sig * u
        want = np.linalg.solve(gram, rhs)
        theta = brute_force_cost_minimizer(etas, us, reg, mu, omega)
        assert np.linalg.norm(theta - want) <= 1e-10 * (1.0 + np.linalg.norm(want))

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfigError):
            brute_force_cost_minimizer(np.zeros((0, 1)), np.zeros(0), PolyRegressor(1, 1),
                                       0.9, 0.0)


class TestVerifyIdentifierRequirement:
    @staticmethod
    def _samples_for(reg, horizon):
        theta_true = np.linspace(0.5, -0.5, reg.d_sigma)
        return _harmonic_samples(lambda rows: rows, lambda rows: reg.batch(rows) @ theta_true,
                                 horizon)

    def test_ls_identifier_passes(self):
        reg = PolyRegressor(2, 3)
        ident = LsIdentifier(reg, mu_f=0.95, omega=1e-3)
        report = verify_identifier_requirement(ident, *self._samples_for(reg, 5.0))
        assert report["optimality"] and report["stability"] and report["regularity"]
        assert report["optimality_worst_dev"] <= 1e-8
        assert report["j_star"] == 0

    def test_mini_batch_identifier_passes(self):
        reg = PolyRegressor(2, 3)
        ident = MiniBatchIdentifier(reg, n_window=10, omega=1e-6)
        report = verify_identifier_requirement(ident, *self._samples_for(reg, 5.0))
        assert report["optimality"] and report["stability"] and report["regularity"]
        assert report["j_star"] == 10

    def test_broken_identifier_fails_optimality(self):
        reg = PolyRegressor(2, 1)

        class Broken(LsIdentifier):
            def jump(self, eta_in, u_out):
                super().jump(eta_in, u_out)
                self.theta = self.theta + 0.1  # systematic bias

        ident = Broken(reg, mu_f=0.95, omega=1e-3)
        report = verify_identifier_requirement(ident, *self._samples_for(reg, 2.0))
        assert not report["optimality"]

    def test_blended_mini_batch_fails_stability(self):
        # theta <- (theta_old + theta_solve) / 2 halves a perturbation of theta
        # at each jump instead of forgetting it once the window is replaced
        reg = PolyRegressor(2, 1)

        class Blended(MiniBatchIdentifier):
            def jump(self, eta_in, u_out):
                old = self.theta
                super().jump(eta_in, u_out)
                self.theta = 0.5 * old + 0.5 * self.theta

        ident = Blended(reg, n_window=10, omega=1e-6)
        report = verify_identifier_requirement(ident, *self._samples_for(reg, 5.0))
        assert not report["stability"]

    def test_format_report(self):
        report = {"optimality": True, "stability": False, "regularity": True,
                  "optimality_worst_dev": 1.2e-9}
        text = format_report(report)
        assert "optimality: PASS" in text
        assert "stability: FAIL" in text
        assert "optimality_worst_dev: 1.2e-09" in text
