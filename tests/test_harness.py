"""Harness tests: ideal data generation and the identifier-requirement
verification report."""

import numpy as np
import pytest

from adreg.errors import InvalidConfigError
from adreg.harness import (
    CoreProcessRun,
    brute_force_cost_minimizer,
    format_report,
    run_core_process,
    verify_identifier_requirement,
)
from adreg.hybrid import ClockConfig
from adreg.identifier import LsIdentifier, MiniBatchIdentifier, PolyRegressor


def _harmonic_run(tau_eval, ustar_eval, w0=(1.0, 0.0), period=0.1):
    clock = ClockConfig(t_low=period, t_high=period)
    return CoreProcessRun(
        clock=clock, exo=lambda w: np.array([w[1], -w[0]]), w0=np.array(w0), tau_eval=tau_eval,
        ustar_eval=ustar_eval,
    )


class TestRunCoreProcess:
    def test_sample_count_and_jump_indices(self):
        run = _harmonic_run(lambda w: w, lambda w: w[:1])
        samples = run_core_process(run, horizon=1.0, dt=1e-3)
        assert len(samples) == 10
        assert [s[0] for s in samples] == list(range(10))

    def test_samples_follow_the_flow(self):
        run = _harmonic_run(lambda w: w, lambda w: w[:1], w0=(1.0, 0.0))
        samples = run_core_process(run, horizon=0.5, dt=1e-4)
        # harmonic oscillator: w(t) = (cos t, -sin t)
        for j, win, wout in samples:
            t = 0.1 * (j + 1)
            assert np.allclose(win, [np.cos(t), -np.sin(t)], atol=1e-9)
            assert wout[0] == pytest.approx(np.cos(t), abs=1e-9)

    def test_accepts_bare_callable_exosystem(self):
        clock = ClockConfig(t_low=0.1, t_high=0.1)
        run = CoreProcessRun(
            clock=clock, exo=lambda w: [-v for v in w], w0=np.array([1.0]),
            tau_eval=lambda w: w, ustar_eval=lambda w: w,
        )
        samples = run_core_process(run, horizon=0.35, dt=1e-3)
        assert len(samples) == 3
        assert samples[0][1][0] == pytest.approx(np.exp(-0.1), abs=1e-9)

    def test_disturbance_is_added(self):
        run = _harmonic_run(lambda w: w, lambda w: w[:1])
        clean = run_core_process(run, horizon=0.3)
        noisy = run_core_process(
            run, horizon=0.3,
            disturbance=(lambda j: np.array([j, 0.0]), lambda j: np.array([10.0])),
        )
        for (j, win_c, wout_c), (_, win_n, wout_n) in zip(clean, noisy):
            assert np.allclose(win_n - win_c, [j, 0.0])
            assert wout_n[0] - wout_c[0] == pytest.approx(10.0)


class TestBruteForceCostMinimizer:
    def test_hand_computed_two_samples(self):
        # regressor sigma(eta) = eta (order 1, d = 1); two samples with
        # forgetting mu weights the older one by mu
        reg = PolyRegressor(1, 1)
        mu, omega = 0.5, 0.0
        samples = [(0, np.array([1.0]), np.array([2.0])),
                   (1, np.array([1.0]), np.array([4.0]))]
        theta = brute_force_cost_minimizer(samples, reg, mu, omega)
        # minimize mu*(2 - th)^2 + (4 - th)^2 => th = (mu*2 + 4) / (mu + 1)
        assert theta[0] == pytest.approx((0.5 * 2.0 + 4.0) / 1.5)

    def test_regularization_shrinks(self):
        reg = PolyRegressor(1, 1)
        samples = [(0, np.array([1.0]), np.array([2.0]))]
        th0 = brute_force_cost_minimizer(samples, reg, 1.0, 0.0)[0]
        th1 = brute_force_cost_minimizer(samples, reg, 1.0, 1.0)[0]
        assert th0 == pytest.approx(2.0)
        assert th1 == pytest.approx(1.0)  # (1 + 1)^{-1} * 2

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfigError):
            brute_force_cost_minimizer([], PolyRegressor(1, 1), 0.9, 0.0)


class TestVerifyIdentifierRequirement:
    @staticmethod
    def _run_for(reg):
        theta_true = np.linspace(0.5, -0.5, reg.d_sigma)
        tau = lambda w: np.array([w[0], w[1]])
        ustar = lambda w: np.array([float(theta_true @ reg(tau(w)))])
        return _harmonic_run(tau, ustar)

    def test_ls_identifier_passes(self):
        reg = PolyRegressor(2, 3)
        ident = LsIdentifier(reg, mu_f=0.95, omega=1e-3)
        report = verify_identifier_requirement(ident, self._run_for(reg), horizon=5.0)
        assert report["optimality"] and report["stability"] and report["regularity"]
        assert report["optimality_worst_dev"] <= 1e-8
        assert report["j_star"] == 0

    def test_mini_batch_identifier_passes(self):
        reg = PolyRegressor(2, 3)
        ident = MiniBatchIdentifier(reg, n_window=10, omega=1e-6)
        report = verify_identifier_requirement(ident, self._run_for(reg), horizon=5.0)
        assert report["optimality"] and report["stability"] and report["regularity"]
        assert report["j_star"] == 10

    def test_broken_identifier_fails_optimality(self):
        reg = PolyRegressor(2, 1)

        class Broken(LsIdentifier):
            def jump(self, eta_in, u_out):
                super().jump(eta_in, u_out)
                self.theta = self.theta + 0.1  # systematic bias

        ident = Broken(reg, mu_f=0.95, omega=1e-3)
        report = verify_identifier_requirement(ident, self._run_for(reg), horizon=2.0)
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
        report = verify_identifier_requirement(ident, self._run_for(reg), horizon=5.0)
        assert not report["stability"]

    def test_format_report(self):
        report = {"optimality": True, "stability": False, "regularity": True,
                  "optimality_worst_dev": 1.2e-9}
        text = format_report(report)
        assert "optimality: PASS" in text
        assert "stability: FAIL" in text
        assert "optimality_worst_dev: 1.2e-09" in text
