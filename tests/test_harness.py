"""Harness tests: ideal data generation and the identifier-requirement
verification report."""

import copy

import numpy as np
import pytest

from adreg.errors import InvalidConfigError
from adreg.harness import (
    OPTIMALITY_TOL,
    SEED,
    TRIALS,
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


class Broken(LsIdentifier):
    def jump(self, eta_in, u_out):
        super().jump(eta_in, u_out)
        self.theta = self.theta + 0.1  # systematic bias


class Blended(MiniBatchIdentifier):
    """theta <- (theta_old + theta_solve) / 2 halves a perturbation of theta
    at each jump instead of forgetting it once the window is replaced."""

    def jump(self, eta_in, u_out):
        old = self.theta
        super().jump(eta_in, u_out)
        self.theta = 0.5 * old + 0.5 * self.theta


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
        ident = Broken(reg, mu_f=0.95, omega=1e-3)
        report = verify_identifier_requirement(ident, *self._samples_for(reg, 2.0))
        assert not report["optimality"]

    def test_blended_mini_batch_fails_stability(self):
        reg = PolyRegressor(2, 1)
        ident = Blended(reg, n_window=10, omega=1e-6)
        report = verify_identifier_requirement(ident, *self._samples_for(reg, 5.0))
        assert not report["stability"]

    def test_one_walk_of_eleven_identifiers(self):
        # a clean clone, TRIALS perturbed and TRIALS disturbed clones, each
        # advanced once per sample; only the clean one, whose theta the oracle
        # reads, jumps and so solves
        reg = PolyRegressor(2, 3)
        calls = {"jump": 0, "advance": 0}

        class Counted(LsIdentifier):
            def jump(self, eta_in, u_out):
                calls["jump"] += 1
                super().jump(eta_in, u_out)

            def advance(self, eta_in, u_out):
                calls["advance"] += 1
                super().advance(eta_in, u_out)

        etas, us = self._samples_for(reg, 2.0)
        verify_identifier_requirement(Counted(reg, mu_f=0.95, omega=1e-3), etas, us)
        assert calls == {"jump": len(us), "advance": (1 + 2 * TRIALS) * len(us)}

    @pytest.mark.parametrize("case", ["ls-N3", "mini-batch-Nw10", "broken", "blended"])
    def test_report_equals_the_three_walks(self, case):
        # the one walk's report, PASS or FAIL, equals that of separate walks
        # for optimality, contraction and ISS gain, each with its own clean clone
        reg = PolyRegressor(2, 1 if case in ("broken", "blended") else 3)
        ident = {"ls-N3": lambda: LsIdentifier(reg, mu_f=0.95, omega=1e-3),
                 "mini-batch-Nw10": lambda: MiniBatchIdentifier(reg, n_window=10, omega=1e-6),
                 "broken": lambda: Broken(reg, mu_f=0.95, omega=1e-3),
                 "blended": lambda: Blended(reg, n_window=10, omega=1e-6)}[case]
        etas, us = self._samples_for(reg, 5.0)
        report, want = (check(ident(), etas, us)
                        for check in (verify_identifier_requirement, _three_walks))
        assert report == want
        assert list(report) == list(want)  # the key order format_report prints
        # both wrong identifiers miss the oracle's theta; the blend also fails to contract
        assert report["optimality"] == (case not in ("broken", "blended"))
        assert report["stability"] == (case != "blended")

    def test_format_report(self):
        report = {"optimality": True, "stability": False, "regularity": True,
                  "optimality_worst_dev": 1.2e-9}
        text = format_report(report)
        assert "optimality: PASS" in text
        assert "stability: FAIL" in text
        assert "optimality_worst_dev: 1.2e-09" in text


def _three_walks(identifier, etas, us):
    """The requirement check as separate walks: one for optimality, then a
    clean and a perturbed clone per contraction trial, then a clean and a
    disturbed clone per ISS trial (1 + 4 TRIALS identifiers), drawing from
    the generator in the same order."""
    rng = np.random.default_rng(SEED)
    report = {"optimality": True, "stability": True, "regularity": True}
    reg = identifier.regressor
    j_star = identifier.n_window or 0
    ident = copy.copy(identifier)
    worst = 0.0
    for j, (win, wout) in enumerate(zip(etas, us), start=1):
        ident.jump(win, wout)
        if j >= j_star:
            first = j - j_star if j_star else 0
            th_star = brute_force_cost_minimizer(etas[first:j], us[first:j], reg,
                                                 identifier.mu_f, identifier.omega)
            dev = np.linalg.norm(ident.theta - th_star) / (1.0 + np.linalg.norm(th_star))
            worst = max(worst, dev)
    report["optimality"] = worst <= OPTIMALITY_TOL
    report["optimality_worst_dev"] = worst
    report["j_star"] = j_star
    contraction_ok = True
    for _ in range(TRIALS):
        a = copy.copy(identifier)
        b = identifier.perturbed(rng)
        gap0 = b.gap(a)
        for j, (win, wout) in enumerate(zip(etas, us), start=1):
            a.jump(win, wout)
            b.jump(win, wout)
            gap = b.gap(a)
            if gap > identifier.mu_f ** j * gap0 * (1.0 + 1e-9) + 1e-12:
                contraction_ok = False
            if 0 < j_star <= j and gap > 1e-10:
                contraction_ok = False
    report["stability"] = contraction_ok
    gains = []
    for _ in range(TRIALS):
        amp = 0.1
        d_in = rng.uniform(-amp, amp, size=etas.shape)
        d_out = rng.uniform(-amp, amp, size=len(us))
        a, b = copy.copy(identifier), copy.copy(identifier)
        dev = 0.0
        for i, (win, wout) in enumerate(zip(etas, us)):
            a.jump(win, wout)
            b.jump(win + d_in[i], wout + d_out[i])
            dev = max(dev, b.gap(a))
        gains.append(dev / amp)
    report["iss_gain_estimate"] = float(max(gains))
    if not np.isfinite(report["iss_gain_estimate"]):
        report["stability"] = False
    jac_ok = True
    h = 1e-6
    for _ in range(TRIALS):
        theta = rng.standard_normal(reg.d_sigma)
        eta = rng.uniform(-1.0, 1.0, size=etas.shape[1])
        jac = theta @ reg.jacobian(eta)
        fd = np.array([theta @ reg(eta + e) - theta @ reg(eta - e)
                       for e in h * np.eye(eta.size)]) / (2 * h)
        if np.abs(jac - fd).max() / (1.0 + np.abs(fd).max()) > 1e-5:
            jac_ok = False
    report["regularity"] = jac_ok
    return report
