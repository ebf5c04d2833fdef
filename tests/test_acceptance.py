"""Acceptance criteria 1-8.

Criterion 1 reruns the full oscillator benchmark (horizon 100 s, dt 1e-3)
for the baseline and regressor orders N in {1, 3, 5}; the runs are shared
module-wide because criterion 8 re-checks their stored samples. Expect a few
minutes total for this module.

Oracle labels: [PAPER] values compared against the published claims (the
error-reduction ratios, with the documented slack, and that no high gain is
needed), [DERIVED] values recomputed through independent oracles, [TRIVIAL]
direct consequences of the definitions.
"""

import time

import numpy as np
import pytest

from adreg.harness import brute_force_cost_minimizer
from adreg.identifier import (
    LsIdentifier,
    MiniBatchIdentifier,
    PolyRegressor,
    batch_solver_ls,
    build_poly_regressor,
)
from adreg.numerics import is_controllable, place_poles
from adreg.plant import SyntheticLinearPlant
from adreg.regulator import Regulator
from adreg.scenario import ScenarioConfig, run_scenario, run_sweep

HORIZON = 100.0
DT = 1e-3
M_BAR = 100.0  # stabilizer saturation level
PSI_BAR = 100.0  # consistency-term saturation level
CASES = ("baseline", 1, 3, 5)


def _benchmark_config(case):
    """The published benchmark: a = rho = 2, ell = 20, h = (6, 11, 6),
    M = psi_bar = 100, Omega = 1e-3 I, mu_f = 0.99, T = 0.1 periodic."""
    identifier = {}
    if case != "baseline":
        identifier = {"kind": "ls", "N": case, "mu_f": 0.99, "omega_scale": 1e-3}
    return ScenarioConfig(
        plant={"a": 2.0, "rho": 2.0},
        regulator={"ell": 20.0, "h_coeffs": [6.0, 11.0, 6.0],
                   "sat_level": M_BAR, "psi_bar": PSI_BAR, "d_eta": 6},
        identifier=identifier,
        clock={"t_low": 0.1, "t_high": 0.1},
        sim={"horizon": HORIZON, "dt": DT},
    )


@pytest.fixture(scope="module")
def benchmark_runs():
    runs = {}
    for case in CASES:
        t0 = time.perf_counter()
        res = run_scenario(_benchmark_config(case), states=True)
        runs[case] = (res, time.perf_counter() - t0)
    return runs


class TestCriterion1ErrorReduction:
    """[PAPER] steady-state error-reduction ratios of the oscillator benchmark
    (published claims >15x / >120x / >200x; asserted with the documented
    slack 10x / 80x / 150x)."""

    @pytest.mark.parametrize("case,min_ratio", [(1, 10.0), (3, 80.0), (5, 150.0)])
    def test_error_reduction_ratio(self, benchmark_runs, case, min_ratio):
        e0 = benchmark_runs["baseline"][0].summary["steady_state_max_y"]
        e_case = benchmark_runs[case][0].summary["steady_state_max_y"]
        assert e0 > 0.0
        assert e0 / e_case >= min_ratio

    @pytest.mark.parametrize("case", CASES)
    def test_runtime_target(self, benchmark_runs, case):
        assert benchmark_runs[case][1] < 60.0

    def test_error_decreases_with_model_order(self, benchmark_runs):
        # [PAPER] larger model complexity gives a smaller steady-state error
        errs = [benchmark_runs[c][0].summary["steady_state_max_y"]
                for c in (1, 3, 5)]
        assert errs[0] > errs[1] > errs[2]


class TestNoHighGain:
    """[PAPER] the approach "does not require high-gain stabilization
    actions": at the benchmark's ell = 20, LS with N = 5 regulates tighter
    than the non-adaptive loop at ell = 900, the highest gain whose observer
    pole (-3 ell) an RK4 step of dt = 1e-3 integrates stably (|lambda| dt =
    2.7 <= 2.785)."""

    def test_adaptation_beats_the_highest_stable_gain(self, benchmark_runs):
        high_gain = run_scenario(
            _benchmark_config("baseline").replace_in("regulator", ell=900.0))
        e_gain = high_gain.summary["steady_state_max_y"]
        e_ls = benchmark_runs[5][0].summary["steady_state_max_y"]
        assert e_ls < e_gain


class TestCriterion2OracleEquivalence:
    """[DERIVED] recursive estimates equal the brute-force cost minimizer at
    every jump of the benchmark scenario (>= 50 jumps, runtime < 5 s)."""

    @staticmethod
    def _short_cfg(identifier):
        cfg = _benchmark_config("baseline")
        return ScenarioConfig(
            plant=cfg.plant, regulator=cfg.regulator, clock=cfg.clock,
            identifier=identifier, sim={"horizon": 5.5, "dt": DT},
        )

    def test_ls_matches_oracle_at_every_jump(self, fed_samples):
        t0 = time.perf_counter()
        res = run_scenario(self._short_cfg(
            {"kind": "ls", "N": 1, "mu_f": 0.99, "omega_scale": 1e-3}))
        assert len(fed_samples) >= 50
        etas = np.array([eta for eta, _ in fed_samples])
        us = np.array([u for _, u in fed_samples])
        reg = build_poly_regressor(6, 1)
        omega = 1e-3
        for j in range(1, len(us) + 1):
            oracle = brute_force_cost_minimizer(etas[:j], us[:j], reg, 0.99, omega)
            theta_j = res.thetas[j - 1]
            assert np.linalg.norm(theta_j - oracle) <= 1e-8 * (
                1.0 + np.linalg.norm(oracle)
            )
        # clamps inactive on this data
        for eta, u in fed_samples:
            sig = reg(eta)
            assert np.linalg.norm(np.outer(sig, sig)) < 1e6
            assert np.linalg.norm(sig * u) < 1e6
        assert time.perf_counter() - t0 < 5.0

    def test_mini_batch_matches_oracle_at_every_jump(self, fed_samples):
        t0 = time.perf_counter()
        n_w = 10
        res = run_scenario(self._short_cfg(
            {"kind": "mini-batch", "N": 1, "N_w": n_w, "omega_scale": 1e-3}))
        samples = fed_samples
        assert len(samples) >= 50
        reg = build_poly_regressor(6, 1)
        omega = 1e-3
        for j in range(1, len(samples) + 1):
            theta_j = res.thetas[j - 1]
            if j < n_w:
                assert np.array_equal(theta_j, np.zeros(reg.d_sigma))
                continue
            window = samples[j - n_w:j]
            # independent ridge oracle via the stacked augmented system
            a = np.array([reg(eta) for eta, _ in window])
            b = np.array([u for _, u in window])
            aug_a = np.vstack([a, np.sqrt(omega) * np.eye(reg.d_sigma)])
            aug_b = np.concatenate([b, np.zeros(reg.d_sigma)])
            oracle = np.linalg.lstsq(aug_a, aug_b, rcond=None)[0]
            assert np.linalg.norm(theta_j - oracle) <= 1e-8 * (
                1.0 + np.linalg.norm(oracle)
            )
        assert time.perf_counter() - t0 < 5.0


class TestCriterion3Contraction:
    """[DERIVED] the accumulator gap between two identifier states driven by
    the same stream contracts geometrically at the forgetting rate."""

    def test_xi_gap_contracts_at_forgetting_rate(self):
        t0 = time.perf_counter()
        mu_f = 0.99
        reg = PolyRegressor(3, 1)
        rng = np.random.default_rng(0)
        a = LsIdentifier(reg, mu_f=mu_f, omega=1e-3)
        b = LsIdentifier(reg, mu_f=mu_f, omega=1e-3)
        pert = rng.standard_normal((3, 3))
        pert = 0.5 * (pert + pert.T)
        dxi2 = rng.standard_normal(3)
        b.xi1 = b.xi1 + pert
        b.xi2 = b.xi2 + dxi2
        gap0 = np.sqrt(np.linalg.norm(pert, "fro") ** 2
                       + np.linalg.norm(dxi2) ** 2)
        for j in range(1, 201):
            eta = rng.standard_normal(3)
            u = rng.standard_normal()
            a.jump(eta, u)
            b.jump(eta, u)
            gap = np.sqrt(np.linalg.norm(b.xi1 - a.xi1, "fro") ** 2
                          + np.linalg.norm(b.xi2 - a.xi2) ** 2)
            assert gap <= mu_f**j * gap0 * (1.0 + 1e-12)
        assert time.perf_counter() - t0 < 1.0


class TestCriterion4MiniBatchExactness:
    """[DERIVED] the moving window holds exactly the trailing N_w samples,
    and the unregularized batch solver recovers a planted parameter."""

    @pytest.mark.parametrize("n_w", [3, 10, 50])
    def test_window_is_trailing_samples(self, n_w):
        t0 = time.perf_counter()
        reg = PolyRegressor(2, 1)
        state = MiniBatchIdentifier(reg, n_window=n_w, omega=1e-3)
        rng = np.random.default_rng(1)
        stream = [(rng.normal(size=2), rng.normal()) for _ in range(n_w + 25)]
        for eta, u in stream:
            state.jump(eta, u)
        expected = stream[-n_w:]
        assert len(state.window_rows) == n_w
        for (got_row, got_u), (exp_eta, exp_u) in zip(
            zip(state.window_rows, state.window_out), expected
        ):
            assert np.array_equal(got_row, reg(exp_eta))
            assert got_u == exp_u
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("n_w", [3, 10, 50])
    def test_solver_recovers_planted_theta(self, n_w):
        t0 = time.perf_counter()
        reg = PolyRegressor(2, 1)
        rng = np.random.default_rng(2)
        theta_true = rng.normal(size=2)
        etas = [rng.normal(size=2) for _ in range(n_w)]
        us = [np.atleast_1d(float(theta_true @ reg(e))) for e in etas]
        theta = batch_solver_ls([reg(e) for e in etas], us, 0.0)
        assert np.linalg.norm(theta - theta_true) <= 1e-8
        assert time.perf_counter() - t0 < 1.0


class TestCriterion5AsymptoticRegulation:
    """[DERIVED] when the true feedforward lies in the model set (linear
    exosystem map, linear regressor), regulation and parameter estimation are
    asymptotic up to the regularization bias."""

    def test_synthetic_linear_scenario(self):
        t0 = time.perf_counter()
        cfg = ScenarioConfig(
            plant={"kind": "synthetic-linear", "rho": 2.0},
            regulator={"d_eta": 6},
            identifier={"kind": "ls", "N": 1, "mu_f": 0.95,
                        "omega_scale": 1e-6},
            sim={"horizon": 60.0, "dt": DT},
        )
        res = run_scenario(cfg, states=True)
        assert res.summary["steady_state_max_y"] <= 1e-4
        im = Regulator(**ScenarioConfig().regulator)
        theta_star = SyntheticLinearPlant(2.0, im.F, im.G).theta_star
        theta = np.array(res.summary["final_theta"])
        assert np.linalg.norm(theta - theta_star) <= 1e-2
        # the ideal prediction error is identically ~0 in this model set
        assert np.max(np.abs(res.eps_star)) <= 1e-8
        assert time.perf_counter() - t0 < 30.0


class TestCriterion6PracticalRegulationTrend:
    """[DERIVED] baseline steady-state error is non-increasing in the
    observer gain scale ell (within 5% slack per step)."""

    def test_ell_sweep_monotone(self):
        t0 = time.perf_counter()
        base = _benchmark_config("baseline").replace_in("sim", horizon=60.0)
        rows = run_sweep(base, "ell", [5.0, 10.0, 20.0, 40.0])
        errs = [r["steady_state_max_y"] for r in rows]
        for prev, nxt in zip(errs, errs[1:]):
            assert nxt <= 1.05 * prev
        assert time.perf_counter() - t0 < 120.0


class TestCriterion7StructuralChecks:
    def test_pole_placement_residual(self):
        # [DERIVED] closed-loop eigenvalues match the request to 1e-8
        k = place_poles([-1.0, -2.0])
        a, b = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])  # the chain of two integrators
        eig = np.sort(np.linalg.eigvals(a - b @ k).real)
        assert np.max(np.abs(eig - [-2.0, -1.0])) <= 1e-8

    def test_observer_roots(self):
        # [TRIVIAL] lambda^3 + 6 lambda^2 + 11 lambda + 6 = (l+1)(l+2)(l+3)
        roots = np.sort(np.roots([1.0, 6.0, 11.0, 6.0]).real)
        assert np.max(np.abs(roots - [-3.0, -2.0, -1.0])) <= 1e-10

    def test_default_internal_model_d6(self):
        im = Regulator(**ScenarioConfig().regulator)
        assert np.linalg.eigvals(im.F).real.max() < 0.0
        assert is_controllable(im.F, im.G)

    def test_exosystem_quadratic_invariant(self, benchmark_runs):
        # [DERIVED] V(w) = (rho w1^2 + w2^2)/2 conserved over 100 s
        res = benchmark_runs["baseline"][0]
        w1, w2 = res.states[:, 0], res.states[:, 1]
        v = 0.5 * (2.0 * w1**2 + w2**2)
        assert np.max(np.abs(v - v[0])) / v[0] <= 1e-6


class TestCriterion8BoundednessInvariants:
    """[TRIVIAL] hard saturation invariants on every stored sample of every
    benchmark run."""

    @pytest.mark.parametrize("case", CASES)
    def test_control_bound(self, benchmark_runs, case):
        res = benchmark_runs[case][0]
        # b_bar = 1, so ||u|| <= ||b_bar^{-1}|| * M = M
        assert np.max(np.abs(res.u)) <= M_BAR + 1e-12

    @pytest.mark.parametrize("case", [1, 3, 5])
    def test_consistency_term_bound(self, benchmark_runs, case):
        res = benchmark_runs[case][0]
        reg = build_poly_regressor(6, case)
        im = Regulator(**ScenarioConfig().regulator)
        g_col = im.G.ravel()
        seg = res.j - 1  # per-row index into thetas
        identity_reg = reg.max_order == 1
        eta_rows = res.states[:, 4:10]
        eta_dots = eta_rows @ im.F.T + np.outer(res.u, g_col)
        psi_raw = np.zeros(res.t.size)
        for i in range(res.t.size):
            k = seg[i]
            if k < 0:
                continue  # theta = 0, psi = 0
            theta = res.thetas[k]
            if identity_reg:
                dg = theta
            else:
                dg = theta @ reg.jacobian(eta_rows[i])
            psi_raw[i] = float(dg @ eta_dots[i])
        assert np.all(np.isfinite(psi_raw))
        # the value entering the dynamics is the clamp of psi_raw, so the
        # invariant ||psi|| <= psi_bar holds at every sample; the sharper
        # check is that the clamp is inactive in steady state, i.e. the raw
        # consistency term itself respects the bound on the trailing window
        tail = res.t >= 0.8 * HORIZON
        assert np.max(np.abs(psi_raw[tail])) <= PSI_BAR
