"""Core-process data generation, identifier-requirement verification, and the
brute-force cost oracle used by the acceptance tests.

The maps tau and u* are existential in general, so the harness accepts
user-supplied evaluators; the closed-loop simulator never needs them. Their
sole role is posing a well-defined optimization problem for testing.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidConfigError
from .hybrid import ClockConfig, simulate
from .numerics import DEFAULT_CUTOFF_REL, pseudoinverse


@dataclass
class CoreProcessRun:
    """Exosystem plus clock emitting the ideal data pairs (tau(w), u*(w))."""

    clock: ClockConfig
    exo: Callable  # s(w), the exosystem's flow
    w0: np.ndarray
    tau_eval: Callable  # w -> R^{d_eta}
    ustar_eval: Callable  # w -> R^1


def run_core_process(run, horizon, dt=1e-3, disturbance=None):
    """Samples (j, win, wout) at the clock's jump instants.

    ``disturbance``, when given, is a pair of callables (d_in(j), d_out(j))
    added to the emitted pairs.
    """
    samples = []

    def jump(t, j, w):
        win = np.atleast_1d(run.tau_eval(w)).astype(float)
        wout = np.atleast_1d(run.ustar_eval(w)).astype(float)
        if disturbance is not None:
            d_in, d_out = disturbance
            win = win + np.atleast_1d(d_in(j))
            wout = wout + np.atleast_1d(d_out(j))
        samples.append((j, win, wout))
        return w

    simulate(run.exo, jump, run.w0, run.clock, horizon, dt)
    return samples


def brute_force_cost_minimizer(samples, regressor, mu_f, omega,
                               cutoff_rel=DEFAULT_CUTOFF_REL):
    """Direct minimizer of the forgetting-weighted least-squares cost.

    Rebuilds the weighted normal equations from the raw samples on every call
    and solves with the pseudoinverse; intentionally independent of the
    recursive update it is used to check.
    """
    if not samples:
        raise InvalidConfigError("need at least one sample")
    omega = np.asarray(omega, dtype=float)
    if omega.ndim == 0:
        omega = float(omega) * np.eye(regressor.d_sigma)
    j = len(samples)
    gram = omega.copy()
    rhs = np.zeros(regressor.d_sigma)
    for i, (_, win, wout) in enumerate(samples):
        sig = regressor(win)
        gram += mu_f ** (j - i - 1) * np.outer(sig, sig)
        rhs += mu_f ** (j - i - 1) * sig * float(np.atleast_1d(wout)[0])
    return pseudoinverse(gram, cutoff_rel) @ rhs


def verify_identifier_requirement(identifier, run, horizon=10.0, trials=5, seed=0,
                                  tol=1e-8):
    """Empirical check of the optimality / stability / regularity triple.

    Works for any identifier exposing ``regressor``, ``theta``, ``mu_f``,
    ``n_window``, ``omega``, ``cutoff_rel``, ``jump``, ``clone``,
    ``perturbed`` and ``gap``. Returns a report dict with three booleans plus
    supporting numbers. The internal gain estimates are empirical stand-ins
    for the existential gain functions, not asserted bounds.
    """
    rng = np.random.default_rng(seed)
    report = {"optimality": True, "stability": True, "regularity": True}

    samples = run_core_process(run, horizon)
    if not samples:
        raise InvalidConfigError("core process produced no samples")
    reg = identifier.regressor

    # --- optimality: theta(j) vs the brute-force minimizer of the same cost,
    # from j* on; a window of n_window samples is full from j* = n_window
    j_star = identifier.n_window or 0
    ident = identifier.clone()
    worst = 0.0
    for j, (_, win, wout) in enumerate(samples, start=1):
        ident.jump(win, wout)
        if j >= j_star:
            window = samples[j - j_star:j] if j_star else samples[:j]
            th_star = brute_force_cost_minimizer(window, reg, identifier.mu_f,
                                                 identifier.omega, identifier.cutoff_rel)
            dev = np.linalg.norm(ident.theta - th_star) / (1.0 + np.linalg.norm(th_star))
            worst = max(worst, dev)
    report["optimality"] = worst <= tol
    report["optimality_worst_dev"] = worst
    report["j_star"] = j_star

    # --- stability: on identical streams the state gap contracts at the
    # forgetting rate and vanishes once a window has been replaced; plus an
    # empirical ISS gain under bounded input disturbances
    contraction_ok = True
    for _ in range(trials):
        a = identifier.clone()
        b = identifier.perturbed(rng)
        gap0 = b.gap(a)
        for j, (_, win, wout) in enumerate(samples, start=1):
            a.jump(win, wout)
            b.jump(win, wout)
            gap = b.gap(a)
            if gap > identifier.mu_f ** j * gap0 * (1.0 + 1e-9) + 1e-12:
                contraction_ok = False
            if 0 < j_star <= j and gap > 1e-10:
                contraction_ok = False
    report["stability"] = contraction_ok

    gains = []
    for _ in range(trials):
        amp = 0.1
        d_in = rng.uniform(-amp, amp, size=(len(samples), samples[0][1].size))
        d_out = rng.uniform(-amp, amp, size=(len(samples), samples[0][2].size))
        a = identifier.clone()
        b = identifier.clone()
        dev = 0.0
        for i, (_, win, wout) in enumerate(samples):
            a.jump(win, wout)
            b.jump(win + d_in[i], wout + d_out[i])
            dev = max(dev, b.gap(a))
        gains.append(dev / amp)
    report["iss_gain_estimate"] = float(max(gains))
    if not np.isfinite(report["iss_gain_estimate"]):
        report["stability"] = False

    # --- regularity: the model Jacobian theta . d sigma/d eta vs central
    # finite differences of theta . sigma
    jac_ok = True
    h = 1e-6
    for _ in range(trials):
        theta = rng.standard_normal(reg.d_sigma)
        eta = rng.uniform(-1.0, 1.0, size=samples[0][1].size)
        jac = theta @ reg.jacobian(eta)
        fd = np.array([theta @ reg(eta + e) - theta @ reg(eta - e)
                       for e in h * np.eye(eta.size)]) / (2 * h)
        if np.abs(jac - fd).max() / (1.0 + np.abs(fd).max()) > 1e-5:
            jac_ok = False
    report["regularity"] = jac_ok
    return report


def format_report(report):
    """Serialize a verification report as structured text."""
    lines = []
    for key in ("optimality", "stability", "regularity"):
        lines.append(f"{key}: {'PASS' if report[key] else 'FAIL'}")
    for key, val in report.items():
        if key not in ("optimality", "stability", "regularity"):
            lines.append(f"{key}: {val}")
    return "\n".join(lines)
