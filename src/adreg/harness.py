"""Core-process data generation, identifier-requirement verification, and the
brute-force cost oracle used by the acceptance tests.

The samples an identifier takes are two arrays: eta rows, one per jump, and
the float u of each. The maps tau and u* are existential in general, so the
harness accepts user-supplied row maps; the closed-loop simulator never
needs them. Their sole role is posing a well-defined optimization problem
for testing.
"""

import copy

import numpy as np

from .errors import InvalidConfigError
from .hybrid import simulate
from .numerics import pseudoinverse

# draws per randomized check, their generator's seed, and the optimality
# tolerance on |theta - theta*| / (1 + |theta*|)
TRIALS, SEED, OPTIMALITY_TOL = 5, 0, 1e-8


def run_core_process(clock, exo, w0, tau_rows, ustar_rows, horizon, dt):
    """The ideal samples at the jumps of ``clock`` over the exosystem flow
    ``exo`` from ``w0``, integrated at step dt: the arc's pre-jump rows of w,
    mapped by ``tau_rows`` to eta rows (n, d_eta) and by ``ustar_rows`` to
    the floats u* (n,)."""
    arc = simulate(exo, lambda t, j, w: w, w0, clock, horizon, dt)
    w_rows = arc.states[np.flatnonzero(np.diff(arc.j))]
    return np.asarray(tau_rows(w_rows), dtype=float), np.asarray(ustar_rows(w_rows), dtype=float)


def brute_force_cost_minimizer(etas, us, regressor, mu_f, omega):
    """Direct minimizer of the forgetting-weighted least-squares cost, with
    Omega = omega I, over the samples (etas[i], us[i]), the last one newest.

    Builds the weighted normal equations from the raw samples on every call,
    as one product over the regressor rows S = sigma(etas) with the weights
    mu_f^(j-1-i), and solves with the pseudoinverse; intentionally
    independent of both identifiers' updates, which it is used to check.
    """
    if len(etas) == 0:
        raise InvalidConfigError("need at least one sample")
    rows = regressor.batch(etas)
    weights = float(mu_f) ** np.arange(len(rows) - 1, -1, -1)
    gram = rows.T @ (weights[:, None] * rows)
    gram += float(omega) * np.eye(regressor.d_sigma)
    return pseudoinverse(gram) @ (rows.T @ (weights * us))


def verify_identifier_requirement(identifier, etas, us):
    """Empirical check of the optimality / stability / regularity triple on
    the samples (etas[i], us[i]), eta rows and floats such as
    ``run_core_process``'s, of at least one sample and at least the
    identifier's ``n_window`` (``cli.cmd_check_identifier`` checks that it
    is). 1 + 4 TRIALS identifiers walk them (21 at TRIALS = 5): one for
    optimality, where the oracle solves at every jump from j* on, and a pair
    for each of the TRIALS contraction and ISS-gain draws.

    Works for any identifier exposing ``regressor``, ``theta``, ``mu_f``,
    ``n_window``, ``omega``, ``jump``, ``perturbed`` and ``gap``, whose
    shallow copy (``copy.copy``) is an independent clone. Returns a report
    dict with three booleans plus supporting numbers. The internal gain
    estimates are empirical stand-ins for the existential gain functions, not
    asserted bounds.
    """
    rng = np.random.default_rng(SEED)
    report = {"optimality": True, "stability": True, "regularity": True}
    reg = identifier.regressor

    # --- optimality: theta(j) vs the brute-force minimizer of the same cost,
    # from j* on; a window of n_window samples is full from j* = n_window
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

    # --- stability: on identical streams the state gap contracts at the
    # forgetting rate and vanishes once a window has been replaced; plus an
    # empirical ISS gain under bounded input disturbances
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

    # --- regularity: the model Jacobian theta . d sigma/d eta vs central
    # finite differences of theta . sigma
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


def format_report(report):
    """Serialize a verification report as structured text."""
    lines = []
    for key in ("optimality", "stability", "regularity"):
        lines.append(f"{key}: {'PASS' if report[key] else 'FAIL'}")
    for key, val in report.items():
        if key not in ("optimality", "stability", "regularity"):
            lines.append(f"{key}: {val}")
    return "\n".join(lines)
