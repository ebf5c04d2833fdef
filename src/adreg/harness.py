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
    is). 1 + 2 TRIALS identifiers walk them once, together (11 at TRIALS =
    5): a clean clone, whose theta the oracle compares at every jump from j*
    on, and TRIALS perturbed and TRIALS disturbed clones, each measured
    against the clean one after each jump. The clean clone jumps; the others
    only ``advance``, the part of a jump that updates the state ``gap``
    reads.

    Works for any identifier exposing ``regressor``, ``theta``, ``mu_f``,
    ``n_window``, ``omega``, ``jump``, ``advance``, ``perturbed`` and
    ``gap``, whose shallow copy (``copy.copy``) is an independent clone.
    Returns a report dict with three booleans plus supporting numbers. The
    internal gain estimates are empirical stand-ins for the existential gain
    functions, not asserted bounds.
    """
    rng = np.random.default_rng(SEED)
    report = {"optimality": True, "stability": True, "regularity": True}
    reg = identifier.regressor

    # --- optimality: the clean clone's theta(j) vs the brute-force minimizer
    # of the same cost, from j* on; a window of n_window samples is full from
    # j* = n_window. --- stability, in the same walk: on the clean stream a
    # perturbed clone's gap to the clean one contracts at the forgetting rate
    # and vanishes once a window has been replaced; plus an empirical ISS gain
    # of clones fed bounded input disturbances
    j_star = identifier.n_window or 0
    clean = copy.copy(identifier)
    perturbed = [identifier.perturbed(rng) for _ in range(TRIALS)]
    gap0 = [b.gap(clean) for b in perturbed]
    amp = 0.1
    disturbed = [(copy.copy(identifier), rng.uniform(-amp, amp, size=etas.shape),
                  rng.uniform(-amp, amp, size=len(us))) for _ in range(TRIALS)]
    devs = [0.0] * TRIALS
    worst, contraction_ok = 0.0, True
    for j, (win, wout) in enumerate(zip(etas, us), start=1):
        clean.jump(win, wout)
        if j >= j_star:
            first = j - j_star if j_star else 0
            th_star = brute_force_cost_minimizer(etas[first:j], us[first:j], reg,
                                                 identifier.mu_f, identifier.omega)
            dev = np.linalg.norm(clean.theta - th_star) / (1.0 + np.linalg.norm(th_star))
            worst = max(worst, dev)
        for b, g0 in zip(perturbed, gap0):
            b.advance(win, wout)
            gap = b.gap(clean)
            if gap > identifier.mu_f ** j * g0 * (1.0 + 1e-9) + 1e-12:
                contraction_ok = False
            if 0 < j_star <= j and gap > 1e-10:
                contraction_ok = False
        for k, (b, d_in, d_out) in enumerate(disturbed):
            b.advance(win + d_in[j - 1], wout + d_out[j - 1])
            devs[k] = max(devs[k], b.gap(clean))
    report["optimality"] = worst <= OPTIMALITY_TOL
    report["optimality_worst_dev"] = worst
    report["j_star"] = j_star
    report["stability"] = contraction_ok
    report["iss_gain_estimate"] = float(max(dev / amp for dev in devs))
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
