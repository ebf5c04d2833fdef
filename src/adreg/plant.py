"""The normal-form plant spec, the chain-of-integrators matrices, and the Van der
Pol scenario.

The tracked reference is the triangular-wave output of a harmonic exosystem,

    p1*(w) = 2 sqrt(w1^2 + w2^2) * arcsin(w1 / sqrt(w1^2 + w2^2)),

which is non-smooth where w2 = 0 (the wave peaks). Lie derivatives there are
evaluated by one-sided limits; the closed-loop field only needs them along
trajectories, which cross a peak on a measure-zero set.

Note: the exosystem conserves the quadratic form V(w) = (rho*w1^2 + w2^2)/2
(the linear combination rho*w1/2 + w2/2 sometimes quoted for this wave
generator is not constant along the flow; the quadratic form is what the
tests assert).
"""

from dataclasses import dataclass, field
from math import asin, hypot

import numpy as np

from .errors import BranchPointError, InvalidConfigError
from .numerics import _check_finite

BRANCH_TOL = 1e-9


@dataclass
class PlantSpec:
    """Normal-form plant: a chain of two integrators with one output, driven
    by q + u (the input gain b is 1), and the harmonic exosystem
    w' = s(w) = (w2, -rho w1) that forces it.

    ``extras`` carries the scenario's evaluators: "fast_q" (q(w1, w2, x1, x2)
    on scalars, which the closed-loop field calls), the ideal feedforward
    "ustar" and its row-wise form "ustar_rows", and the reference p1*(w) and
    its slope as "reference" and "reference_slope".
    """

    rho: float
    extras: dict = field(default_factory=dict)

    def eval_s(self, w):
        """s(w), the exosystem's flow, as a list of floats."""
        return [w[1], -self.rho * w[0]]


def build_chain_matrices(r, d_y):
    """(A, B, C) of a chain of r integrators of dimension d_y."""
    if r < 1 or d_y < 1:
        raise InvalidConfigError("r and d_y must be at least 1")
    dx = r * d_y
    a = np.zeros((dx, dx))
    if r > 1:
        a[: (r - 1) * d_y, d_y:] = np.eye((r - 1) * d_y)
    b = np.zeros((dx, d_y))
    b[(r - 1) * d_y :, :] = np.eye(d_y)
    c = np.zeros((d_y, dx))
    c[:, :d_y] = np.eye(d_y)
    return a, b, c


def p1star_and_lie(w1, w2, rho, sgn):
    """(p1*, L_s p1*, L_s^2 p1*) at the scalar point w = (w1, w2), with the
    Lie derivatives along s(w) = (w2, -rho*w1).

    ``sgn`` is the value taken for sign(w2); it selects the one-sided limit
    at the peaks w2 = 0. All three are 0 at the removable singularity w = 0.
    Hand-derived from the p1* formula; the test suite cross-checks against
    central finite differences.
    """
    rad = hypot(w1, w2)
    if rad == 0.0:
        return 0.0, 0.0, 0.0
    arg = w1 / rad
    phi = asin(1.0 if arg > 1.0 else (-1.0 if arg < -1.0 else arg))
    one_minus_rho = 1.0 - rho
    l1 = (2.0 * one_minus_rho * w1 * w2 * phi
          + 2.0 * sgn * (w2 * w2 + rho * w1 * w1)) / rad
    l2 = 2.0 * one_minus_rho * phi * (
        (w2 * w2 - rho * w1 * w1) / rad
        - one_minus_rho * w1 * w1 * w2 * w2 / rad**3
    )
    return 2.0 * rad * phi, l1, l2


def triangular_output(w):
    """Triangular-wave reference p1*(w); 0 at the removable singularity w=0."""
    w = _check_finite(w, "w").ravel()
    # p1* does not depend on rho or on the sign convention
    return p1star_and_lie(float(w[0]), float(w[1]), 1.0, 1.0)[0]


def lie_derivatives_p1star(w, rho, branch_side=None):
    """(L_s p1*, L_s^2 p1*) at w for the exosystem with squared frequency rho.

    Raises BranchPointError within tolerance of the non-smooth set w2 = 0
    unless ``branch_side`` (+1 or -1) selects a one-sided limit.
    """
    w = _check_finite(w, "w").ravel()
    w1, w2 = float(w[0]), float(w[1])
    rad = hypot(w1, w2)
    if rad == 0.0:
        raise BranchPointError("Lie derivatives undefined at w = 0")
    if abs(w2) / rad <= BRANCH_TOL:
        if branch_side is None:
            raise BranchPointError(
                f"w2/|w| = {w2 / rad:.3e} is within the branch-point tolerance"
            )
        sgn = float(np.sign(branch_side))
    else:
        sgn = 1.0 if w2 > 0.0 else -1.0
    _, l1, l2 = p1star_and_lie(w1, w2, rho, sgn)
    return l1, l2


def vdp_ustar_rows(w_rows, a, rho):
    """Ideal feedforward u*(w) evaluated rowwise (n, 2) -> (n,), with the
    one-sided convention sign(0) = +1."""

    def ustar(w1, w2):
        p1, l1, l2 = p1star_and_lie(w1, w2, rho, 1.0 if w2 >= 0.0 else -1.0)
        return p1 + l2 - a * (1.0 - p1 * p1) * l1

    w1, w2 = np.asarray(w_rows, dtype=float).T.tolist()
    return np.fromiter(map(ustar, w1, w2), dtype=float, count=len(w1))


def build_vdp_scenario(a, rho):
    """PlantSpec for the forced Van der Pol tracking problem in error form.

    Error coordinates x = (p1 - p1*(w), p2 - L_s p1*(w)) give a chain of two
    integrators with b = 1 and

        q(w, x) = -x1 - p1*(w) - L_s^2 p1* + a (1 - (x1 + p1*)^2)(x2 + L_s p1*).

    extras: "fast_q" (q on scalars, with the one-sided sign(0) = +1
    convention), "ustar" (ideal feedforward), "ustar_rows" (row-wise),
    "reference" and "reference_slope". No zero dynamics.
    """
    if a <= 0.0 or rho <= 0.0:
        raise InvalidConfigError("require a > 0 and rho > 0")

    def fast_q(w1, w2, x1, x2):
        p1, l1, l2 = p1star_and_lie(w1, w2, rho, 1.0 if w2 >= 0.0 else -1.0)
        return -x1 - p1 - l2 + a * (1.0 - (x1 + p1) ** 2) * (x2 + l1)

    return PlantSpec(
        rho=rho,
        extras={
            "ustar": lambda w: vdp_ustar_rows(np.reshape(w, (1, 2)), a, rho),
            "ustar_rows": lambda rows: vdp_ustar_rows(rows, a, rho),
            "fast_q": fast_q,
            "reference": triangular_output,
            "reference_slope": lambda w: lie_derivatives_p1star(w, rho, branch_side=+1)[0],
        },
    )
