"""The normal-form plants: the plant spec, the forced Van der Pol plant and
the synthetic-linear plant.

Each plant gives the evaluators the regulator needs: q on scalars, the ideal
feedforward u*, and the reference p1* with its slope L_s p1*, from which the
initial error coordinates are formed.

The Van der Pol plant tracks the triangular-wave output of a harmonic
exosystem,

    p1*(w) = 2 sqrt(w1^2 + w2^2) * arcsin(w1 / sqrt(w1^2 + w2^2)),

which is non-smooth where w2 = 0 (the wave peaks). Its Lie derivatives take
sign(w2) as +1 where w2 >= 0 and -1 where w2 < 0, the same one-sided
convention in q, in u* and in the reference; the closed-loop field crosses a
peak on a measure-zero set.

Note: the exosystem conserves the quadratic form V(w) = (rho*w1^2 + w2^2)/2
(the linear combination rho*w1/2 + w2/2 sometimes quoted for this wave
generator is not constant along the flow; the quadratic form is what the
tests assert).
"""

from dataclasses import dataclass, field
from math import asin, hypot

import numpy as np

from .errors import InvalidConfigError


@dataclass
class PlantSpec:
    """Normal-form plant: a chain of two integrators with one output, driven
    by q + u (the input gain b is 1), and the harmonic exosystem
    w' = s(w) = (w2, -rho w1) that forces it.

    ``extras`` carries the plant's evaluators: "fast_q" (q(w1, w2, x1, x2)
    on scalars, which the closed-loop field calls), the ideal feedforward
    row-wise as "ustar_rows", and "reference", w -> (p1*(w), L_s p1*(w)).
    The synthetic-linear plant adds its one-row "ustar" and "tau", "tau_rows"
    and "theta_star".
    """

    rho: float
    extras: dict = field(default_factory=dict)

    def eval_s(self, w):
        """s(w), the exosystem's flow, as a list of floats."""
        return [w[1], -self.rho * w[0]]


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


def vdp_ustar_rows(w_rows, a, rho):
    """Ideal feedforward u*(w) evaluated rowwise (n, 2) -> (n,)."""

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

    No zero dynamics. The reference has no slope at w = 0, where the wave
    has no amplitude: asking for it there is a config error.
    """
    def fast_q(w1, w2, x1, x2):
        p1, l1, l2 = p1star_and_lie(w1, w2, rho, 1.0 if w2 >= 0.0 else -1.0)
        return -x1 - p1 - l2 + a * (1.0 - (x1 + p1) ** 2) * (x2 + l1)

    def reference(w):
        w1, w2 = float(w[0]), float(w[1])
        if w1 == 0.0 and w2 == 0.0:
            raise InvalidConfigError("the reference has no slope at w = 0")
        return p1star_and_lie(w1, w2, rho, 1.0 if w2 >= 0.0 else -1.0)[:2]

    return PlantSpec(
        rho=rho,
        extras={
            "ustar_rows": lambda rows: vdp_ustar_rows(rows, a, rho),
            "fast_q": fast_q,
            "reference": reference,
        },
    )


def build_synthetic_linear_plant(rho, f, g):
    """Linear benchmark whose true feedforward lies in a linear model set.

    Double integrator tracking the first exosystem coordinate: in error
    coordinates q(w, x) = rho * w1, b = 1, u*(w) = -rho * w1. The steady-state
    internal-model map tau(w) = M w solves the Sylvester equation
    F M - M S = -G c' with S the exosystem matrix and u* = c' w, and the true
    parameter is the minimum-norm solution of M' theta = c.

    The Sylvester equation is solved in its Kronecker form
    (I_2 (x) F - S' (x) I) vec(M) = vec(-G c'), with column-major vec.
    """
    s_mat = np.array([[0.0, 1.0], [-rho, 0.0]])
    c = np.array([-rho, 0.0])
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float).reshape(-1, 1)
    lhs = np.kron(np.eye(2), f) - np.kron(s_mat.T, np.eye(f.shape[0]))
    vec_m = np.linalg.solve(lhs, (-g @ c[None, :]).ravel(order="F"))
    m = vec_m.reshape((f.shape[0], 2), order="F")
    theta_star, *_ = np.linalg.lstsq(m.T, c, rcond=None)

    return PlantSpec(
        rho=rho,
        extras={
            # the one-row forms are what check-identifier's core process
            # reads; m @ w and rows @ m.T differ in the last bit
            "ustar": lambda w: np.array([-rho * w[0]]),
            "ustar_rows": lambda rows: -rho * rows[:, 0],
            "fast_q": lambda w1, w2, x1, x2: rho * w1,
            "tau": lambda w: m @ w,
            "tau_rows": lambda rows: rows @ m.T,
            "theta_star": theta_star,
            "reference": lambda w: (float(w[0]), float(w[1])),
        },
    )
