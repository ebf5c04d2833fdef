"""The normal-form plants: the forced Van der Pol plant and the
synthetic-linear plant.

Each plant gives what the regulator needs: q as source lines, which the
closed-loop field compiles inline, the ideal feedforward u*, and the
reference p1* with its slope L_s p1*, from which the initial error
coordinates are formed. The Van der Pol plant's q, its u* and its reference
share one kernel text, REFERENCE_KERNEL.

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

from math import asin, hypot

import numpy as np

from .errors import InvalidConfigError


def float_literal(x):
    """Python source of the float x, exact (``repr``); a negative one in
    parentheses. An infinite x is written as the name inf, which code
    compiled from it must define."""
    r = repr(float(x))
    return f"({r})" if r[0] == "-" else r


# The globals a plant's source lines may read.
SOURCE_NAMES = {"hypot": hypot, "asin": asin}


def _compile(header, lines, result):
    """The function ``def header:`` whose body is the source ``lines`` and
    ``return result``, compiled once with the globals SOURCE_NAMES."""
    body = "".join(f"    {line}\n" for line in lines)
    namespace = dict(SOURCE_NAMES)
    exec(compile(f"def {header}:\n{body}    return {result}\n", "<plant>", "exec"), namespace)
    return namespace[header.partition("(")[0]]


# (p1*, L_s p1*, L_s^2 p1*) at the scalar point w = (w1, w2) as the locals
# p1, l1 and l2, with the Lie derivatives along s(w) = (w2, -rho*w1): source
# lines over the locals w1, w2 and sgn, with the fields {rho} and
# {one_minus_rho} for the source of rho and 1 - rho.
# sgn is the value taken for sign(w2); it selects the one-sided limit at the
# peaks w2 = 0. All three are 0 at the removable singularity w = 0.
# Hand-derived from the p1* formula; the test suite cross-checks against
# central finite differences.
REFERENCE_KERNEL = """\
rad = hypot(w1, w2)
if rad == 0.0:
    p1 = l1 = l2 = 0.0
else:
    arg = w1 / rad
    phi = asin(1.0 if arg > 1.0 else (-1.0 if arg < -1.0 else arg))
    p1 = 2.0 * rad * phi
    l1 = (2.0 * {one_minus_rho} * w1 * w2 * phi
          + 2.0 * sgn * (w2 * w2 + {rho} * w1 * w1)) / rad
    l2 = 2.0 * {one_minus_rho} * phi * (
        (w2 * w2 - {rho} * w1 * w1) / rad
        - {one_minus_rho} * w1 * w1 * w2 * w2 / rad**3
    )"""
p1star_and_lie = _compile(
    "p1star_and_lie(w1, w2, rho, sgn)",
    ["one_minus_rho = 1.0 - rho",
     *REFERENCE_KERNEL.format(rho="rho", one_minus_rho="one_minus_rho").splitlines()],
    "p1, l1, l2")
p1star_and_lie.__doc__ = """(p1*, L_s p1*, L_s^2 p1*) at the scalar point
(w1, w2), with sign(w2) taken as ``sgn``: REFERENCE_KERNEL compiled."""


class _Plant:
    """Normal-form plant: a chain of two integrators with one output, driven
    by q + u (the input gain b is 1), and the harmonic exosystem
    w' = s(w) = (w2, -rho w1) that forces it.

    ``q_lines`` are Python source lines that assign q(w, x) to the local q
    from the locals w1, w2, x1 and x2, with the plant's constants as
    literals and the globals SOURCE_NAMES; the closed-loop field compiles
    them inline, and any other local they assign is none of the field's
    (u, p, innov, sh, xh1, xh2, e<i>, d<i>). ``ustar_rows(rows)`` is u* on
    rows of w, ``reference(w)`` is (p1*(w), L_s p1*(w)), and ``theta_star``
    the true parameter where u* lies in the linear model set, else None.
    """

    theta_star = None

    def eval_s(self, w):
        """s(w), the exosystem's flow, as a list of floats."""
        return [w[1], -self.rho * w[0]]


class VdpPlant(_Plant):
    """The forced Van der Pol tracking problem in error form.

    Error coordinates x = (p1 - p1*(w), p2 - L_s p1*(w)) give a chain of two
    integrators with b = 1 and

        q(w, x) = -x1 - p1*(w) - L_s^2 p1* + a (1 - (x1 + p1*)^2)(x2 + L_s p1*).

    No zero dynamics. The reference has no slope at w = 0, where the wave
    has no amplitude: asking for it there is a config error.

    ``extras["fast_q"]`` is ``q_lines`` compiled as q(w1, w2, x1, x2), which
    no run calls: bench/tracer.py wraps it and the tests check it against
    the plant's formula. It goes once the tracer no longer looks it up.
    """

    def __init__(self, a, rho):
        self.a, self.rho = a, rho
        self.q_lines = (
            "sgn = 1.0 if w2 >= 0.0 else -1.0",
            *REFERENCE_KERNEL.format(rho=float_literal(rho),
                                     one_minus_rho=float_literal(1.0 - rho)).splitlines(),
            f"q = -x1 - p1 - l2 + {float_literal(a)} * (1.0 - (x1 + p1) ** 2) * (x2 + l1)")
        self.extras = {"fast_q": _compile("fast_q(w1, w2, x1, x2)", self.q_lines, "q")}

    def ustar_rows(self, rows):
        """Ideal feedforward u*(w) evaluated rowwise (n, 2) -> (n,)."""
        a, rho = self.a, self.rho

        def ustar(w1, w2):
            p1, l1, l2 = p1star_and_lie(w1, w2, rho, 1.0 if w2 >= 0.0 else -1.0)
            return p1 + l2 - a * (1.0 - p1 * p1) * l1

        w1, w2 = np.asarray(rows, dtype=float).T.tolist()
        return np.fromiter(map(ustar, w1, w2), dtype=float, count=len(w1))

    def reference(self, w):
        w1, w2 = float(w[0]), float(w[1])
        if w1 == 0.0 and w2 == 0.0:
            raise InvalidConfigError("the reference has no slope at w = 0")
        return p1star_and_lie(w1, w2, self.rho, 1.0 if w2 >= 0.0 else -1.0)[:2]


class SyntheticLinearPlant(_Plant):
    """Linear benchmark whose true feedforward lies in a linear model set.

    Double integrator tracking the first exosystem coordinate: in error
    coordinates q(w, x) = rho * w1, b = 1, u*(w) = -rho * w1. The steady-state
    internal-model map tau(w) = M w solves the Sylvester equation
    F M - M S = -G c' with S the exosystem matrix and u* = c' w, and the true
    parameter ``theta_star`` is the minimum-norm solution of M' theta = c.

    F and G are a Regulator's. The Sylvester equation is solved in its
    Kronecker form (I_2 (x) F - S' (x) I) vec(M) = vec(-G c'), with
    column-major vec. ``tau_rows(rows)`` is tau on rows of w.
    """

    def __init__(self, rho, f, g):
        s_mat = np.array([[0.0, 1.0], [-rho, 0.0]])
        c = np.array([-rho, 0.0])
        lhs = np.kron(np.eye(2), f) - np.kron(s_mat.T, np.eye(f.shape[0]))
        vec_m = np.linalg.solve(lhs, (-g @ c[None, :]).ravel(order="F"))
        self.M = vec_m.reshape((f.shape[0], 2), order="F")
        self.theta_star, *_ = np.linalg.lstsq(self.M.T, c, rcond=None)
        self.rho = rho
        self.q_lines = (f"q = {float_literal(rho)} * w1",)

    def ustar_rows(self, rows):
        return -self.rho * rows[:, 0]

    def tau_rows(self, rows):
        return rows @ self.M.T

    def reference(self, w):
        return float(w[0]), float(w[1])


# the name scenario._wire builds the VdP plant by, which bench/tracer.py replaces
build_vdp_scenario = VdpPlant
