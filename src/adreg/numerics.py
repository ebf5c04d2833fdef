"""Small dense linear-algebra and integration kernel.

The pseudoinverse wraps numpy's SVD with a fixed relative cutoff, 1e-12; pole
placement is for the chain of two integrators every plant has, with real
negative poles; a cubic with real roots is solved in closed form; the RK4 step
comes with the step size its stability function allows on a linear pole.
"""

import math
from functools import cache

import numpy as np

from .errors import InvalidInputError

CUTOFF_REL = 1e-12


def pseudoinverse(m):
    """Moore-Penrose pseudoinverse via SVD of a non-empty matrix.

    Singular values below ``CUTOFF_REL`` times the largest one are zeroed.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix contains non-finite entries")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]))
    inv_s = np.where(s > CUTOFF_REL * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    vt *= inv_s[:, None]  # in place: no second array of vt's size
    return vt.T @ u.T


def place_poles(desired):
    """Gain K (1 x 2) of kappa(x) = -K x on the chain of two integrators, so
    that eig(A - B K) = desired, two real negative poles: with
    (s - p1)(s - p2) = s^2 + c1 s + c0, K = [c0, c1]."""
    c1, c0 = np.poly(desired)[1:]
    return np.array([[c0, c1]])


def cubic_roots(h1, h2, h3):
    """The roots of s^3 + h1 s^2 + h2 s + h3, most negative first, for a
    cubic whose roots are real, in closed form on Python floats: the
    trigonometric form of Cardano's formula (Nickalls, Math. Gazette 77,
    1993). With s = t - h1/3 the cubic is t^3 + p t + q, and its roots are
    2 sqrt(-p/3) cos(phi - 2 pi k/3), k = 0, 1, 2, with
    phi = acos(3q / (2p) sqrt(-3/p)) / 3 in [0, pi/3].

    Real roots make p <= 0, and p = 0 only for a triple root: a p >= 0
    gives -h1/3 three times. Rounding can put the arccos argument of a
    repeated root just past +-1, so it is clamped to [-1, 1]. Distinct roots
    agree with ``np.roots`` to about 1e-13 of the largest; np.roots splits a
    repeated root into a complex pair, and enters LAPACK.
    """
    shift = h1 / 3.0
    p = h2 - h1 * shift
    q = (2.0 * shift * shift - h2) * shift + h3
    if p >= 0.0:
        return [-shift] * 3
    m = 2.0 * math.sqrt(-p / 3.0)
    phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
    return [m * math.cos(phi - 2.0 * math.pi * k / 3.0) - shift for k in (2, 1, 0)]


# |R(-x)| <= 1 for 0 <= x <= RK4_REAL_BOUND, the real root of
# R(-x) = 1 past 0, and |R(iy)| <= 1 for |y| <= RK4_IMAG_BOUND = 2 sqrt(2)
# (Hairer & Wanner, Solving ODEs II, IV.2)
RK4_REAL_BOUND = 2.785293563405282
RK4_IMAG_BOUND = 2.8284271247461903


def rk4_stable_step(lam):
    """The largest h > 0 such that an RK4 step of any size in (0, h] is stable
    on y' = lam y, for lam with a negative real part or a purely imaginary
    one: |R(z)| <= 1 along the ray z = h lam, with
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 the step's stability function.

    For a complex lam, |R(h mu)|^2 - 1 is a polynomial in h on the unit
    direction mu = lam/|lam|, with a root at h = 0; its smallest positive
    root over |lam| is h. A real lam takes the closed form, which spares
    every shipped config the complex arithmetic and its pages of memory. An
    imaginary lam takes one too: there |R(h mu)|^2 - 1 = h^8/576 - h^6/72,
    whose h^5 factor over h gives numpy's roots noise roots near 0.
    """
    if lam.imag == 0.0:
        return RK4_REAL_BOUND / abs(lam)
    if lam.real == 0.0:
        return RK4_IMAG_BOUND / abs(lam)
    lam = complex(lam)
    c = (lam / abs(lam)) ** np.arange(5) / [1.0, 1.0, 2.0, 6.0, 24.0]
    p = np.convolve(c, c.conj()).real  # |R(h mu)|^2, ascending powers of h
    roots = np.roots(p[:0:-1])  # of (|R(h mu)|^2 - 1) / h
    real = roots.real[(roots.real > 0.0) & (np.abs(roots.imag) <= 1e-6 * np.abs(roots))]
    return float(real.min()) / abs(lam)


def is_controllable(f, g):
    """True iff the Krylov space of F on range(G) is the whole state space.

    The space is grown by an orthogonalized Krylov (staircase) iteration:
    starting from G, F is applied to the newest block of directions, the
    result is orthogonalized twice against the basis so far, and its
    directions with singular values above ``CUTOFF_REL`` times ||[F G]||_2
    join the basis. The rank of the raw matrix [G, FG, ..., F^{n-1}G] is
    lost to its conditioning: it rejects random dense pairs from n = 16.
    F is n x n and G n x m, both finite, as ``Regulator`` gives them.
    """
    n = f.shape[0]
    tol = CUTOFF_REL * np.linalg.norm(np.hstack([f, g]), 2)
    basis = np.empty((n, n))  # rows 0..k-1 are the orthonormal basis so far
    k, block = 0, g
    while k < n:
        q = basis[:k]
        for _ in range(2):
            block = block - q.T @ (q @ block)
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        new = u[:, s > tol][:, :n - k]
        if new.shape[1] == 0:
            return False
        basis[k:k + new.shape[1]] = new.T
        k += new.shape[1]
        block = f @ new
    return True


def _wrong_length(k, n):
    return InvalidInputError(f"field returned {len(k)} components for a state of {n}")


@cache
def _rk4_body(n):
    """The RK4 step's arithmetic on a state of n floats, as straight-line
    Python compiled once per n: ``body(field, state, dt)`` returns the new
    state as a list.

    The state and each stage's derivative are unpacked into locals, each
    stage input is one list display, and each component of the result is
    one expression, summed in the order ``rk4_step`` gives. Cached: one
    function per state width for the life of the process.
    """
    a = [f"a{i}" for i in range(n)]
    k = [[f"k{s}_{i}" for i in range(n)] for s in range(1, 5)]
    lines = ["def body(field, state, dt):", "    half = 0.5 * dt",
             f"    {', '.join(a)}, = state", "    k = field(state)"]
    for s, h in enumerate(("half", "half", "dt", None)):
        lines += ["    try:", f"        {', '.join(k[s])}, = k", "    except ValueError:",
                  f"        raise wrong_length(k, {n}) from None"]
        if h is not None:
            lines.append("    k = field([" + ", ".join(f"{a[i]} + {h} * {k[s][i]}"
                                                     for i in range(n)) + "])")
    lines += ["    sixth = dt / 6.0",
              "    return [" + ", ".join(f"((({k[0][i]} + 2.0 * {k[1][i]}) + 2.0 * {k[2][i]}) "
                                       f"+ {k[3][i]}) * sixth + {a[i]}" for i in range(n)) + "]"]
    namespace = {"wrong_length": _wrong_length}
    exec(compile("\n".join(lines) + "\n", f"<rk4 step of {n}>", "exec"), namespace)
    return namespace["body"]


def rk4_step(field, state, dt):
    """One classical fourth-order Runge-Kutta step of size dt > 0, on a state
    given as a list of Python floats; returns the new state as a new list.

    ``field(state)`` returns the derivative as a sequence of floats of the
    state's length (another length raises InvalidInputError). At a state of
    a dozen floats, Python float arithmetic costs less than numpy's per-call
    overhead, and it makes the same IEEE operations: each component is
    state + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4), summed in that order. The
    arithmetic runs in ``_rk4_body(len(state))``. The new state may hold
    non-finite entries: ``hybrid.simulate`` checks each step's.
    """
    return _rk4_body(len(state))(field, state, dt)
