"""Small dense linear-algebra and integration kernel.

The pseudoinverse wraps numpy's SVD with an explicit relative cutoff; pole
placement exploits the chain-of-integrators structure so only real negative
poles are needed.
"""

import math

import numpy as np

from .errors import InvalidInputError, IntegrationBlowupError

DEFAULT_CUTOFF_REL = 1e-12


def _check_finite(m, name="input"):
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


def pseudoinverse(m, cutoff_rel=DEFAULT_CUTOFF_REL):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``cutoff_rel`` times the largest one are zeroed.
    """
    m = _check_finite(m, "matrix")
    if not (0.0 < cutoff_rel < 1.0):
        raise InvalidInputError("cutoff_rel must lie in (0, 1)")
    if m.ndim != 2:
        m = np.atleast_2d(m)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]))
    inv_s = np.where(s > cutoff_rel * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    vt *= inv_s[:, None]  # in place: no second array of vt's size
    return vt.T @ u.T


def place_poles(r, d_y, desired):
    """Gain K for a chain of r integrators so that eig(A - B K) = desired.

    Uses the convention kappa(x) = -K x. Only real negative poles are
    supported; for d_y > 1 the same placement is applied channelwise.
    """
    desired = np.asarray(desired, dtype=float)
    if desired.shape != (r,):
        raise InvalidInputError(f"expected {r} desired poles, got {desired.shape}")
    if np.any(desired >= 0.0):
        raise InvalidInputError("desired poles must be strictly negative")
    # prod(s - p_i) = s^r + c[0] s^{r-1} + ... + c[r-1]
    c = np.poly(desired)[1:]
    dx = r * d_y
    k = np.zeros((d_y, dx))
    for i in range(r):
        coeff = c[r - 1 - i]  # multiplies x-block i in xdot_r = -K x
        for ch in range(d_y):
            k[ch, i * d_y + ch] = coeff
    return k


def is_hurwitz(m):
    """True iff all eigenvalues of the square matrix have negative real part."""
    m = _check_finite(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError("is_hurwitz expects a square matrix")
    return bool(np.all(np.linalg.eigvals(m).real < 0.0))


def is_controllable(f, g, cutoff_rel=DEFAULT_CUTOFF_REL):
    """Full row rank of [G, FG, ..., F^{n-1}G], rank via SVD cutoff."""
    f = _check_finite(f, "f")
    g = _check_finite(g, "g")
    g = g.reshape(f.shape[0], -1) if g.ndim == 1 else g
    if f.ndim != 2 or f.shape[0] != f.shape[1] or g.shape[0] != f.shape[0]:
        raise InvalidInputError("incompatible (f, g) dimensions")
    n = f.shape[0]
    blocks = [g]
    for _ in range(n - 1):
        blocks.append(f @ blocks[-1])
    ctrb = np.hstack(blocks)
    s = np.linalg.svd(ctrb, compute_uv=False)
    rank = int(np.sum(s > cutoff_rel * s[0])) if s[0] > 0 else 0
    return rank == n


def rk4_step(field, state, dt, t=0.0):
    """One classical fourth-order Runge-Kutta step of size dt, on a state
    given as a list of Python floats; returns the new state as a new list.

    ``field(state)`` returns the derivative as a sequence of floats. At a
    state of a dozen floats, Python float arithmetic costs less than numpy's
    per-call overhead, and it makes the same IEEE operations: each component
    is state + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4), summed in that order.
    """
    if dt <= 0.0:
        raise InvalidInputError("dt must be positive")
    half = 0.5 * dt
    k1 = field(state)
    k2 = field([a + half * k for a, k in zip(state, k1)])
    k3 = field([a + half * k for a, k in zip(state, k2)])
    k4 = field([a + dt * k for a, k in zip(state, k3)])
    sixth = dt / 6.0
    out = [(((p + 2.0 * q) + 2.0 * r) + s) * sixth + a
           for a, p, q, r, s in zip(state, k1, k2, k3, k4)]
    # one finite sum means finite entries; a sum past the float range
    # falls back to the entries
    if not math.isfinite(sum(out)) and not all(map(math.isfinite, out)):
        raise IntegrationBlowupError(t + dt, 0, state, out)
    return out
