"""The regulator: saturation, the stabilizer, the internal-model pair (F, G)
and the extended high-gain observer's gains, for the chain of two
integrators with one output that every plant has. The closed-loop field that
applies them is ``scenario.build_closed_loop``."""

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .numerics import cubic_roots, is_controllable, place_poles


def saturate(s, level):
    """Norm clamp: identity on the ball of radius level, rescaled outside.

    1-Lipschitz and globally bounded by level.
    """
    if level <= 0.0:
        raise InvalidInputError("saturation level must be positive")
    s = np.asarray(s, dtype=float)
    n = np.linalg.norm(s)
    if n <= level:
        return s.copy()
    return s * (level / n)


class Regulator:
    """The regulator of the ``regulator`` config section, built as
    ``Regulator(**cfg.regulator)``. Each value is in its range
    (``scenario.SCHEMA``); the regulator checks what relates them, and each
    error names its key.

    - ``K``, the 1 x 2 gain of the stabilizer u = sat(-sigma_hat - K x_hat,
      sat_level), places the poles of A - B K at ``poles``;
    - the internal model flows as eta' = F eta + G u. F and G are given
      together (``scenario._wire`` checks that they are), or they are the
      default pair of dimension d_eta: -1 on F's diagonal, +1 on its
      superdiagonal, G the last unit vector, Hurwitz and controllable by
      construction (the worked example at d_eta = 6);
    - ``gains`` holds the observer's innovation gains (ell h1, ell^2 h2,
      ell^3 h3) of x_hat_1, x_hat_2 and sigma_hat, where the roots of
      s^3 + h1 s^2 + h2 s + h3 must be real and negative, and ``psi_bar``
      bounds the consistency term;
    - ``linear_poles`` maps each config key to the linear poles of the closed
      loop it sets: ell r_i for the roots r_i, most negative first, F's
      eigenvalues and ``poles``. The roots come in closed form
      (``numerics.cubic_roots``), and an upper-triangular F's eigenvalues are
      its diagonal; only a given F with entries below its diagonal takes
      ``np.linalg.eigvals``. So a regulator of the default pair enters no
      LAPACK routine.
    """

    def __init__(self, poles, sat_level, d_eta, ell, h_coeffs, psi_bar, F=None, G=None):
        h1, h2, h3 = h_coeffs
        try:
            self.gains = (ell * h1, ell ** 2 * h2, ell ** 3 * h3)
        except OverflowError:  # a Python float power past the float range
            raise InvalidConfigError(
                f"regulator.ell = {ell!r} overflows the observer gains") from None
        self.K = place_poles(poles)
        self.sat_level, self.psi_bar = sat_level, psi_bar

        given = F is not None
        if not given:
            try:
                F = -np.eye(d_eta) + np.diag(np.ones(d_eta - 1), k=1)
            except (MemoryError, ValueError):  # more bytes than memory, or than an array can index
                raise InvalidConfigError(f"regulator.d_eta = {d_eta:.6g} asks for an F "
                                         "(d_eta x d_eta) larger than can be allocated") from None
            G = np.zeros((d_eta, 1))
            G[-1, 0] = 1.0
        else:
            F, G = np.asarray(F, dtype=float), np.asarray(G, dtype=float)
            if F.ndim != 2 or F.shape[0] != F.shape[1]:
                raise InvalidConfigError(f"regulator.F must be square, got shape {F.shape}")
            if G.shape != (len(F), 1):
                raise InvalidConfigError(f"regulator.G must be {len(F)} x 1, got shape {G.shape}")
        if np.tril(F, -1).any():
            eigenvalues = np.linalg.eigvals(F).tolist()
        else:  # upper triangular, as the default F is: its diagonal, in eigvals' order and bits
            eigenvalues = F.diagonal().tolist()
        if not all(lam.real < 0.0 for lam in eigenvalues):
            raise InvalidConfigError("regulator.F must be Hurwitz")
        if given and not is_controllable(F, G):
            raise InvalidConfigError("regulator.F and G must be a controllable pair")
        self.F, self.G, self.d_eta = F, G, len(F)
        self.linear_poles = {"regulator.ell": [ell * r for r in cubic_roots(*h_coeffs)],
                             "regulator.F": eigenvalues,
                             "regulator.poles": poles}

