"""Controller configuration: saturation, the stabilizer, the internal-model
pair (F, G) and the extended high-gain observer's gains, for the chain of two
integrators with one output that every plant has. The closed-loop field that
applies them is ``scenario.build_closed_loop``."""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .numerics import is_controllable, is_hurwitz


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


@dataclass
class StabilizerConfig:
    """Linear stabilizer kappa(x) = -K x with saturated output, for the
    chain of two integrators: K is 1 x 2, and A - B K is Hurwitz iff both
    gains are positive."""

    K: np.ndarray
    sat_level: float

    def __post_init__(self):
        self.K = np.atleast_2d(np.asarray(self.K, dtype=float))
        if self.sat_level <= 0.0:
            raise InvalidConfigError("sat_level must be positive")
        if self.K.shape != (1, 2):
            raise InvalidConfigError(f"K must be 1 x 2, got {self.K.shape}")
        if not (self.K[0, 0] > 0.0 and self.K[0, 1] > 0.0):
            raise InvalidConfigError("A - B K is not Hurwitz")


@dataclass
class InternalModelConfig:
    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float)
        self.G = np.asarray(self.G, dtype=float)
        if not is_hurwitz(self.F):
            raise InvalidConfigError("F must be Hurwitz")
        if self.G.shape != (self.d_eta, 1):
            raise InvalidConfigError(f"G must be {self.d_eta} x 1, got shape {self.G.shape}")
        if not is_controllable(self.F, self.G):
            raise InvalidConfigError("(F, G) must be controllable")

    @property
    def d_eta(self):
        return self.F.shape[0]


def default_internal_model(d_eta):
    """Bidiagonal (F, G): -1 on the diagonal, +1 on the superdiagonal, G the
    last unit vector. Hurwitz and controllable by construction; coincides with
    the worked example at d_eta = 6."""
    if d_eta < 1:
        raise InvalidConfigError(f"d_eta must be >= 1, got {d_eta}")
    too_large = InvalidConfigError(f"d_eta = {d_eta:.6g} asks for an F (d_eta x d_eta) "
                                   "larger than can be allocated")
    if d_eta * d_eta > np.iinfo(np.intp).max // 8:  # more bytes than an array can index
        raise too_large
    try:
        f = -np.eye(d_eta) + np.diag(np.ones(d_eta - 1), k=1)
    except (MemoryError, ValueError):  # more bytes than memory
        raise too_large from None
    g = np.zeros((d_eta, 1))
    g[-1, 0] = 1.0
    return InternalModelConfig(F=f, G=g)


@dataclass
class ObserverConfig:
    """Extended-observer data: gain scale ell, the coefficients (h1, h2, h3)
    of s^3 + h1 s^2 + h2 s + h3, whose roots must be real and negative, and
    the bound psi_bar on the consistency term.

    ``gains`` holds the innovation gains (ell h1, ell^2 h2, ell^3 h3) of
    x_hat_1, x_hat_2 and sigma_hat.
    """

    ell: float
    h_coeffs: list
    psi_bar: float
    gains: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.ell < 1.0:
            raise InvalidConfigError("ell must be >= 1")
        if self.psi_bar <= 0.0:
            raise InvalidConfigError("psi_bar must be positive")
        h = np.asarray(self.h_coeffs, dtype=float)
        if h.shape != (3,):
            raise InvalidConfigError(f"expected 3 observer coefficients, got shape {h.shape}")
        roots = np.roots(np.concatenate(([1.0], h)))
        if np.any((np.abs(roots.imag) > 1e-9 * (1.0 + np.abs(roots.real))) | (roots.real >= 0.0)):
            raise InvalidConfigError("observer characteristic roots must be real and negative")
        h1, h2, h3 = h.tolist()
        try:
            self.gains = (self.ell * h1, self.ell ** 2 * h2, self.ell ** 3 * h3)
        except OverflowError:  # a Python float power past the float range
            raise InvalidConfigError(f"ell = {self.ell!r} overflows the observer gains") from None
