"""Controller configuration: saturation, the stabilizer, the internal-model
pair (F, G) and the extended high-gain observer's gains. The closed-loop
field that applies them is ``scenario.build_closed_loop``."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .numerics import is_controllable, is_hurwitz
from .plant import build_chain_matrices


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
    """Linear stabilizer kappa(x) = -K x with saturated output."""

    K: np.ndarray
    sat_level: float
    b_bar_inv: np.ndarray

    def __post_init__(self):
        self.K = np.atleast_2d(np.asarray(self.K, dtype=float))
        self.b_bar_inv = np.atleast_2d(np.asarray(self.b_bar_inv, dtype=float))
        if self.sat_level <= 0.0:
            raise InvalidConfigError("sat_level must be positive")
        d_y, dx = self.K.shape
        if dx % d_y != 0:
            raise InvalidConfigError("K must be d_y x (r*d_y)")
        a, b, _ = build_chain_matrices(dx // d_y, d_y)
        if not is_hurwitz(a - b @ self.K):
            raise InvalidConfigError("A - B K is not Hurwitz")


@dataclass
class InternalModelConfig:
    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float)
        self.G = np.asarray(self.G, dtype=float)
        if self.G.ndim == 1:
            self.G = self.G.reshape(-1, 1)
        if not is_hurwitz(self.F):
            raise InvalidConfigError("F must be Hurwitz")
        if not is_controllable(self.F, self.G):
            raise InvalidConfigError("(F, G) must be controllable")

    @property
    def d_eta(self):
        return self.F.shape[0]


def default_internal_model(d_eta, d_y=1):
    """Bidiagonal (F, G): -1 on the diagonal, +1 on the superdiagonal, G the
    last unit vector. Hurwitz and controllable by construction; coincides with
    the worked example at d_eta = 6."""
    f = -np.eye(d_eta) + np.diag(np.ones(d_eta - 1), k=1)
    g = np.zeros((d_eta, d_y))
    g[-d_y:, :] = np.eye(d_y)
    return InternalModelConfig(F=f, G=g)


@dataclass
class ObserverConfig:
    """Extended-observer data: gain scale ell, per-channel coefficients of the
    degree r+1 characteristic polynomial, and bound psi_bar on the consistency
    term."""

    ell: float
    h_coeffs: list
    psi_bar: float

    def __post_init__(self):
        if self.ell < 1.0:
            raise InvalidConfigError("ell must be >= 1")
        if self.psi_bar <= 0.0:
            raise InvalidConfigError("psi_bar must be positive")
        h = np.asarray(self.h_coeffs, dtype=float)
        if h.ndim == 1:
            h = h[None, :]
        self.h_coeffs = h

    def check_roots(self, r):
        """Each channel polynomial must have all roots real and negative."""
        for ch, h in enumerate(self.h_coeffs):
            if h.size != r + 1:
                raise InvalidConfigError(
                    f"channel {ch}: expected {r + 1} coefficients, got {h.size}"
                )
            roots = np.roots(np.concatenate(([1.0], h)))
            if np.any(np.abs(roots.imag) > 1e-9 * (1.0 + np.abs(roots.real))) or np.any(
                roots.real >= 0.0
            ):
                raise InvalidConfigError(
                    f"channel {ch}: characteristic roots must be real and negative"
                )


def build_observer_gains(obs, r, d_y):
    """(Lambda(ell), H, H_{r+1}) for the extended observer.

    Lambda(ell) = diag(ell*I, ..., ell^r*I); H stacks the per-order diagonal
    blocks H_i = diag(h_i over channels); H_{r+1} is the last block.
    """
    obs.check_roots(r)
    h = obs.h_coeffs
    if h.shape[0] == 1 and d_y > 1:
        h = np.repeat(h, d_y, axis=0)
    if h.shape[0] != d_y:
        raise InvalidConfigError("h_coeffs channel count must match d_y")
    lam = np.zeros((r * d_y, r * d_y))
    for i in range(r):
        lam[i * d_y : (i + 1) * d_y, i * d_y : (i + 1) * d_y] = obs.ell ** (i + 1) * np.eye(d_y)
    hmat = np.vstack([np.diag(h[:, i]) for i in range(r)])
    h_rp1 = np.diag(h[:, r])
    return lam, hmat, h_rp1
