"""Discrete-time identifiers: recursive least squares with forgetting and a
mini-batch (moving window) scheme, plus polynomial regressors.

Each identifier is one class that holds its state and the parameters of the
cost it minimizes: the forgetting factor ``mu_f``, the window length
``n_window`` (None when every past sample counts) and the regularizer
``omega``, the float omega of Omega = omega I. ``jump`` rebinds the state
and never mutates it in place, so a shallow copy is an independent clone.

The saturated continuous extensions of the LS update ingredients are realized
as norm clamps with configurable radii (default 1e6): generous enough to stay
inactive on sane data while preserving the boundedness contract.
"""

import copy
import math
from itertools import combinations_with_replacement

import numpy as np

from .errors import InvalidConfigError
from .numerics import DEFAULT_CUTOFF_REL, pseudoinverse
from .regulator import saturate

REGRESSOR_MODES = ("full-multiset", "pure-powers")
DEFAULT_CLAMP = 1e6


class PolyRegressor:
    """Odd-order polynomial regressor sigma(eta).

    mode "full-multiset" enumerates every non-decreasing multi-index of odd
    length <= max_order; "pure-powers" keeps only pure powers eta_i^n. The
    component order is fixed lexicographically (ascending order, then index
    tuple) so parameter indexing is deterministic.
    """

    def __init__(self, d_eta, max_order, mode="full-multiset"):
        if max_order < 1 or max_order % 2 == 0:
            raise InvalidConfigError("max_order must be odd and >= 1")
        if mode not in REGRESSOR_MODES:
            raise InvalidConfigError(f"unknown regressor mode {mode!r}")
        self.d_eta = d_eta
        self.max_order = max_order
        self.mode = mode
        index_list = []
        for n in range(1, max_order + 1, 2):
            if mode == "full-multiset":
                index_list.extend(combinations_with_replacement(range(d_eta), n))
            else:
                index_list.extend((i,) * n for i in range(d_eta))
        self.index_list = index_list
        exps = np.zeros((len(index_list), d_eta), dtype=np.int64)
        for k, idx in enumerate(index_list):
            for i in idx:
                exps[k, i] += 1
        self._exps = exps
        # flattened gather indices into the power table for sigma and d sigma,
        # transposed to (d_eta, d_sigma) so that each gather and the jacobian
        # cumprods run along the long axis
        offsets = np.arange(d_eta)[None, :] * (max_order + 1)
        self._flat_pow_t = np.ascontiguousarray((offsets + exps).T)
        self._flat_dpow_t = np.ascontiguousarray((offsets + np.maximum(exps - 1, 0)).T)
        self._exps_ft = np.ascontiguousarray(exps.T.astype(float))

    @property
    def d_sigma(self):
        return self._exps.shape[0]

    def _power_table(self, eta):
        # p[..., i, m] = eta_i^m for m = 0..max_order, over eta's leading axes,
        # as the running product 1, eta, eta*eta, ... along the order axis
        p = np.empty(eta.shape + (self.max_order + 1,))
        p[..., 0] = 1.0
        p[..., 1:] = eta[..., None]
        return np.multiply.accumulate(p, axis=-1, out=p)

    def __call__(self, eta):
        """sigma over the leading axes of eta: (..., d_eta) -> (..., d_sigma).

        Each component is the product of its power-table entries, taken one
        eta coordinate at a time, so a row of a batch evaluates exactly as
        the same eta alone.
        """
        eta = np.asarray(eta, dtype=float)
        flat = self._power_table(eta).reshape(eta.shape[:-1] + (-1,))
        out = flat[..., self._flat_pow_t[0]]
        for idx in self._flat_pow_t[1:]:
            out *= flat[..., idx]
        return out

    batch = __call__  # on (n, d_eta) rows; a name of its own lets profiles count rows apart

    def jacobian(self, eta):
        """d sigma / d eta, shape (d_sigma, d_eta)."""
        eta = np.asarray(eta, dtype=float)
        flat = self._power_table(eta).ravel()
        t = flat.take(self._flat_pow_t)  # (d_eta, d_sigma) factor table
        out = flat.take(self._flat_dpow_t)
        out *= self._exps_ft
        if all(eta.tolist()):  # on Python floats: cheaper than eta.all() at this size
            # prod over j != k of t_j as a total product divided by t_k
            out *= np.multiply.reduce(t, axis=0)
            out /= t
        else:
            left = np.cumprod(t[:-1], axis=0)
            right = np.cumprod(t[:0:-1], axis=0)[::-1]
            out[1:] *= left
            out[:-1] *= right
        return out.T


def poly_regressor_size(d_eta, max_order, mode="full-multiset"):
    """d_sigma of ``PolyRegressor(d_eta, max_order, mode)``, counted without
    building it: for each odd order n <= max_order, d_eta pure powers or
    C(d_eta + n - 1, n) non-decreasing multi-indices."""
    orders = range(1, max_order + 1, 2)
    if mode == "pure-powers":
        return d_eta * len(orders)
    return sum(math.comb(d_eta + n - 1, n) for n in orders)


def build_poly_regressor(d_eta, N, mode="full-multiset"):
    return PolyRegressor(d_eta, N, mode)


def _omega(omega):
    if not omega >= 0.0:
        raise InvalidConfigError(f"omega must be >= 0, got {omega!r}")
    return float(omega)


def batch_solver_ls(window_in, window_out, regressor, omega,
                    cutoff_rel=DEFAULT_CUTOFF_REL):
    """Regularized linear least squares on the window.

    Minimizes sum_i |u_i - theta . sigma(eta_i)|^2 + theta' Omega theta
    via the normal equations and the pseudoinverse (minimum-norm minimizer
    when rank-deficient). The first-order optimality residual is checked
    a posteriori.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.ndim == 0:
        omega = float(omega) * np.eye(regressor.d_sigma)
    gram = omega.copy()
    rhs = np.zeros(regressor.d_sigma)
    for eta, u in zip(window_in, window_out):
        sig = regressor(eta)
        gram += np.outer(sig, sig)
        rhs += sig * float(np.atleast_1d(u)[0])
    theta = pseudoinverse(gram, cutoff_rel) @ rhs
    resid = gram @ theta - rhs
    scale = 1.0 + np.linalg.norm(rhs)
    if np.linalg.norm(resid) > 1e-8 * scale:
        # rank-deficient Gram with rhs outside its range cannot occur here
        # (rhs is built from the same regressors), so this is a conditioning
        # failure worth surfacing.
        raise InvalidConfigError(
            f"batch solver optimality residual {np.linalg.norm(resid):.3e} too large"
        )
    return theta


class LsIdentifier:
    """Recursive least squares with geometric forgetting.

    After j jumps theta minimizes
    sum_i mu_f^(j-1-i) |u_i - theta . sigma(eta_i)|^2 + theta' Omega theta
    through the accumulators xi1 (weighted Gram matrix) and xi2 (weighted
    regressor-output sum).
    """

    n_window = None

    def __init__(self, regressor, mu_f=0.99, omega=1e-3, clamp=DEFAULT_CLAMP,
                 theta_bound=DEFAULT_CLAMP, cutoff_rel=DEFAULT_CUTOFF_REL):
        if not (0.0 < mu_f < 1.0):
            raise InvalidConfigError("mu_f must lie in (0, 1)")
        d = regressor.d_sigma
        self.regressor = regressor
        self.mu_f = mu_f
        self.omega = _omega(omega)
        self.clamp = clamp
        self.theta_bound = theta_bound
        self.cutoff_rel = cutoff_rel
        self.xi1 = np.zeros((d, d))
        self.xi2 = np.zeros(d)
        self.theta = np.zeros(d)

    def jump(self, eta_in, u_out):
        """Geometric forgetting plus the clamped rank-one accumulation, then
        the output map theta = (xi1 + Omega)^+ xi2, norm-clamped at
        theta_bound."""
        sig = self.regressor(eta_in)
        lam = saturate(sig * float(np.atleast_1d(u_out)[0]), self.clamp)
        big_sigma = np.outer(sig, sig)
        sq = float(sig @ sig)  # |sigma|^2 = |sigma sigma'|_F
        if not sq <= self.clamp:  # as saturate: a NaN norm rescales too
            big_sigma *= self.clamp / sq
        # a fresh array: clones share the old one. Exactly symmetric, as
        # mu X, sigma sigma' and its rescale are.
        xi1 = self.mu_f * self.xi1
        xi1 += big_sigma
        xi2 = self.mu_f * self.xi2 + lam
        m = xi1.copy()  # xi1 + Omega: omega added to the diagonal
        m.flat[::sig.size + 1] += self.omega
        theta = pseudoinverse(m, self.cutoff_rel) @ xi2
        self.xi1, self.xi2, self.theta = xi1, xi2, saturate(theta, self.theta_bound)

    def clone(self):
        return copy.copy(self)

    def perturbed(self, rng):
        """A clone with a symmetric normal perturbation of xi1 and a normal
        perturbation of xi2."""
        twin = self.clone()
        d = self.xi1.shape[0]
        pert = rng.standard_normal((d, d))
        twin.xi1 = self.xi1 + 0.5 * (pert + pert.T)
        twin.xi2 = self.xi2 + rng.standard_normal(d)
        return twin

    def gap(self, other):
        """Distance of the accumulator states: |dxi1|_F + |dxi2|."""
        return np.linalg.norm(self.xi1 - other.xi1) + np.linalg.norm(self.xi2 - other.xi2)


class MiniBatchIdentifier:
    """Moving-window least squares: once n_window samples have arrived,
    theta minimizes sum |u_i - theta . sigma(eta_i)|^2 + theta' Omega theta
    over the last n_window of them; until then theta stays at zero."""

    mu_f = 1.0

    def __init__(self, regressor, n_window=10, omega=1e-3, cutoff_rel=DEFAULT_CUTOFF_REL):
        n_window = int(n_window)
        if n_window < 1:
            raise InvalidConfigError(f"n_window must be >= 1, got {n_window}")
        self.regressor = regressor
        self.n_window = n_window
        self.omega = _omega(omega)
        self.cutoff_rel = cutoff_rel
        self.window_in = []
        self.window_out = []
        self.theta = np.zeros(regressor.d_sigma)

    def jump(self, eta_in, u_out):
        """Drop the oldest sample, append the newest; re-solve once full."""
        win_in = (self.window_in + [np.array(eta_in, dtype=float)])[-self.n_window:]
        win_out = (self.window_out + [np.array(u_out, dtype=float, ndmin=1)])[-self.n_window:]
        theta = self.theta
        if len(win_in) == self.n_window:
            theta = batch_solver_ls(win_in, win_out, self.regressor, self.omega,
                                    self.cutoff_rel)
        self.window_in, self.window_out, self.theta = win_in, win_out, theta

    def clone(self):
        return copy.copy(self)

    def perturbed(self, rng):
        """A clone with a normal perturbation of theta."""
        twin = self.clone()
        twin.theta = self.theta + rng.standard_normal(self.theta.shape)
        return twin

    def gap(self, other):
        """Distance of the parameter estimates: |dtheta|."""
        return np.linalg.norm(self.theta - other.theta)
