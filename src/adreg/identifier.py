"""Discrete-time identifiers: recursive least squares with forgetting and a
mini-batch (moving window) scheme, plus polynomial regressors.

Each identifier is one class that holds its state and the parameters of the
cost it minimizes: the forgetting factor ``mu_f``, the window length
``n_window`` (None when every past sample counts) and the regularizer
``omega``, the float omega of Omega = omega I. ``jump`` writes only arrays
it has just made and rebinds the state to them, so a shallow copy is an
independent clone.

The saturated continuous extensions of the LS update ingredients are realized
as norm clamps with one radius, ``CLAMP`` = 1e6: generous enough to stay
inactive on sane data while preserving the boundedness contract.
"""

import copy
import math
from itertools import combinations_with_replacement

import numpy as np

from .errors import InvalidInputError
from .numerics import pseudoinverse
from .regulator import saturate

CLAMP = 1e6


class PolyRegressor:
    """Odd-order polynomial regressor sigma(eta): one component per
    non-decreasing multi-index of odd length <= max_order. The component
    order is fixed lexicographically (ascending order, then index tuple) so
    parameter indexing is deterministic. max_order is ``identifier.N``: odd.
    """

    def __init__(self, d_eta, max_order):
        self.d_eta = d_eta
        self.max_order = max_order
        index_list = []
        for n in range(1, max_order + 1, 2):
            index_list.extend(combinations_with_replacement(range(d_eta), n))
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


def poly_regressor_size(d_eta, max_order):
    """d_sigma of ``PolyRegressor(d_eta, max_order)``, counted without
    building it: C(d_eta + n - 1, n) non-decreasing multi-indices for each
    odd order n <= max_order."""
    return sum(math.comb(d_eta + n - 1, n) for n in range(1, max_order + 1, 2))


def build_poly_regressor(d_eta, N):
    return PolyRegressor(d_eta, N)


def batch_solver_ls(rows, outs, omega):
    """Regularized linear least squares on the window's regressor rows
    sigma_i = sigma(eta_i) and float outputs u_i.

    Minimizes sum_i |u_i - theta . sigma_i|^2 + omega |theta|^2 via the
    normal equations and the pseudoinverse (minimum-norm minimizer when
    rank-deficient). The first-order optimality residual r = G theta - b is
    checked a posteriori as a normwise backward error: |r| more than 1e-8
    (|b| + |G|_F |theta|) raises InvalidInputError. The pseudoinverse's
    cutoff drops directions of G by design, which leaves a residual that
    scales with |G| |theta|, not with |b| alone.
    """
    d_sigma = rows[0].size
    gram = float(omega) * np.eye(d_sigma)
    rhs = np.zeros(d_sigma)
    for sig, u in zip(rows, outs):
        gram += np.outer(sig, sig)
        rhs += sig * u
    theta = pseudoinverse(gram) @ rhs
    resid = np.linalg.norm(gram @ theta - rhs)
    if resid > 1e-8 * (np.linalg.norm(rhs) + np.linalg.norm(gram) * np.linalg.norm(theta)):
        # rank-deficient Gram with rhs outside its range cannot occur here
        # (rhs is built from the same regressors), so this is a solve that
        # went wrong, worth surfacing.
        raise InvalidInputError(f"batch solver optimality residual {resid:.3e} too large")
    return theta


class LsIdentifier:
    """Recursive least squares with geometric forgetting.

    After j jumps theta minimizes
    sum_i mu_f^(j-1-i) |u_i - theta . sigma(eta_i)|^2 + theta' Omega theta
    through the accumulators xi1 (weighted Gram matrix) and xi2 (weighted
    regressor-output sum).
    """

    n_window = None

    def __init__(self, regressor, mu_f, omega):
        d = regressor.d_sigma
        self.regressor = regressor
        self.mu_f = mu_f
        self.omega = omega
        self.xi1 = np.zeros((d, d))
        self.xi2 = np.zeros(d)
        self.theta = np.zeros(d)

    def advance(self, eta_in, u_out):
        """The jump's update of xi1 and xi2, the state ``gap`` reads:
        geometric forgetting plus the rank-one accumulation of the sample
        (eta_in, float u_out), with sigma sigma' and sigma u each
        norm-clamped at CLAMP."""
        sig = self.regressor(eta_in)
        lam = saturate(sig * u_out, CLAMP)
        big_sigma = np.outer(sig, sig)
        sq = float(sig @ sig)  # |sigma|^2 = |sigma sigma'|_F
        if not sq <= CLAMP:  # as saturate: a NaN norm rescales too
            big_sigma *= CLAMP / sq
        # a fresh array: clones share the old one. Exactly symmetric, as
        # mu X, sigma sigma' and its rescale are.
        xi1 = self.mu_f * self.xi1
        xi1 += big_sigma
        # rebound before the jump's solve, so the old xi1 is freed unless a clone holds it
        self.xi1 = xi1
        self.xi2 = self.mu_f * self.xi2 + lam

    def jump(self, eta_in, u_out):
        """``advance``, then the output map theta = (xi1 + Omega)^+ xi2,
        norm-clamped at CLAMP."""
        self.advance(eta_in, u_out)
        xi1, on_diagonal = self.xi1, slice(None, None, len(self.xi1) + 1)
        # the solve reads xi1 + Omega: omega on xi1's own diagonal, with the
        # saved diagonal copied back after (exact, where subtracting omega is not)
        diag = xi1.flat[on_diagonal]  # a copy
        xi1.flat[on_diagonal] = diag + self.omega
        try:
            theta = pseudoinverse(xi1) @ self.xi2
        finally:
            xi1.flat[on_diagonal] = diag
        self.theta = saturate(theta, CLAMP)

    def state_bytes(self):
        """Bytes of the arrays a clone holds of its own once it has jumped:
        xi1, xi2 and theta."""
        return self.xi1.nbytes + self.xi2.nbytes + self.theta.nbytes

    def perturbed(self, rng):
        """A clone with a symmetric normal perturbation of xi1 and a normal
        perturbation of xi2."""
        twin = copy.copy(self)
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
    over the last n_window of them; until then theta stays at zero. The
    window holds each sample's regressor row sigma(eta_i), evaluated once,
    when the sample arrives."""

    mu_f = 1.0

    def __init__(self, regressor, n_window, omega):
        self.regressor = regressor
        self.n_window = n_window
        self.omega = omega
        self.window_rows = []
        self.window_out = []
        self.theta = np.zeros(regressor.d_sigma)

    def jump(self, eta_in, u_out):
        """Drop the oldest sample, append the newest (eta_in, float u_out);
        re-solve once full."""
        row = self.regressor(np.array(eta_in, dtype=float))
        rows = (self.window_rows + [row])[-self.n_window:]
        outs = (self.window_out + [u_out])[-self.n_window:]
        theta = self.theta
        if len(rows) == self.n_window:
            theta = batch_solver_ls(rows, outs, self.omega)
        self.window_rows, self.window_out, self.theta = rows, outs, theta

    def advance(self, eta_in, u_out):
        """The jump itself: ``gap`` reads theta, which only the solve gives."""
        self.jump(eta_in, u_out)

    def state_bytes(self):
        """Bytes of the arrays a clone holds of its own once its window is
        full: n_window regressor rows and outputs, and theta."""
        return 8 * (self.n_window * (self.theta.size + 1) + self.theta.size)

    def perturbed(self, rng):
        """A clone with a normal perturbation of theta."""
        twin = copy.copy(self)
        twin.theta = self.theta + rng.standard_normal(self.theta.shape)
        return twin

    def gap(self, other):
        """Distance of the parameter estimates: |dtheta|."""
        return np.linalg.norm(self.theta - other.theta)
