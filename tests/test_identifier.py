"""Identifier tests: regressor combinatorics, Jacobians, and both update
schemes checked against independently coded least-squares oracles."""

import copy
from math import comb

import numpy as np
import pytest

from adreg.errors import InvalidConfigError, InvalidInputError
from adreg.identifier import (
    CLAMP,
    LsIdentifier,
    MiniBatchIdentifier,
    PolyRegressor,
    batch_solver_ls,
    poly_regressor_size,
)
from adreg.numerics import pseudoinverse
from adreg.regulator import saturate
from adreg.scenario import ScenarioConfig


def _multiset_count(d, n):
    """Number of multisets of size n from d symbols: C(d+n-1, n)."""
    return comb(d + n - 1, n)


class TestPolyRegressor:
    @pytest.mark.parametrize(
        "d_eta,order", [(6, 1), (6, 3), (6, 5), (4, 3), (2, 7)]
    )
    def test_full_multiset_count(self, d_eta, order):
        reg = PolyRegressor(d_eta, order)
        expected = sum(_multiset_count(d_eta, n) for n in range(1, order + 1, 2))
        assert reg.d_sigma == expected

    def test_worked_example_counts(self):
        # d_eta = 6 with odd orders up to N: the sizes used in the benchmark
        assert PolyRegressor(6, 1).d_sigma == 6
        assert PolyRegressor(6, 3).d_sigma == 62
        assert PolyRegressor(6, 5).d_sigma == 314

    def test_size_counted_without_building(self):
        for d_eta in (1, 2, 3, 6):
            for order in (1, 3, 5, 7):
                assert poly_regressor_size(d_eta, order) == PolyRegressor(d_eta, order).d_sigma
        # sizes past what the checks build: the config bound rejects them
        assert [poly_regressor_size(6, n) for n in (9, 15, 21)] == [3108, 31548, 166166]

    def test_order_one_is_identity(self):
        reg = PolyRegressor(3, 1)
        eta = np.array([1.0, -2.0, 0.5])
        assert np.allclose(reg(eta), eta)

    def test_values_match_index_list(self):
        reg = PolyRegressor(4, 3)
        rng = np.random.default_rng(0)
        eta = rng.normal(size=4)
        expected = [np.prod(eta[list(idx)]) for idx in reg.index_list]
        assert np.allclose(reg(eta), expected)

    def test_odd_symmetry(self):
        # odd-order monomials only, so sigma(-eta) = -sigma(eta)
        reg = PolyRegressor(5, 5)
        eta = np.random.default_rng(1).normal(size=5)
        assert np.allclose(reg(-eta), -reg(eta))

    def test_batch_matches_scalar(self):
        reg = PolyRegressor(4, 5)
        rows = np.random.default_rng(2).normal(size=(10, 4))
        batch = reg.batch(rows)
        for i, eta in enumerate(rows):
            assert np.array_equal(batch[i], reg(eta))

    def test_jacobian_matches_finite_differences(self):
        reg = PolyRegressor(4, 5)
        rng = np.random.default_rng(3)
        eta = rng.normal(size=4)
        jac = reg.jacobian(eta)
        assert jac.shape == (reg.d_sigma, 4)
        h = 1e-6
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            fd = (reg(eta + e) - reg(eta - e)) / (2 * h)
            assert np.allclose(jac[:, k], fd, atol=1e-6, rtol=1e-6)

    def test_jacobian_with_zero_entries(self):
        # exercises the cumprod fallback path where eta has exact zeros
        reg = PolyRegressor(4, 3)
        eta = np.array([0.0, 2.0, 0.0, -1.0])
        jac = reg.jacobian(eta)
        h = 1e-7
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            fd = (reg(eta + e) - reg(eta - e)) / (2 * h)
            assert np.allclose(jac[:, k], fd, atol=1e-5)

    @staticmethod
    def _reference_jacobian(reg, eta):
        """The per-entry formula: entry (k, i) is (eta_i^(e_i - 1) * e_i)
        times prod_j t_j / t_i (all eta_i nonzero) or times the products of
        t_j left and right of i, each factor gathered entry by entry from
        the power table into C-ordered (d_eta, d_sigma) arrays."""
        exps = reg._exps
        p = np.multiply.accumulate(
            np.concatenate([np.ones((reg.d_eta, 1)),
                            np.repeat(eta[:, None], reg.max_order, axis=1)], axis=1), axis=1)
        flat = p.ravel()
        offsets = np.arange(reg.d_eta)[None, :] * (reg.max_order + 1)
        t = np.take(flat, np.ascontiguousarray((offsets + exps).T))
        out = np.take(flat, np.ascontiguousarray((offsets + np.maximum(exps - 1, 0)).T))
        out *= exps.T
        if eta.all():
            out *= np.prod(t, axis=0)
            out /= t
        else:
            out[1:] *= np.cumprod(t[:-1], axis=0)
            out[:-1] *= np.cumprod(t[:0:-1], axis=0)[::-1]
        return out.T

    @pytest.mark.parametrize("d_eta,order", [(6, 5), (6, 3), (6, 1), (4, 5), (2, 7)])
    def test_jacobian_bits_equal_reference_formula(self, d_eta, order):
        # random eta, eta with exact (signed) zeros, and eta whose powers
        # overflow to inf and give NaN entries
        reg = PolyRegressor(d_eta, order)
        rng = np.random.default_rng(7)
        theta = rng.standard_normal(reg.d_sigma)
        for it in range(300):
            eta = rng.standard_normal(d_eta) * (1.0, 1e-3, 1e70, 1e100)[it % 4]
            if it % 3 == 1:
                eta[rng.integers(d_eta)] = 0.0
            if it % 3 == 2:
                eta[rng.integers(d_eta)] = -0.0
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = reg.jacobian(eta), self._reference_jacobian(reg, eta)
                psi_got, psi_want = theta @ got, theta @ want
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(psi_got, psi_want, equal_nan=True)

    def test_invalid_parameters(self):
        # the order comes only from identifier.N, whose kind in the config
        # schema is an odd positive integer; PolyRegressor does not check it
        for order in (2, 0):  # even, and below one
            with pytest.raises(InvalidConfigError,
                               match=f"^identifier.N must be an odd positive integer, got {order}$"):
                ScenarioConfig(identifier={"kind": "ls", "N": order})


class TestThetaMapLs:
    # a jump on the zero sample only scales the accumulators by mu_f, so
    # theta is the output map of the scaled xi1, xi2
    def test_solves_regularized_system(self):
        rng = np.random.default_rng(5)
        xi1 = rng.normal(size=(4, 4))
        ident = LsIdentifier(PolyRegressor(4, 1), mu_f=0.5, omega=1e-3)
        ident.xi1 = xi1 @ xi1.T
        ident.xi2 = rng.normal(size=4)
        ident.jump(np.zeros(4), 0.0)
        assert np.allclose((ident.xi1 + ident.omega * np.eye(4)) @ ident.theta, ident.xi2,
                           atol=1e-9)

    def test_clamps_at_bound(self):
        # unclamped, theta = (0.5 / 1e-9, 0): 5e8, past the radius
        ident = LsIdentifier(PolyRegressor(2, 1), mu_f=0.5, omega=1e-9)
        ident.xi2 = np.array([1.0, 0.0])
        ident.jump(np.zeros(2), 0.0)
        assert np.linalg.norm(ident.theta) == pytest.approx(CLAMP)


class TestLsJump:
    @staticmethod
    def _oracle_theta(samples, mu_f, omega, theta_bound=1e6):
        """Independently coded weighted LS: theta minimizing
        sum_i mu^(j-1-i) |u_i - theta.sig_i|^2 + |theta|^2_Omega."""
        j = len(samples)
        d = samples[0][0].size
        gram = np.asarray(omega, dtype=float).copy()
        rhs = np.zeros(d)
        for i, (sig, u) in enumerate(samples):
            wgt = mu_f ** (j - 1 - i)
            gram += wgt * np.outer(sig, sig)
            rhs += wgt * sig * u
        theta = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        n = np.linalg.norm(theta)
        return theta if n <= theta_bound else theta * (theta_bound / n)

    def test_matches_weighted_ls_oracle(self):
        reg = PolyRegressor(3, 3)
        mu_f = 0.9
        ident = LsIdentifier(reg, mu_f=mu_f, omega=1e-3)
        rng = np.random.default_rng(6)
        samples = []
        for _ in range(15):
            eta = rng.normal(size=3)
            u = rng.normal()
            samples.append((reg(eta), u))
            ident.jump(eta, u)
            oracle = self._oracle_theta(samples, mu_f, 1e-3 * np.eye(reg.d_sigma))
            assert np.allclose(ident.theta, oracle, atol=1e-8)

    def test_contraction_with_zero_input(self):
        # with no new excitation the accumulators contract geometrically
        mu_f = 0.9
        ident = LsIdentifier(PolyRegressor(2, 1), mu_f=mu_f, omega=1e-3)
        ident.jump(np.array([1.0, 2.0]), 3.0)
        xi1_0 = ident.xi1.copy()
        xi2_0 = ident.xi2.copy()
        for j in range(1, 6):
            ident.jump(np.zeros(2), 0.0)
            assert np.allclose(ident.xi1, mu_f**j * xi1_0)
            assert np.allclose(ident.xi2, mu_f**j * xi2_0)

    def test_recovers_true_theta_under_excitation(self):
        reg = PolyRegressor(2, 3)
        rng = np.random.default_rng(7)
        theta_star = rng.normal(size=reg.d_sigma)
        ident = LsIdentifier(reg, mu_f=0.99, omega=1e-9)
        for _ in range(200):
            eta = rng.normal(size=2)
            ident.jump(eta, float(theta_star @ reg(eta)))
        assert np.allclose(ident.theta, theta_star, atol=1e-5)

    def test_invalid_forgetting_factor(self):
        # the identifier section's ranges are the config schema's
        with pytest.raises(InvalidConfigError, match=r"^identifier\.mu_f must be in \(0, 1\)"):
            ScenarioConfig(identifier={"kind": "ls", "mu_f": 1.0})

    @pytest.mark.parametrize("omega", [-1.0, -1e-12, float("nan")])
    def test_negative_omega_rejected(self, omega):
        # Xi1 + Omega is indefinite for omega < 0
        with pytest.raises(InvalidConfigError, match=r"^identifier\.omega_scale must be "):
            ScenarioConfig(identifier={"kind": "ls", "omega_scale": omega})

    @staticmethod
    def _reference_jump(ident, eta, u):
        """(xi1, xi2, theta) after a jump, by the update's first formula:
        sigma sigma' saturated by its Frobenius norm, xi1 symmetrized."""
        sig = ident.regressor(eta)
        big_sigma = saturate(np.outer(sig, sig).ravel(), CLAMP).reshape(sig.size, sig.size)
        lam = saturate(sig * u, CLAMP)
        xi1 = ident.mu_f * ident.xi1 + big_sigma
        xi1 = 0.5 * (xi1 + xi1.T)
        xi2 = ident.mu_f * ident.xi2 + lam
        theta = pseudoinverse(xi1 + ident.omega * np.eye(sig.size)) @ xi2
        return xi1, xi2, saturate(theta, CLAMP)

    @pytest.mark.parametrize("d_eta,order", [(6, 3), (4, 5)])
    def test_jump_bits_equal_reference_formula(self, d_eta, order):
        ident = LsIdentifier(PolyRegressor(d_eta, order), mu_f=0.95, omega=1e-3)
        rng = np.random.default_rng(13)
        for _ in range(50):
            eta = 0.5 * rng.standard_normal(d_eta)
            u = float(rng.standard_normal())
            sig = ident.regressor(eta)
            assert np.linalg.norm(np.outer(sig, sig)) < CLAMP
            want = self._reference_jump(ident, eta, u)
            before = [a.copy() for a in (ident.xi1, ident.xi2, ident.theta)]
            held = (ident.xi1, ident.xi2, ident.theta)
            ident.jump(eta, u)
            for got, ref in zip((ident.xi1, ident.xi2, ident.theta), want):
                assert np.array_equal(got, ref)
            assert np.array_equal(ident.xi1, ident.xi1.T)
            # the jump rebinds its state: arrays a clone shares stay as they were
            for a, b in zip(held, before):
                assert np.array_equal(a, b)

    def test_active_clamp_bounds_the_rank_one_term(self):
        # |eta_i| >= 10: each of the ten cubic components is at least 1e3, so
        # |sigma sigma'|_F = |sigma|^2 >= 1e7, past the radius
        ident = LsIdentifier(PolyRegressor(3, 3), mu_f=0.9, omega=1e-3)
        rng = np.random.default_rng(14)
        for _ in range(20):
            eta = rng.choice([-1.0, 1.0], 3) * (10.0 + 10.0 * rng.random(3))
            sig = ident.regressor(eta)
            assert np.linalg.norm(np.outer(sig, sig)) > CLAMP
            scaled = ident.mu_f * ident.xi1
            want = self._reference_jump(ident, eta, 0.0)
            ident.jump(eta, 0.0)
            added = np.linalg.norm(ident.xi1 - scaled)
            assert added == pytest.approx(CLAMP, rel=1e-12)
            assert np.array_equal(ident.xi1, ident.xi1.T)
            assert np.allclose(ident.xi1, want[0], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("eta,raises", [
        ([0.3, -0.2], None),
        ([1e160, 0.0], "non-finite"),  # sigma sigma' overflows: NaN reaches the solve
        ([0.3, -0.2], "solve failed"),
    ], ids=["finite", "overflowing-sample", "raising-solve"])
    def test_omega_leaves_no_trace(self, monkeypatch, eta, raises):
        # the solve reads omega on xi1's diagonal: after the jump, raised or
        # not, xi1 has the bytes of mu xi1 + sigma sigma', and a clone taken
        # before it keeps its own bytes. At omega = 0.1, (0.99 + omega) - omega
        # is not 0.99: only a diagonal copied back restores xi1[0, 0]
        ident = LsIdentifier(PolyRegressor(2, 1), mu_f=0.9, omega=0.1)
        ident.jump(np.array([1.0, 2.0]), 3.0)
        twin = copy.copy(ident)
        held = (twin.xi1.tobytes(), twin.xi2.tobytes())
        if raises == "solve failed":
            def solve(m):
                raise InvalidInputError(raises)

            monkeypatch.setattr("adreg.identifier.pseudoinverse", solve)
        with np.errstate(over="ignore", invalid="ignore"):
            sig = ident.regressor(np.array(eta))
            big_sigma = saturate(np.outer(sig, sig).ravel(), CLAMP).reshape(2, 2)
            want = (ident.mu_f * ident.xi1 + big_sigma,
                    ident.mu_f * ident.xi2 + saturate(sig, CLAMP))
            if raises is None:
                ident.jump(np.array(eta), 1.0)
            else:
                with pytest.raises(InvalidInputError, match=raises):
                    ident.jump(np.array(eta), 1.0)
        assert (twin.xi1.tobytes(), twin.xi2.tobytes()) == held
        assert ident.xi1.tobytes() == want[0].tobytes()
        assert ident.xi2.tobytes() == want[1].tobytes()

    def test_wrapper_clone_is_independent(self):
        ident = LsIdentifier(PolyRegressor(2, 1), mu_f=0.9, omega=1e-3)
        ident.jump(np.array([1.0, 0.0]), 2.0)
        twin = copy.copy(ident)
        ident.jump(np.array([0.0, 1.0]), -1.0)
        assert not np.allclose(twin.theta, ident.theta)
        assert type(twin) is LsIdentifier


class TestMiniBatch:
    def test_theta_frozen_until_window_full(self):
        ident = MiniBatchIdentifier(PolyRegressor(2, 1), n_window=4, omega=1e-6)
        rng = np.random.default_rng(9)
        for _ in range(3):
            ident.jump(rng.normal(size=2), rng.normal())
            assert np.array_equal(ident.theta, np.zeros(2))
        ident.jump(rng.normal(size=2), rng.normal())
        assert not np.array_equal(ident.theta, np.zeros(2))

    def test_uses_exactly_last_window(self):
        # feed samples from theta_a, then a full window from theta_b: the
        # estimate must equal theta_b's fit exactly, oblivious to older data
        reg = PolyRegressor(2, 3)
        n_w = 12
        ident = MiniBatchIdentifier(reg, n_window=n_w, omega=1e-6)
        rng = np.random.default_rng(10)
        theta_a = rng.normal(size=reg.d_sigma)
        theta_b = rng.normal(size=reg.d_sigma)
        for _ in range(20):
            eta = rng.normal(size=2)
            ident.jump(eta, float(theta_a @ reg(eta)))
        window = [rng.normal(size=2) for _ in range(n_w)]
        for eta in window:
            ident.jump(eta, float(theta_b @ reg(eta)))
        expected = batch_solver_ls(
            [reg(e) for e in window],
            [np.atleast_1d(float(theta_b @ reg(e))) for e in window], 1e-6,
        )
        assert np.allclose(ident.theta, expected, atol=1e-12)

    def test_solver_matches_lstsq_oracle(self):
        reg = PolyRegressor(3, 3)
        rng = np.random.default_rng(11)
        etas = [rng.normal(size=3) for _ in range(30)]
        us = [np.atleast_1d(rng.normal()) for _ in range(30)]
        omega = 1e-4
        theta = batch_solver_ls([reg(e) for e in etas], us, omega)
        # oracle: ridge regression via the stacked augmented system
        a = np.array([reg(e) for e in etas])
        aug_a = np.vstack([a, np.sqrt(omega) * np.eye(reg.d_sigma)])
        aug_b = np.concatenate([np.ravel(us), np.zeros(reg.d_sigma)])
        oracle = np.linalg.lstsq(aug_a, aug_b, rcond=None)[0]
        assert np.allclose(theta, oracle, atol=1e-8)

    @pytest.mark.parametrize("kw", [{"N_w": 0}, {"N_w": -3}, {"omega_scale": -1.0}])
    def test_invalid_parameters(self, kw):
        with pytest.raises(InvalidConfigError, match=rf"^identifier\.{next(iter(kw))} must be "):
            ScenarioConfig(identifier={"kind": "mini-batch", **kw})

    def test_wrapper_clone_is_independent(self):
        ident = MiniBatchIdentifier(PolyRegressor(2, 1), n_window=2, omega=1e-6)
        rng = np.random.default_rng(12)
        ident.jump(rng.normal(size=2), rng.normal())
        ident.jump(rng.normal(size=2), rng.normal())
        twin = copy.copy(ident)
        ident.jump(rng.normal(size=2), rng.normal())
        assert not np.allclose(twin.theta, ident.theta)
        assert type(twin) is MiniBatchIdentifier
