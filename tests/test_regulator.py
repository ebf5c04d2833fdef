"""Controller-stack tests: saturation, stabilizer, internal model, observer."""

import numpy as np
import pytest

from adreg.errors import InvalidConfigError, InvalidInputError
from adreg.identifier import LsIdentifier, build_poly_regressor
from adreg.numerics import is_controllable, is_hurwitz
from adreg.plant import build_chain_matrices, build_vdp_scenario
from adreg.regulator import (
    InternalModelConfig,
    ObserverConfig,
    StabilizerConfig,
    default_internal_model,
    saturate,
)
from adreg.scenario import build_closed_loop, state_layout


def _closed_loop(d_eta=6, ident=None):
    """(field, control, layout) of the oscillator loop with K = (2, 3),
    M = psi_bar = 100, ell = 20 and h = (6, 11, 6)."""
    stab = StabilizerConfig(K=[[2.0, 3.0]], sat_level=100.0)
    obs = ObserverConfig(ell=20.0, h_coeffs=[6.0, 11.0, 6.0], psi_bar=100.0)
    field, control = build_closed_loop(
        build_vdp_scenario(2.0, 2.0), default_internal_model(d_eta), stab, obs, ident)
    return field, control, state_layout(d_eta)


def _state(lay, x=(0.0, 0.0), eta=0.0, x_hat=(0.0, 0.0), sigma_hat=0.0):
    v = np.zeros(lay.size)
    v[lay.w] = (0.3, 0.5)
    v[lay.x] = x
    v[lay.eta] = eta
    v[lay.x_hat] = x_hat
    v[lay.sigma_hat] = sigma_hat
    return v


class TestSaturate:
    def test_identity_inside_ball(self):
        s = np.array([3.0, 4.0])  # norm 5
        assert np.array_equal(saturate(s, 5.0), s)
        assert np.array_equal(saturate(s, 6.0), s)

    def test_rescales_outside_ball(self):
        s = np.array([3.0, 4.0])
        out = saturate(s, 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0)
        assert np.allclose(out, s / 5.0)  # direction preserved

    def test_scalar_clamp(self):
        assert saturate(np.array([-150.0]), 100.0)[0] == pytest.approx(-100.0)

    def test_one_lipschitz_sampled(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.normal(size=(2, 3)) * 5.0
            d = np.linalg.norm(saturate(a, 2.0) - saturate(b, 2.0))
            assert d <= np.linalg.norm(a - b) + 1e-12

    def test_nonpositive_level_rejected(self):
        with pytest.raises(InvalidInputError):
            saturate(np.array([1.0]), 0.0)

    def test_does_not_alias_input(self):
        s = np.array([1.0])
        out = saturate(s, 10.0)
        out[0] = 99.0
        assert s[0] == 1.0


class TestStabilizerConfig:
    def test_accepts_stabilizing_gain(self):
        # K places the chain poles at -1, -2
        stab = StabilizerConfig(K=[[2.0, 3.0]], sat_level=100.0)
        a, b, _ = build_chain_matrices(2, 1)
        assert is_hurwitz(a - b @ stab.K)

    def test_rejects_destabilizing_gain(self):
        with pytest.raises(InvalidConfigError):
            StabilizerConfig(K=[[-1.0, -1.0]], sat_level=100.0)

    @pytest.mark.parametrize("k", [[[0.0, 3.0]], [[2.0, 0.0]], [[2.0, -3.0]]])
    def test_rejects_nonpositive_gain(self, k):
        # A - B K = [[0, 1], [-k0, -k1]] is Hurwitz iff k0 > 0 and k1 > 0
        a, b, _ = build_chain_matrices(2, 1)
        assert not is_hurwitz(a - b @ np.array(k))
        with pytest.raises(InvalidConfigError):
            StabilizerConfig(K=k, sat_level=100.0)

    def test_rejects_bad_shapes_and_level(self):
        with pytest.raises(InvalidConfigError):
            StabilizerConfig(K=[[2.0, 3.0]], sat_level=0.0)
        with pytest.raises(InvalidConfigError):
            StabilizerConfig(K=np.ones((2, 3)), sat_level=1.0)


class TestInternalModel:
    def test_default_structure(self):
        im = default_internal_model(4)
        assert np.array_equal(np.diag(im.F), -np.ones(4))
        assert np.array_equal(np.diag(im.F, k=1), np.ones(3))
        assert np.count_nonzero(im.F) == 7
        assert np.array_equal(im.G.ravel(), [0.0, 0.0, 0.0, 1.0])
        assert im.d_eta == 4

    def test_default_is_hurwitz_and_controllable(self):
        im = default_internal_model(6)
        assert is_hurwitz(im.F)
        assert is_controllable(im.F, im.G)

    def test_flow(self):
        # eta' = F eta + G u, with u the controller's output (sigma_hat = -5
        # and x_hat = 0 give u = 5)
        field, control, lay = _closed_loop(d_eta=3)
        v = _state(lay, eta=[1.0, 2.0, 3.0], sigma_hat=-5.0)
        assert control(0.0, 0.0, -5.0) == 5.0
        assert np.allclose(field(v)[lay.eta], [-1.0 + 2.0, -2.0 + 3.0, -3.0 + 5.0])

    def test_flow_with_explicit_dense_pair(self):
        # every diagonal of [F G] is non-zero, those below the main one too;
        # the field's sums agree with the matrix product to rounding, and
        # with the default pair bit for bit
        stab = StabilizerConfig(K=[[2.0, 3.0]], sat_level=100.0)
        obs = ObserverConfig(ell=20.0, h_coeffs=[6.0, 11.0, 6.0], psi_bar=100.0)
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4))
        dense = InternalModelConfig(
            F=a - (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(4),
            G=rng.standard_normal((4, 1)))
        for im in (dense, default_internal_model(4)):
            field, control = build_closed_loop(build_vdp_scenario(2.0, 2.0), im, stab, obs)
            lay = state_layout(4)
            for _ in range(100):
                v = rng.standard_normal(lay.size)
                u = control(*v[lay.x_hat], v[lay.sigma_hat])
                eta = v[lay.eta]
                want = (eta @ im.F.T) + im.G.ravel() * u
                got = np.array(field(v.tolist())[lay.eta])
                scale = np.abs(im.F) @ np.abs(eta) + np.abs(im.G.ravel() * u)
                assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)
                if im is not dense:
                    assert got.tobytes() == want.tobytes()

    def test_rejects_unstable_f(self):
        with pytest.raises(InvalidConfigError):
            InternalModelConfig(F=np.eye(2), G=np.array([[0.0], [1.0]]))

    def test_rejects_uncontrollable_pair(self):
        with pytest.raises(InvalidConfigError):
            InternalModelConfig(F=-np.eye(2), G=np.array([[1.0], [0.0]]))

    def test_rejects_g_of_two_columns(self):
        with pytest.raises(InvalidConfigError, match="G must be 2 x 1"):
            InternalModelConfig(F=-np.eye(2), G=np.eye(2))

    def test_rejects_empty_default(self):
        with pytest.raises(InvalidConfigError, match="d_eta must be >= 1"):
            default_internal_model(0)


class TestObserverConfig:
    def test_worked_coefficients_have_real_negative_roots(self):
        # lambda^3 + 6 lambda^2 + 11 lambda + 6: {-1,-2,-3}
        ObserverConfig(ell=20.0, h_coeffs=[6.0, 11.0, 6.0], psi_bar=100.0)
        roots = np.roots([1.0, 6.0, 11.0, 6.0])
        assert np.allclose(sorted(roots.real), [-3.0, -2.0, -1.0], atol=1e-9)

    def test_complex_roots_rejected(self):
        with pytest.raises(InvalidConfigError):
            ObserverConfig(ell=20.0, h_coeffs=[1.0, 1.0, 1.0], psi_bar=100.0)

    def test_unstable_roots_rejected(self):
        with pytest.raises(InvalidConfigError):
            ObserverConfig(ell=20.0, h_coeffs=[-6.0, 11.0, -6.0], psi_bar=100.0)

    def test_wrong_length_rejected(self):
        for h_coeffs in ([6.0, 11.0], [1.0, 4.0, 6.0, 4.0], [[6.0, 11.0, 6.0]]):
            with pytest.raises(InvalidConfigError):
                ObserverConfig(ell=20.0, h_coeffs=h_coeffs, psi_bar=100.0)

    def test_parameter_bounds(self):
        with pytest.raises(InvalidConfigError):
            ObserverConfig(ell=0.5, h_coeffs=[6.0, 11.0, 6.0], psi_bar=100.0)
        with pytest.raises(InvalidConfigError):
            ObserverConfig(ell=20.0, h_coeffs=[6.0, 11.0, 6.0], psi_bar=0.0)


class TestObserverGains:
    def test_scalar_channel_shapes_and_scaling(self):
        # (ell h1, ell^2 h2, ell^3 h3): Lambda(ell) = diag(20, 400) on
        # H = (6, 11), and ell^3 on H_3 = 6
        obs = ObserverConfig(ell=20.0, h_coeffs=[6.0, 11.0, 6.0], psi_bar=100.0)
        assert len(obs.gains) == 3
        assert np.allclose(obs.gains, [20.0 * 6.0, 400.0 * 11.0, 8000.0 * 6.0])

    def test_gain_overflow_is_config_error(self):
        with pytest.raises(InvalidConfigError, match="overflows the observer gains"):
            ObserverConfig(ell=1e150, h_coeffs=[6.0, 11.0, 6.0], psi_bar=100.0)


class TestControlOutput:
    def test_cancels_estimated_disturbance(self):
        _, control, _ = _closed_loop()
        assert control(0.0, 0.0, -50.0) == pytest.approx(50.0)

    def test_feedback_term(self):
        _, control, _ = _closed_loop()
        assert control(1.0, 2.0, 0.0) == pytest.approx(-8.0)

    def test_norm_bound(self):
        _, control, _ = _closed_loop()
        rng = np.random.default_rng(4)
        for _ in range(100):
            xh1, xh2 = rng.normal(size=2) * 1e3
            assert abs(control(xh1, xh2, rng.normal() * 1e4)) <= 100.0


class TestObserverFlow:
    def test_zero_innovation_reduces_to_model(self):
        # with x1 = x_hat_1 the observer flows like the nominal chain driven
        # by the applied u; without an identifier psi = 0
        field, control, lay = _closed_loop()
        v = _state(lay, x=(1.0, 0.0), x_hat=(1.0, 2.0), sigma_hat=3.0)
        out = field(v)
        u = control(1.0, 2.0, 3.0)
        assert np.allclose(out[lay.x_hat], [2.0, 3.0 + u])
        assert out[lay.sigma_hat] == 0.0

    def test_innovation_gains_enter_at_powers_of_ell(self):
        field, _, lay = _closed_loop()
        out = field(_state(lay, x=(1.0, 0.0)))
        assert out[lay.x_hat][0] == pytest.approx(20.0 * 6.0)
        assert out[lay.x_hat][1] == pytest.approx(400.0 * 11.0)
        assert out[lay.sigma_hat] == pytest.approx(20.0**3 * 6.0)

    @pytest.mark.parametrize("scale", [0.1, 100.0])
    def test_consistency_term_drives_sigma_hat(self, scale):
        # sigma_hat' = -psi at zero innovation, psi = theta . eta' for
        # the linear regressor, clamped at psi_bar = 100
        reg = build_poly_regressor(6, 1)
        ident = LsIdentifier(reg, mu_f=0.99, omega=1e-3)
        ident.theta = scale * np.arange(1.0, 7.0)
        field, control, lay = _closed_loop(ident=ident)
        eta = np.linspace(-1.0, 1.0, 6)
        v = _state(lay, eta=eta, x_hat=(0.0, 1.0), sigma_hat=-2.0)
        im = default_internal_model(6)
        psi = ident.theta @ (im.F @ eta + im.G.ravel() * control(0.0, 1.0, -2.0))
        assert field(v)[lay.sigma_hat] == pytest.approx(-float(np.clip(psi, -100.0, 100.0)))
