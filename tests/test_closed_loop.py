"""The generated closed-loop field and controller against the field they
replaced, kept here as the oracle: equal bit for bit on random states, on
signed zeros, at saturation, where ``fast_q`` overflows and on non-finite
states, for default, dense and gapped (F, G) and for each identifier form.

A NaN compares by position only: CPython's float add returns one NaN operand
of two unspecialized and the other once it has specialized the bytecode, so
the sign of a NaN sum changes after a code object's first few calls, in the
oracle as in any Python code.
"""

import inspect
import sys
from operator import add, mul
from types import SimpleNamespace

import numpy as np
import pytest

from adreg.identifier import LsIdentifier, build_poly_regressor
from adreg.plant import build_vdp_scenario
from adreg.regulator import Regulator
from adreg.scenario import ScenarioConfig, build_closed_loop, field_terms, state_layout


def _clamp(x, level):
    if x > level:
        return level
    if x < -level:
        return -level
    return x


def _regulator(**keys):
    """The default config's regulator (K = (2, 3), M = psi_bar = 100,
    ell = 20, h = (6, 11, 6)) with ``keys`` set."""
    return Regulator(**{**ScenarioConfig().regulator, **keys})


def oracle_closed_loop(plant, reg, ident=None):
    """(field, control) as the diagonal-sum field computed them: each row of
    eta' a map chain over the non-zero diagonals of [F G], on (eta, u)
    padded with zeros as far as the diagonals reach."""
    lay = state_layout(reg.d_eta)
    fast_q = plant.extras["fast_q"]
    rho_exo = float(plant.rho)
    k0, k1 = float(reg.K[0, 0]), float(reg.K[0, 1])
    sat_level = reg.sat_level
    lh0, lh1, l3 = reg.gains
    psi_bar = reg.psi_bar
    d, e = reg.d_eta, lay.eta.stop
    fg = np.hstack([reg.F, reg.G])
    ks = [k for k in range(1 - d, d + 1) if fg.diagonal(k).any()]
    lead, trail = [0.0] * max(0, -ks[0]), [0.0] * max(0, ks[-1] - 1)
    padded = np.hstack([np.zeros((d, len(lead))), fg, np.zeros((d, len(trail)))])
    (s0, c0), *diagonals = [(k + len(lead), padded.diagonal(k + len(lead)).tolist())
                            for k in ks]

    def control(xh1, xh2, sh):
        return _clamp(-sh - k0 * xh1 - k1 * xh2, sat_level)

    def psi(eta, eta_dot):
        theta = ident.theta
        regressor = ident.regressor
        dg = theta if regressor.max_order == 1 else theta @ regressor.jacobian(np.array(eta))
        return _clamp(float(dg @ eta_dot), psi_bar)

    def field(v):
        w1, w2, x1, x2 = v[:4]
        xh1, xh2, sh = v[e:]
        u = control(xh1, xh2, sh)
        eta_u = [*lead, *v[4:e], u, *trail]
        terms = map(mul, c0, eta_u[s0:])
        for s, c in diagonals:
            terms = map(add, terms, map(mul, c, eta_u[s:]))
        eta_dot = list(terms)
        try:
            q = fast_q(w1, w2, x1, x2)
        except ArithmeticError:
            q = fast_q(*map(np.float64, (w1, w2, x1, x2)))
        innov = x1 - xh1
        p = 0.0 if ident is None else psi(v[4:e], eta_dot)
        return [w2, -rho_exo * w1, x2, q + u, *eta_dot,
                xh2 + lh0 * innov, sh + u + lh1 * innov, -p + l3 * innov]

    return field, control


def _hurwitz_pair(rng, d, diagonals, g_row):
    """(F, G) with random entries on the given diagonals of F, shifted to be
    Hurwitz, and G non-zero in row ``g_row`` only."""
    f = np.zeros((d, d))
    for k in diagonals:
        idx = np.arange(max(0, -k), min(d, d - k))
        f[idx, idx + k] = rng.standard_normal(idx.size)
    f -= (np.linalg.eigvals(f).real.max() + 0.5) * np.eye(d)
    g = np.zeros((d, 1))
    g[g_row, 0] = rng.standard_normal()
    return _regulator(F=f, G=g)


def _dense_pair():
    # the pair of tests/test_regulator.py::test_flow_with_explicit_dense_pair
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4))
    return _regulator(F=a - (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(4),
                      G=rng.standard_normal((4, 1)))


PAIRS = {
    "default-1": lambda: _regulator(d_eta=1),
    "default-2": lambda: _regulator(d_eta=2),
    "default-3": lambda: _regulator(d_eta=3),
    "default-6": lambda: _regulator(d_eta=6),
    "dense-4": _dense_pair,
    # diagonals -2, 0 and 1 of [F G] non-zero, -1 zero between them
    "gap-4": lambda: _hurwitz_pair(np.random.default_rng(3), 4, (-2, 0, 1), 3),
}
IDENTIFIERS = {"none": None, "ls-1": 1, "ls-3": 3}


def _states(rng, lay):
    """Lists of floats: random, signed zeros, saturated, overflowing fast_q,
    non-finite."""
    n = lay.size
    for _ in range(20):
        yield (rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3, n)).tolist()
    for _ in range(20):
        yield rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -2.5], n).tolist()
    yield [0.0] * n
    yield [-0.0] * n
    for sign in (1.0, -1.0):
        for _ in range(5):
            v = rng.standard_normal(n)
            v[lay.sigma_hat] = sign * 1e4  # |u| > sat_level = 100
            yield v.tolist()
    for i in (0, 1, 2, 3):  # w1, w2, x1 and x2 past the range of a float power
        v = rng.standard_normal(n)
        v[i] = 1e200
        yield v.tolist()
    for bad in (np.nan, np.inf, -np.inf):
        for _ in range(5):
            v = rng.standard_normal(n)
            v[rng.integers(n)] = bad
            yield v.tolist()


def _outcome(f, *args):
    """The bits of f(*args), each NaN made the one NaN; or the error's type."""
    try:
        out = np.array(f(*args), dtype=float, ndmin=1)
        out[np.isnan(out)] = np.nan
        return out.tobytes()
    except Exception as exc:  # noqa: BLE001 - the oracle's failure is an outcome too
        return type(exc)


@pytest.mark.parametrize("order", IDENTIFIERS.values(), ids=IDENTIFIERS.keys())
@pytest.mark.parametrize("make_pair", PAIRS.values(), ids=PAIRS.keys())
def test_field_and_control_equal_the_oracle_bit_for_bit(make_pair, order):
    rng = np.random.default_rng(14)
    reg = make_pair()
    ident = None
    if order is not None:
        ident = LsIdentifier(build_poly_regressor(reg.d_eta, order), mu_f=0.99, omega=1e-3)
    plant = build_vdp_scenario(2.0, 2.0)
    field, control = build_closed_loop(plant, reg, ident)
    want_field, want_control = oracle_closed_loop(plant, reg, ident)
    lay = state_layout(reg.d_eta)
    with np.errstate(all="ignore"):
        for v in _states(rng, lay):
            if ident is not None:  # theta . eta' on both sides of psi_bar
                scale = 10.0 ** rng.integers(-2, 3)
                ident.theta = rng.standard_normal(ident.regressor.d_sigma) * scale
            for state in (v, np.array(v)):
                assert _outcome(field, state) == _outcome(want_field, state), v
            args = (*v[lay.x_hat], v[lay.sigma_hat])
            assert _outcome(control, *args) == _outcome(want_control, *args), v


def test_terms_count_every_non_zero_diagonal():
    assert field_terms(_regulator(d_eta=6)) == 12
    assert field_terms(_dense_pair()) == 4 * 8
    assert field_terms(PAIRS["gap-4"]()) == 4 * 3


def test_long_rows_compile():
    # 240 terms a row, three statements each. The compiler nests at most
    # three times the frames left under the recursion limit: with 60 left, a
    # single 240-term sum would not compile. (F need not be Hurwitz for the
    # field, and a random pair this large is not controllable to the SVD
    # cutoff.)
    rng = np.random.default_rng(5)
    d = 120
    reg = SimpleNamespace(**{**vars(_regulator()), "F": rng.standard_normal((d, d)),
                             "G": rng.standard_normal((d, 1)), "d_eta": d})
    plant = build_vdp_scenario(2.0, 2.0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        field, _ = build_closed_loop(plant, reg)
    finally:
        sys.setrecursionlimit(limit)
    want, _ = oracle_closed_loop(plant, reg)
    v = rng.standard_normal(state_layout(d).size).tolist()
    assert np.array(field(v)).tobytes() == np.array(want(v)).tobytes()


def test_infinite_observer_gain():
    # ell^3 h3 past the float range: such a config wires, and its run ends in
    # an integration failure; the generated source names the gain inf
    rng = np.random.default_rng(6)
    reg = _regulator(ell=1e99, h_coeffs=[6e4, 1.1e9, 6e12])
    assert reg.gains[2] == np.inf
    plant = build_vdp_scenario(2.0, 2.0)
    field, _ = build_closed_loop(plant, reg)
    want, _ = oracle_closed_loop(plant, reg)
    with np.errstate(all="ignore"):
        for v in _states(rng, state_layout(6)):
            assert _outcome(field, v) == _outcome(want, v), v
