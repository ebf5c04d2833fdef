"""The generated closed-loop field and controller against an oracle written
by hand: equal bit for bit on random states, on signed zeros, at saturation,
where q overflows and on non-finite states, for default, dense and gapped
(F, G), for each identifier form and for both plants. The oracle calls its
own copy of the plants' q as it was written before the field computed q
inline, so the inline q is checked against code it was not generated from.

A NaN compares by position only: CPython's float add returns one NaN operand
of two unspecialized and the other once it has specialized the bytecode, so
the sign of a NaN sum changes after a code object's first few calls, in the
oracle as in any Python code.
"""

import inspect
import sys
from math import asin, hypot
from types import SimpleNamespace

import numpy as np
import pytest

from adreg import scenario
from adreg.identifier import LsIdentifier, build_poly_regressor
from adreg.plant import SyntheticLinearPlant, build_vdp_scenario, p1star_and_lie
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


def oracle_p1star_and_lie(w1, w2, rho, sgn):
    """The reference kernel as a plain function, written out by hand."""
    rad = hypot(w1, w2)
    if rad == 0.0:
        return 0.0, 0.0, 0.0
    arg = w1 / rad
    phi = asin(1.0 if arg > 1.0 else (-1.0 if arg < -1.0 else arg))
    one_minus_rho = 1.0 - rho
    l1 = (2.0 * one_minus_rho * w1 * w2 * phi
          + 2.0 * sgn * (w2 * w2 + rho * w1 * w1)) / rad
    l2 = 2.0 * one_minus_rho * phi * (
        (w2 * w2 - rho * w1 * w1) / rad
        - one_minus_rho * w1 * w1 * w2 * w2 / rad**3
    )
    return 2.0 * rad * phi, l1, l2


def oracle_vdp_q(a, rho):
    """The Van der Pol plant's q on scalars, as a closure over the kernel."""
    def fast_q(w1, w2, x1, x2):
        p1, l1, l2 = oracle_p1star_and_lie(w1, w2, rho, 1.0 if w2 >= 0.0 else -1.0)
        return -x1 - p1 - l2 + a * (1.0 - (x1 + p1) ** 2) * (x2 + l1)

    return fast_q


def oracle_synthetic_q(rho):
    return lambda w1, w2, x1, x2: rho * w1


# plant kind -> (the plant for the regulator reg, the oracle's q), a = rho = 2
PLANTS = {
    "vdp": lambda reg: (build_vdp_scenario(2.0, 2.0), oracle_vdp_q(2.0, 2.0)),
    "synthetic-linear": lambda reg: (SyntheticLinearPlant(2.0, reg.F, reg.G),
                                     oracle_synthetic_q(2.0)),
}


def oracle_closed_loop(plant, fast_q, reg, ident=None):
    """(field, control) computed directly: each row of eta' the sum of the
    row's non-zero entries of [F G] times (eta, u), in column order, and q
    from the oracle's ``fast_q``, or nan where that raises ArithmeticError."""
    lay = state_layout(reg.d_eta)
    rho_exo = float(plant.rho)
    k0, k1 = float(reg.K[0, 0]), float(reg.K[0, 1])
    sat_level = reg.sat_level
    lh0, lh1, l3 = reg.gains
    psi_bar = reg.psi_bar
    e = lay.eta.stop
    rows = [[(c, j) for j, c in enumerate(row) if c != 0.0]
            for row in np.hstack([reg.F, reg.G]).tolist()]

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
        eta_u = [*v[4:e], u]
        eta_dot = []
        for (c, j), *rest in rows:
            total = c * eta_u[j]
            for c, j in rest:
                total = total + c * eta_u[j]
            eta_dot.append(total)
        try:
            q = fast_q(w1, w2, x1, x2)
        except ArithmeticError:
            q = np.nan
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
    """Lists of floats: random, signed zeros, saturated, overflowing q,
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
    reg = make_pair()
    lay = state_layout(reg.d_eta)
    for kind, make_plant in PLANTS.items():
        rng = np.random.default_rng(14)
        ident = None
        if order is not None:
            ident = LsIdentifier(build_poly_regressor(reg.d_eta, order), mu_f=0.99, omega=1e-3)
        plant, fast_q = make_plant(reg)
        field, control = build_closed_loop(plant, reg, ident)
        want_field, want_control = oracle_closed_loop(plant, fast_q, reg, ident)
        with np.errstate(all="ignore"):
            for v in _states(rng, lay):
                if ident is not None:  # theta . eta' on both sides of psi_bar
                    scale = 10.0 ** rng.integers(-2, 3)
                    ident.theta = rng.standard_normal(ident.regressor.d_sigma) * scale
                for state in (v, np.array(v)):
                    assert _outcome(field, state) == _outcome(want_field, state), (kind, v)
                args = (*v[lay.x_hat], v[lay.sigma_hat])
                assert _outcome(control, *args) == _outcome(want_control, *args), (kind, v)


def _kernel_points(rng):
    """(w1, w2) where the kernel branches or rounds: w = 0 and w2 = +-0.0,
    w2 so small beside w1 that w1 / |w| rounds to +-1, and the w of the
    overflowing states of ``_states``; then random points."""
    for w1 in (0.0, -0.0, 1.0, -1.0, 1e-300, 5e-324, 1e200, -1e200):
        for w2 in (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, 1.0, 1e200, -1e200):
            yield w1, w2
    for _ in range(200):
        yield tuple((rng.standard_normal(2) * 10.0 ** rng.integers(-3, 3, 2)).tolist())


def test_kernel_equals_the_oracle_bit_for_bit():
    rng = np.random.default_rng(15)
    for w1, w2 in _kernel_points(rng):
        for rho in (2.0, 0.5):
            for sgn in (1.0, -1.0):
                args = (w1, w2, rho, sgn)
                assert (_outcome(p1star_and_lie, *args)
                        == _outcome(oracle_p1star_and_lie, *args)), args
    fast_q, want = build_vdp_scenario(2.0, 2.0).extras["fast_q"], oracle_vdp_q(2.0, 2.0)
    with np.errstate(all="ignore"):
        for w1, w2 in _kernel_points(rng):
            for x1, x2 in ((0.0, 0.0), (-0.0, 1.0), (1e200, 0.5), (0.5, 1e200)):
                for args in ((w1, w2, x1, x2), tuple(map(np.float64, (w1, w2, x1, x2)))):
                    assert _outcome(fast_q, *args) == _outcome(want, *args), args


def test_overflowing_q_is_nan_without_fast_q():
    def no_fast_q(*w_x):
        raise AssertionError("fast_q called")

    plant = build_vdp_scenario(2.0, 2.0)
    plant.extras["fast_q"] = no_fast_q
    reg = _regulator()
    field, _ = build_closed_loop(plant, reg)
    v = [0.3, 0.1, 1e200] + [0.0] * (state_layout(reg.d_eta).size - 3)
    dv = field(v)  # (x1 + p1*)^2 overflows a Python float: q is nan
    assert np.isnan(dv[3])


def test_terms_count_every_non_zero_entry():
    # of the resolved regulator section: the default pair's, or a given F's and G's
    def section(reg):
        return ScenarioConfig(regulator={"F": reg.F.tolist(), "G": reg.G.tolist()}).regulator

    assert field_terms(ScenarioConfig(regulator={"d_eta": 6}).regulator) == 12
    assert field_terms(section(_regulator(d_eta=6))) == 12
    assert field_terms(section(_dense_pair())) == 4 * 5
    assert field_terms(section(PAIRS["gap-4"]())) == 2 + 4 + 3 + 1  # F diagonals -2, 0, 1; G


def test_long_rows_compile(monkeypatch):
    # A row of 241 terms, three statements. The compiler nests at most three
    # times the frames left under the recursion limit: with 60 left, the row
    # as a single sum does not compile. (F need not be Hurwitz for the field,
    # and a random pair this large is not controllable to the SVD cutoff.)
    rng = np.random.default_rng(5)
    d = 240
    f = np.diag(rng.standard_normal(d))
    f[0] = rng.standard_normal(d)
    reg = SimpleNamespace(**{**vars(_regulator()), "F": f,
                             "G": rng.standard_normal((d, 1)), "d_eta": d})
    plant = build_vdp_scenario(2.0, 2.0)

    def build_with_headroom():
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            return build_closed_loop(plant, reg)[0]
        finally:
            sys.setrecursionlimit(limit)

    field = build_with_headroom()
    want, _ = oracle_closed_loop(plant, oracle_vdp_q(2.0, 2.0), reg)
    v = rng.standard_normal(state_layout(d).size).tolist()
    assert np.array(field(v)).tobytes() == np.array(want(v)).tobytes()
    monkeypatch.setattr(scenario, "TERMS_PER_STATEMENT", d + 1)
    with pytest.raises(RecursionError):
        build_with_headroom()


def test_infinite_observer_gain():
    # ell^3 h3 past the float range: such a config wires, and its run ends in
    # an integration failure; the generated source names the gain inf
    rng = np.random.default_rng(6)
    reg = _regulator(ell=1e99, h_coeffs=[6e4, 1.1e9, 6e12])
    assert reg.gains[2] == np.inf
    plant = build_vdp_scenario(2.0, 2.0)
    field, _ = build_closed_loop(plant, reg)
    want, _ = oracle_closed_loop(plant, oracle_vdp_q(2.0, 2.0), reg)
    with np.errstate(all="ignore"):
        for v in _states(rng, state_layout(6)):
            assert _outcome(field, v) == _outcome(want, v), v
