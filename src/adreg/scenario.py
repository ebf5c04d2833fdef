"""Closed-loop scenario wiring, execution, and data emission.

Assembles plant + regulator + identifier into the hybrid closed loop, runs
it, and reduces the arc to the CSV columns and summary metrics the CLI
emits. The steady-state window is the trailing 20% of the horizon.
"""

import json
import math
import numbers
import os
import pickle
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (AdregError, IntegrationBlowupError, InvalidConfigError, InvalidInputError,
                     SweepWorkerError)
from .hybrid import ClockConfig, arc_bytes, arc_row_bound, check_step, jump_bound, simulate
from .identifier import (LsIdentifier, MiniBatchIdentifier, build_poly_regressor,
                         poly_regressor_size)
from .numerics import rk4_stable_step
from .plant import SOURCE_NAMES, SyntheticLinearPlant, build_vdp_scenario, float_literal
from .regulator import Regulator, saturate

CSV_HEADER = "t,j,y,u,u_star,gamma_hat,err_xhat,err_sigmahat,eps_star"


# ---------------------------------------------------------------------------
# configuration


def _finite(v):
    """True for a finite real number; a bool is not one."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int past the float range
        return False


def _list_of(v, n, ok):
    return isinstance(v, (list, tuple)) and len(v) == n and all(map(ok, v))


def _is_matrix(v):
    """A non-empty list of rows of finite numbers, all of one non-zero length."""
    return (isinstance(v, (list, tuple)) and len(v) > 0 and isinstance(v[0], (list, tuple))
            and len(v[0]) > 0 and all(_list_of(row, len(v[0]), _finite) for row in v))


def _choice(*options):
    what = "one of " + ", ".join(map(repr, options))
    return what, lambda v: isinstance(v, str) and v in options, None, None


def _numbers(n):
    return (f"a list of {n} finite numbers", lambda v: _list_of(v, n, _finite),
            lambda v: [float(x) for x in v], None)


def _where(base, what, ok):
    """The values of the kind ``base`` that ``ok`` accepts once stored; an
    error calls them ``what`` and shows the value as stored."""
    return what, ok, None, base


# The observer's roots count as real when the discriminant of its polynomial
# is at least -DISCRIMINANT_TOL times the sum of its terms' magnitudes: the
# rounding of the five products and their sum is at most about 9 eps of
# that, and the rounding of decimal coefficients about 2 eps more.
DISCRIMINANT_TOL = 16 * np.finfo(float).eps


def _real_negative_roots(h):
    """True iff s^3 + h1 s^2 + h2 s + h3 has real negative roots: its
    discriminant is >= 0 (to DISCRIMINANT_TOL) exactly when they are real,
    and real roots are all negative exactly when every coefficient is
    positive. A repeated root, where the discriminant is 0 and its rounding
    may fall just below, counts as real. ``Regulator`` then takes the roots
    in closed form (``numerics.cubic_roots``), which relies on their being
    real."""
    h1, h2, h3 = h
    terms = (18.0 * h1 * h2 * h3, -4.0 * h1 * h1 * h1 * h3, h1 * h1 * h2 * h2,
             -4.0 * h2 * h2 * h2, -27.0 * h3 * h3)
    return (min(h1, h2, h3) > 0.0
            and sum(terms) >= -DISCRIMINANT_TOL * sum(map(abs, terms)))


# A kind: what an error calls it, whether a value is of it, how the value
# is stored (as it is, for None), and the kind a value must be of first
# (None for a base kind).
NUMBER = ("a finite number", _finite, float, None)
INTEGER = ("an integer", lambda v: _finite(v) and v == int(v), int, None)
# A float from 2^53 on is even, whatever integer was written: such an N is
# left to the memory check (_wire), which rejects every N that large.
ODD = ("an odd positive integer",
       lambda v: INTEGER[1](v) and v >= 1 and (v % 2 == 1 or v >= 2**53), int, None)
MATRIX = ("a matrix: a list of equal-length lists of finite numbers", _is_matrix,
          lambda v: [[float(x) for x in row] for row in v], None)
PATH = ("a file path (a non-empty string) or null",
        lambda v: v is None or (isinstance(v, str) and v != ""), None, None)
POSITIVE = _where(NUMBER, "positive", lambda v: v > 0.0)
AT_LEAST_ONE = _where(NUMBER, ">= 1", lambda v: v >= 1.0)
NON_NEGATIVE = _where(NUMBER, ">= 0", lambda v: v >= 0.0)
FRACTION = _where(NUMBER, "in (0, 1)", lambda v: 0.0 < v < 1.0)
COUNT = _where(INTEGER, ">= 1", lambda v: v >= 1)
SEED = _where(INTEGER, ">= 0", lambda v: v >= 0)
NEGATIVE_PAIR = _where(_numbers(2), "two negative numbers", lambda v: max(v) < 0.0)
OBSERVER_CUBIC = _where(_numbers(3), "(h1, h2, h3) of s^3 + h1 s^2 + h2 s + h3 with real "
                        "negative roots", _real_negative_roots)

# The config schema: section -> key -> (kind, default, *kinds it applies to).
# A key applies to every kind of its section when the row names none; the
# section's kind is the value of its KIND_KEYS key. Left out of a section, a
# key that applies takes its default, a function of the keys above it when
# callable; a key given under a kind it does not apply to is an error. A key
# whose default is OPTIONAL stays left out, and the code that consumes it
# supplies one: w0's default depends on the plant kind, and Regulator takes
# F and G together or the default pair of dimension d_eta, which is F's
# dimension when F is given.
OPTIONAL = object()
KIND_KEYS = {"plant": "kind", "identifier": "kind", "clock": "strategy"}
SCHEMA = {
    "plant": {"kind": (_choice("vdp", "synthetic-linear"), "vdp"),
              "a": (POSITIVE, 2.0, "vdp"), "rho": (POSITIVE, 2.0),
              "p0": (_numbers(2), [0.1, 0.0]), "w0": (_numbers(2), OPTIONAL)},
    "regulator": {"poles": (NEGATIVE_PAIR, [-1.0, -2.0]), "sat_level": (POSITIVE, 100.0),
                  "F": (MATRIX, OPTIONAL), "G": (MATRIX, OPTIONAL),
                  "d_eta": (COUNT, lambda reg: len(reg["F"]) if "F" in reg else 6),
                  "ell": (AT_LEAST_ONE, 20.0), "h_coeffs": (OBSERVER_CUBIC, [6.0, 11.0, 6.0]),
                  "psi_bar": (POSITIVE, 100.0)},
    "identifier": {"kind": (_choice("none", "ls", "mini-batch"), "none"),
                   "mu_f": (FRACTION, 0.99, "ls"),
                   "omega_scale": (NON_NEGATIVE, 1e-3, "ls", "mini-batch"),
                   "N": (ODD, 1, "ls", "mini-batch"), "N_w": (COUNT, 10, "mini-batch")},
    "clock": {"t_low": (POSITIVE, 0.1), "t_high": (POSITIVE, 0.1),
              "strategy": (_choice("periodic", "uniform"), "periodic"),
              "period": (NUMBER, lambda clock: clock["t_low"], "periodic"), "seed": (SEED, 0)},
    "sim": {"horizon": (POSITIVE, 100.0), "dt": (POSITIVE, 1e-3)},
    "output": {"csv": (PATH, None), "summary": (PATH, None)},
}


def _object(name, given, allowed):
    """``given``, checked to be an object whose keys are all in ``allowed``."""
    if not isinstance(given, dict):
        raise InvalidConfigError(f"{name} must be an object, got {given!r}")
    unknown = set(given) - set(allowed)
    if unknown:
        raise InvalidConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    return given


def _value(name, kind, value):
    """``value`` checked to be of ``kind``, as the kind stores it."""
    what, ok, store, base = kind
    if base is not None:
        value = _value(name, base, value)
    if not ok(value):
        raise InvalidConfigError(f"{name} must be {what}, got {value!r}")
    return value if store is None else store(value)


def _resolve(section, given):
    """``given`` checked against the schema of ``section``, with the defaults
    of the keys it leaves out that apply to its kind, as a new dict."""
    table = SCHEMA[section]
    _object(repr(section), given, table)
    kind_key = KIND_KEYS.get(section)
    out = {}
    for key, (kind, default, *kinds) in table.items():
        if kinds and out[kind_key] not in kinds:
            if key in given:
                raise InvalidConfigError(
                    f"{section}.{key} does not apply to {kind_key} {out[kind_key]}")
            continue
        if key in given:
            value = given[key]
        elif callable(default):
            value = default(out)
        else:
            value = default
        if value is not OPTIONAL:
            out[key] = _value(f"{section}.{key}", kind, value)
    return out


@dataclass
class ScenarioConfig:
    """A scenario's config: one dict per section, resolved against SCHEMA
    when the config is made."""

    plant: dict = field(default_factory=dict)
    regulator: dict = field(default_factory=dict)
    identifier: dict = field(default_factory=dict)
    clock: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def __post_init__(self):
        for section in SCHEMA:
            setattr(self, section, _resolve(section, getattr(self, section)))

    @classmethod
    def from_dict(cls, d):
        return cls(**_object("the config", d, SCHEMA))

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        return asdict(self)

    def replace_in(self, section, **kw):
        return replace(self, **{section: {**getattr(self, section), **kw}})


# ---------------------------------------------------------------------------
# execution


@dataclass
class ScenarioResult:
    """A run's arc, summary and identifier record: ``thetas[k]`` is theta
    after jump k. The identifier's sample at jump k is the arc's pre-jump row
    of that jump: eta and the jump time are read off it.

    The CSV columns past t, j and y (``u``, ``u_star``, ``gamma_hat``,
    ``err_xhat``, ``err_sigmahat`` and ``eps_star``) are computed from the
    stored states on first read, from the run's plant, state layout,
    controller and regressor: a run that reads only its summary never builds
    them. A run without its states (``run_scenario``), such as a sweep cell,
    has ``states`` None, and reading one of those columns raises ValueError.
    """

    t: np.ndarray
    j: np.ndarray
    y: np.ndarray
    summary: dict
    states: np.ndarray  # rows x the whole state, or None for a run of t, j and y alone
    thetas: np.ndarray  # jumps x d_sigma; d_sigma is 0 without an identifier
    plant: object = field(repr=False)  # a plant of adreg.plant
    layout: "StateLayout" = field(repr=False)
    control: object = field(repr=False)  # control(xh1, xh2, sigma_hat) -> u
    regressor: object = field(repr=False)  # the identifier's, or None

    def _rows(self, block):
        """The stored states' columns ``block``; a run of t, j and y alone has none."""
        if self.states is None:
            raise ValueError("this run records t, j and y alone: run it with states=True")
        return self.states[:, block]

    @cached_property
    def u(self):
        """The input the flow applied: the controller on each stored state."""
        xh1, xh2 = self._rows(self.layout.x_hat).T.tolist()
        sh = self._rows(self.layout.sigma_hat).tolist()
        return np.fromiter(map(self.control, xh1, xh2, sh), dtype=float, count=self.t.size)

    @cached_property
    def u_star(self):
        return np.asarray(self.plant.ustar_rows(self._rows(self.layout.w)))

    @cached_property
    def gamma_hat(self):
        """theta . sigma(eta) on each row, with the theta of its jump
        segment (zero before the first jump)."""
        eta_rows = self._rows(self.layout.eta)
        gamma_hat = np.zeros(self.t.size)
        if self.thetas.size:
            # segment k runs from the post-jump row of jump k to the next, under
            # thetas[k]: theta is constant between jumps
            starts = (np.flatnonzero(np.diff(self.j)) + 1).tolist()
            for theta, s0, s1 in zip(self.thetas, starts, starts[1:] + [self.t.size]):
                gamma_hat[s0:s1] = self.regressor.batch(eta_rows[s0:s1]) @ theta
        return gamma_hat

    @cached_property
    def err_xhat(self):
        lay = self.layout
        return np.linalg.norm(self._rows(lay.x) - self._rows(lay.x_hat), axis=1)

    @cached_property
    def err_sigmahat(self):
        return np.abs(self._rows(self.layout.sigma_hat) + self.u_star)

    @cached_property
    def eps_star(self):
        """u* - theta* . tau(w) on each row when the plant gives its true map
        and the run identifies one; else empty (size 0)."""
        w_rows = self._rows(self.layout.w)
        theta_star = self.plant.theta_star
        if theta_star is not None and self.regressor is not None:
            # the true map is linear, and the regressor's first d_eta components
            # are eta itself, so u* - gamma_hat(theta*, tau) is u* - theta* . tau
            return self.u_star - self.plant.tau_rows(w_rows) @ theta_star
        return np.zeros(0)

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            has_eps = self.eps_star.size == self.t.size
            for i in range(self.t.size):
                eps = "%.17g" % self.eps_star[i] if has_eps else ""
                fh.write(
                    "%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
                    % (
                        self.t[i], self.j[i], self.y[i], self.u[i], self.u_star[i],
                        self.gamma_hat[i], self.err_xhat[i], self.err_sigmahat[i], eps,
                    )
                )

    def write_summary(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


# d_sigma x d_sigma float arrays live at once in an LS jump: the new xi1 (the
# old one is freed before the solve, and Omega sits on the new one's diagonal),
# the SVD's copy of it, U, V' and workspace, then V'^T U^T beside U and V'. The
# peak RSS growth of a run, less the rest of the memory sum, is 8.2 of them at 1
# OpenBLAS thread and 9.0 to 9.2 at 2 at d_sigma = 314, and 6.5 at 1,106: 10
# covers the largest
JUMP_MATRICES = 10


def physical_memory():
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _count(n):
    return n if n < 2**63 else "more than 2^63"


def _build_identifier(icfg, d_eta):
    """The configured identifier, or None for kind "none"."""
    if icfg["kind"] == "none":
        return None
    regressor = build_poly_regressor(d_eta, icfg["N"])
    if icfg["kind"] == "ls":
        return LsIdentifier(regressor, icfg["mu_f"], icfg["omega_scale"])
    return MiniBatchIdentifier(regressor, icfg["N_w"], icfg["omega_scale"])


class StateLayout(NamedTuple):
    """Blocks of the closed-loop state v = (w, x, eta, x_hat, sigma_hat).

    w, x and x_hat have two components and sigma_hat one, as for every
    shipped plant (d_w = 2, r = 2, d_y = 1); only eta's length varies.
    """

    w: slice
    x: slice
    eta: slice
    x_hat: slice
    sigma_hat: int
    size: int

    def block_of(self, i):
        """Name of the block that holds component i of the state."""
        for name in ("w", "x", "eta", "x_hat"):
            if i < getattr(self, name).stop:
                return name
        return "sigma_hat"


def state_layout(d_eta):
    e = 4 + d_eta
    return StateLayout(slice(0, 2), slice(2, 4), slice(4, e), slice(e, e + 2), e + 2, e + 3)


def field_terms(rcfg):
    """Products the closed-loop field sums for eta': one per non-zero entry
    of the resolved ``regulator`` section's [F G], 2 d_eta for the default pair."""
    if "F" in rcfg:
        return sum(c != 0.0 for row in (*rcfg["F"], *rcfg["G"]) for c in row)
    return 2 * rcfg["d_eta"]


# Compiling the generated field takes at most this many bytes per term of
# eta' at its peak (the growth of peak RSS in a fresh process, Python 3.11, on
# a dense F: 1,831 to 1,934 bytes a term at d_eta = 100, whose 10,100 terms
# took 18.5 to 19.5 MB, and 1,760 to 1,769 at d_eta = 300, whose 90,300
# terms took 159 to 160 MB).
FIELD_TERM_BYTES = 2000
# Compiling numerics' generated RK4 step takes about this many bytes per state
# component at its peak (measured with Python 3.11: 17,150 to 17,551 bytes a
# component at widths 107 to 3,007, whose step took 49 MB and 0.26 s).
RK4_COMPONENT_BYTES = 18000
# Terms summed in one statement of the generated field: the compiler recurses
# once per term of a sum, so a long row is split into statements that go on
# from the partial sum, in the same order.
TERMS_PER_STATEMENT = 100


def _product(c, x):
    """Source of the product of the float c and the name x: x itself for
    1.0 and -x for -1.0, which equal 1.0 * x and -1.0 * x in every bit of
    a number, signed zeros included."""
    if c == 1.0:
        return x
    if c == -1.0:
        return f"-{x}"
    return f"{float_literal(c)} * {x}"


def _clamp(x, level):
    """Source lines that clip the local ``x`` to [-level, level]."""
    m, neg = float_literal(level), float_literal(-level)
    return [f"    if {x} > {m}:", f"        {x} = {m}", f"    elif {x} < {neg}:",
            f"        {x} = {neg}"]


def build_closed_loop(plant, reg, ident=None):
    """The closed-loop field of the regulator ``reg`` over
    ``state_layout(reg.d_eta)``, and its controller.

    Returns ``(field, control)``. ``control(xh1, xh2, sigma_hat)`` is the
    saturated stabilizer u = sat(-sigma_hat - K x_hat) on scalars: the field
    computes the same u inline, from the same source text, and the reduction
    maps ``control`` over the arc. The internal model flows as
    eta' = F eta + G u, the extended observer is driven by the innovation
    x1 - xh1, and the consistency term psi = sat(d gamma_hat/d eta . eta',
    psi_bar) uses the identifier's current theta (psi = 0 without an
    identifier). The field computes q inline from ``plant.q_lines``; where
    that raises ArithmeticError (a Python float overflowed or divided by
    zero), q is nan, and the RK4 step's finite check ends the run.

    Both functions are written as straight-line Python source and compiled
    once: ``field(v)`` unpacks the state into named locals and returns its
    derivative as a list. Gains and the entries of [F G] are float literals
    (``repr``, so exact); an entry of 1.0 or -1.0 multiplies by writing its
    operand as it is or negated. Each row of eta' is one explicit sum of
    the row's non-zero entries of [F G] in column order, u last. With the
    default (F, G) every product is exact, and eta' has the bits of
    F eta + G u formed with BLAS. Without an identifier,
    sigma_hat' is l3 innov, which -0.0 + l3 innov equals in every bit of a
    number. The source holds only literals, generated names and the
    plant's q_lines, nothing read from a config as text.
    """
    d = reg.d_eta
    fg = np.hstack([reg.F, reg.G]).tolist()
    lh0, lh1, l3 = reg.gains
    eta = [f"e{i}" for i in range(d)]
    eta_dot = [f"d{i}" for i in range(d)]
    operand = [*eta, "u"]
    k0, k1 = float_literal(reg.K[0, 0]), float_literal(reg.K[0, 1])
    u = [f"    u = -sh - {k0} * xh1 - {k1} * xh2",
         *_clamp("u", reg.sat_level)]

    lines = ["def control(xh1, xh2, sh):", *u, "    return u", "", "def field(v):",
             f"    w1, w2, x1, x2, {', '.join(eta)}, xh1, xh2, sh = v", *u]
    for i, row in enumerate(fg):
        terms = [_product(c, x) for c, x in zip(row, operand) if c != 0.0]
        for j in range(0, len(terms), TERMS_PER_STATEMENT):
            sums = terms[j:j + TERMS_PER_STATEMENT]
            lines.append(f"    d{i} = " + " + ".join([f"d{i}", *sums] if j else sums))
    lines += ["    try:", *(f"        {line}" for line in plant.q_lines),
              "    except ArithmeticError:",
              "        q = nan",
              "    innov = x1 - xh1"]
    sigma_hat_dot = f"{float_literal(l3)} * innov"
    if ident is not None:
        lines += [f"    p = psi([{', '.join(eta)}], [{', '.join(eta_dot)}])",
                  *_clamp("p", reg.psi_bar)]
        sigma_hat_dot = "-p + " + sigma_hat_dot
    lines.append(f"    return [w2, {float_literal(-plant.rho)} * w1, x2, q + u, "
                 f"{', '.join(eta_dot)}, xh2 + {float_literal(lh0)} * innov, "
                 f"sh + u + {float_literal(lh1)} * innov, {sigma_hat_dot}]")

    def psi(eta, eta_dot):
        """d gamma_hat/d eta . eta', from the identifier's current theta."""
        theta = ident.theta
        regressor = ident.regressor
        dg = theta if regressor.max_order == 1 else theta @ regressor.jacobian(np.array(eta))
        return float(dg @ eta_dot)

    namespace = {**SOURCE_NAMES, "psi": psi, "inf": math.inf, "nan": math.nan}
    exec(compile("\n".join(lines) + "\n", "<closed-loop field>", "exec"), namespace)
    return namespace["field"], namespace["control"]


def _error_coordinates(plant, p0, w0, lay):
    """Initial closed-loop state: w0, the error chain
    x = (p1 - p1*(w0), p2 - L_s p1*(w0)) of the plant state p0, and zeros."""
    try:
        ref, slope = plant.reference(w0)
    except InvalidConfigError as exc:  # the oscillator's reference at w0 = 0
        raise InvalidConfigError(f"no initial error coordinates at w0 = {w0}: {exc}") from None
    except OverflowError:  # where |w0|**3 leaves the float range
        raise InvalidConfigError(f"plant.w0 = {w0} is too large: the reference at it "
                                 "overflows the float range") from None
    except ZeroDivisionError:  # where |w0|**3 underflows to 0
        raise InvalidConfigError(f"plant.w0 = {w0} is too small: the reference at it "
                                 "divides by |w0|**3, which underflows to 0") from None
    v0 = np.zeros(lay.size)
    v0[lay.w] = w0
    v0[lay.x] = (p0[0] - ref, p0[1] - slope)
    return v0


class RunCost(NamedTuple):
    """What a wired config's run holds in memory at most, by part, in all and
    against physical memory; its field's terms and its jumps."""

    d_sigma: int  # regressor components; 0 without an identifier
    f_bytes: int
    arc_bytes: int
    compile_bytes: int  # the peak of compiling the field and the RK4 step
    jump_bytes: int  # the arrays of one identifier jump
    record_bytes: int  # theta after each jump
    total_bytes: int
    memory: int
    field_terms: int
    jumps: int  # at most


class _Cell(NamedTuple):
    """One wired scenario: what the closed loop of a config integrates."""

    lay: StateLayout
    plant: object  # a plant of adreg.plant
    reg: Regulator
    ident: object  # an identifier, or None
    clock: ClockConfig
    v0: np.ndarray
    cost: RunCost
    lambda_dt: float  # the largest |lambda| dt over the loop's linear poles


def _check_rk4_stable(dt, poles):
    """The largest |lambda| dt over ``poles``, a map from the config key that
    sets them to the linear poles of the closed loop; raises InvalidConfigError
    when an RK4 step of dt (or a shortened one) is unstable on one of them."""
    steps = {lam: rk4_stable_step(lam) for lams in poles.values() for lam in set(lams)}
    for key, lams in poles.items():
        for lam in lams:
            if dt > steps[lam]:
                raise InvalidConfigError(
                    f"{key} gives the linear pole {lam:.6g}, on which an RK4 step of sim.dt = "
                    f"{dt!r} is unstable (|lambda| dt = {abs(lam) * dt:.4g}); sim.dt must be "
                    f"at most {min(steps.values()):.6g}")
    return max(abs(lam) for lam in steps) * dt


def _check_output(out):
    """Raise InvalidConfigError for an output path that cannot be a file:
    a directory, one whose directory is missing, or the other key's file;
    creates nothing."""
    for key, path in out.items():
        if path is not None and os.path.isdir(path):
            raise InvalidConfigError(f"output.{key} = {path!r} is a directory")
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise InvalidConfigError(f"output.{key} = {path!r}: no directory "
                                     f"{os.path.dirname(path)!r}")
    if None not in out.values() and len({os.path.realpath(p) for p in out.values()}) == 1:
        raise InvalidConfigError("output.csv and output.summary name one file: "
                                 f"{os.path.realpath(out['csv'])!r}")


def _run_cost(cfg):
    """The clock, state layout and cost of ``cfg``'s run, from the config
    alone: nothing is built. Raises the config's errors found so far, and a
    memory error, naming each non-zero part's key and bytes largest first."""
    rcfg, horizon, dt = cfg.regulator, cfg.sim["horizon"], cfg.sim["dt"]
    _check_output(cfg.output)
    d_eta = rcfg["d_eta"]
    if "F" in rcfg and d_eta != len(rcfg["F"]):
        raise InvalidConfigError(f"regulator.d_eta = {d_eta:.6g} does not match regulator.F, "
                                 f"which is {len(rcfg['F'])} x {len(rcfg['F'][0])}")
    if ("F" in rcfg) != ("G" in rcfg):
        raise InvalidConfigError("regulator.F and G must be given together")
    clock = ClockConfig(**{"period": None, **cfg.clock})  # a uniform clock has none
    lay = state_layout(d_eta)
    check_step(clock, horizon, dt, 1)  # keeps an overflowing horizon / dt out of arc_row_bound
    rows, terms, memory = arc_row_bound(clock, horizon, dt), field_terms(rcfg), physical_memory()
    jumps = jump_bound(clock, horizon)
    n = cfg.identifier.get("N", 0)  # order 0: no identifier, no jump
    most = math.isqrt(memory // (8 * JUMP_MATRICES))  # the largest d_sigma that fits
    # every odd order adds at least d_eta components: a bound that rejects a
    # huge N without summing over its orders
    at_least = "at least " if d_eta * ((n + 1) // 2) > most else ""
    d_sigma = most + 1 if at_least else poly_regressor_size(d_eta, n)
    key = "regulator.F" if "F" in rcfg else f"regulator.d_eta = {d_eta:.6g}"
    parts = [(f"{key}: F, ", 8 * d_eta * d_eta),
             (f"sim.horizon / sim.dt = {horizon!r} / {dt!r}: an arc buffer of {rows} rows, ",
              arc_bytes(clock, horizon, dt, lay.size)),
             (f"{key}: compiling {_count(terms)} field terms and {_count(lay.size)} RK4 "
              "components, about ", FIELD_TERM_BYTES * terms + RK4_COMPONENT_BYTES * lay.size),
             (f"identifier.N = {n:.6g}: a jump of {at_least}d_sigma = {d_sigma} regressor "
              f"components, {at_least or 'about '}", JUMP_MATRICES * 8 * d_sigma**2),
             (f"identifier.N = {n:.6g}: a record of {jumps} jumps, {at_least}",
              8 * jumps * d_sigma if n else 0)]
    total = sum(nbytes for _, nbytes in parts)
    if total > memory:
        named = [f"{what}{_count(nbytes)} bytes"
                 for what, nbytes in sorted(parts, key=lambda part: -part[1]) if nbytes]
        raise InvalidConfigError(f"{'; '.join(named)}; {at_least}{_count(total)} bytes in all, "
                                 f"more than the {memory} bytes of physical memory")
    return clock, lay, RunCost(d_sigma, *(nbytes for _, nbytes in parts), total, memory, terms,
                               jumps)


def _wire(cfg):
    """Build the plant, controller, identifier, clock and initial state of
    ``cfg``; raises the config's errors, a memory error among them
    (``_run_cost``), before anything is integrated."""
    pcfg, rcfg, dt = cfg.plant, cfg.regulator, cfg.sim["dt"]
    clock, lay, cost = _run_cost(cfg)
    reg = Regulator(**rcfg)
    if pcfg["kind"] == "vdp":
        plant = build_vdp_scenario(pcfg["a"], pcfg["rho"])
        # Default exosystem start: for the oscillator benchmark, unit
        # triangular-wave amplitude (|w1| peak = 1/pi). At the wave peaks the
        # feedforward term a*(1 - p1*^2)*L1 then vanishes exactly, so u*(w(t))
        # is continuous and a continuous model output can reproduce it; larger
        # amplitudes make u* jump at every peak and cap the achievable error
        # reduction.
        w0_default = [1.0 / math.pi, 0.0]
    else:
        plant = SyntheticLinearPlant(pcfg["rho"], reg.F, reg.G)
        w0_default = [1.0, 0.0]
    w0 = pcfg["w0"] if "w0" in pcfg else w0_default

    # the exosystem w' = (w2, -rho w1) has the poles +-i sqrt(rho); one stands for both
    lambda_dt = _check_rk4_stable(dt, {**reg.linear_poles,
                                       "plant.rho": [1j * math.sqrt(pcfg["rho"])]})
    ident = _build_identifier(cfg.identifier, reg.d_eta)
    v0 = _error_coordinates(plant, pcfg["p0"], w0, lay)
    return _Cell(lay, plant, reg, ident, clock, v0, cost, lambda_dt)


def run_scenario(cfg, states=False):
    """Simulate the closed loop described by ``cfg`` and reduce the arc.

    At each clock jump the identifier, if any, takes the pre-jump eta and
    float u, and ``thetas[j]`` records the theta it gives. A jump whose
    theta is not finite (a non-finite u makes it so; eta is finite, as every
    state is) or whose solve fails raises IntegrationBlowupError.

    The arc records every state when the config names an output CSV, whose
    columns read them, or when ``states`` is true; otherwise y alone beside
    t and j. The summary reads t and y alone, so its every bit is the same.
    """
    states = states or cfg.output["csv"] is not None
    cell = _wire(cfg)
    lay, reg, ident = cell.lay, cell.reg, cell.ident
    field, control = build_closed_loop(cell.plant, reg, ident)
    thetas = np.empty((cell.cost.jumps, cell.cost.d_sigma))
    ident_jump = f"{cfg.identifier['kind']} identifier's jump"

    def jump(t, j, v):
        if ident is not None:
            row = np.array(v)
            # The identifier's sample keeps the vector form of the controller
            # (K @ x_hat, norm rescale), which can differ from control() in
            # the last bit. At N = 5 the identifier amplifies that bit to a
            # few 1e-6 in steady_state_max_y, beyond the 1e-6 tolerance of
            # bench/reference.json; feed it control() when those references
            # are next recorded.
            u = saturate(-row[lay.sigma_hat:] - reg.K @ row[lay.x_hat], reg.sat_level)
            try:
                ident.jump(row[lay.eta], float(u[0]))
                if not np.isfinite(ident.theta).all():
                    raise InvalidInputError("non-finite theta")
            except InvalidInputError as exc:
                raise IntegrationBlowupError(t, j, v, block=ident_jump, cause=exc) from None
            thetas[j] = ident.theta
        return v

    try:
        arc = simulate(field, jump, cell.v0, cell.clock, cfg.sim["horizon"], cfg.sim["dt"],
                       record=slice(None) if states else slice(lay.x.start, lay.x.start + 1))
    except IntegrationBlowupError as exc:
        if exc.output is None:  # the identifier's jump, which names itself
            raise
        bad = int(np.flatnonzero(~np.isfinite(exc.output))[0])
        raise IntegrationBlowupError(exc.t, exc.j, exc.state, exc.output,
                                     lay.block_of(bad)) from None
    return _reduce(arc, cfg, cell, control, thetas[:int(arc.j[-1])])


def _reduce(arc, cfg, cell, control, thetas):
    """The run's result and summary, from t and y alone; writes the output
    files the config names. ``arc`` records the whole state, or y alone."""
    lay = cell.lay
    full = arc.states.shape[1] == lay.size
    y = arc.states[:, lay.x.start if full else 0]
    # t never decreases, so the rows from 0.8 horizon on are the last ones
    tail = y[np.searchsorted(arc.t, 0.8 * cfg.sim["horizon"]):]
    tail = tail if tail.size else y
    ss_max = max(0.0, float(tail.max()), -float(tail.min()))  # max |y|, with no |y| array
    band = 2.0 * ss_max
    exceed = y > band
    exceed |= y < -band  # |y| > band: one boolean a row
    rows = np.flatnonzero(exceed)
    settling = float(arc.t[rows[-1]]) if rows.size else 0.0
    summary = {
        "steady_state_max_y": ss_max,
        "settling_time_s": settling,
        "final_theta": thetas[-1].tolist() if thetas.size else [],
        "jumps_total": int(arc.j[-1]),
    }

    result = ScenarioResult(
        t=arc.t, j=arc.j, y=y, summary=summary, states=arc.states if full else None,
        thetas=thetas, plant=cell.plant, layout=lay, control=control,
        regressor=None if cell.ident is None else cell.ident.regressor)
    out = cfg.output
    if out["csv"] is not None:
        result.write_csv(out["csv"])
    if out["summary"] is not None:
        result.write_summary(out["summary"])
    return result


def run_sweep(base, axis, values):
    """Vary one axis (ell or N) and tabulate the steady-state metrics.

    Each cell is one ``run_scenario`` call on ``base`` with the axis set to
    the cell's value and no output file, so its row is that run's and its
    arc records y alone. Returns a list of row dicts in value order; a cell
    that fails gets its error in its row and the sweep continues.

    The cells run in W workers: at most min(len(values), CPUs this process
    may run on), and fewer if W x the largest cell's memory sum
    (``RunCost.total_bytes``) would not fit in physical memory; at least one.
    This process is worker 0 and forks the other W - 1 before it runs a
    cell, and cell i runs in worker i mod W. A child pickles its rows, or
    the exception that stopped it, to its pipe; the parent re-raises that
    exception, and raises SweepWorkerError for a child that sent neither
    (one killed by a signal, say). A row does not depend on the process that ran
    it, so the rows are those of running the cells one after another, which
    is what W = 1 does, with no child. No child outlives the call.
    """
    if axis not in ("ell", "N"):
        raise InvalidConfigError("sweep axis must be 'ell' or 'N'")
    if not values:
        raise InvalidConfigError("sweep needs at least one value")
    if axis == "N" and base.identifier["kind"] == "none":
        raise InvalidConfigError("sweep axis N needs an identifier kind != none")
    base = replace(base, output={})  # no per-cell files
    section = "regulator" if axis == "ell" else "identifier"

    def cell(val):
        return base.replace_in(section, **{axis: val})

    workers = min(len(values), len(os.sched_getaffinity(0)))
    costs = []
    for val in values:
        try:
            costs.append(_run_cost(cell(val))[2])
        except AdregError:  # the cell's run raises it again, into its row
            pass
    if costs:
        largest = max(costs, key=lambda cost: cost.total_bytes)
        workers = min(workers, max(1, largest.memory // largest.total_bytes))

    def run_cells(worker):
        rows = []
        for val in values[worker::workers]:
            row = {"value": val}
            try:
                summary = run_scenario(cell(val)).summary
                row.update({k: summary[k] for k in ("steady_state_max_y", "settling_time_s")})
            except AdregError as exc:  # per-cell failure, sweep continues
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
        return rows

    children = {}  # pid -> (worker, read end of its pipe), until reaped
    try:
        for worker in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _sweep_child(write, run_cells, worker)
            os.close(write)
            children[pid] = (worker, open(read, "rb"))
        parts = [run_cells(0)]
        for pid, (worker, pipe) in list(children.items()):
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0 or not data:  # a child exits 0 only once it has sent
                how = f"killed by signal {-status}" if status < 0 else f"exit status {status}"
                raise SweepWorkerError(f"the sweep worker for cells {values[worker::workers]} "
                                       f"ended without a result ({how})")
            kind, payload = pickle.loads(data)  # written by our own child
            if kind == "raise":
                raise payload
            parts.append(payload)
    finally:
        if children:  # the parent raised: no child may outlive the sweep
            import signal  # only on this path, to keep it off a run's imports

            for pid, (_, pipe) in children.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pipe.close()
    rows = [None] * len(values)
    for worker, part in enumerate(parts):
        rows[worker::workers] = part
    return rows


def _sweep_child(write, run_cells, worker):
    """Body of a forked sweep worker. Pickles ``("rows", rows)`` or
    ``("raise", exc)`` to the pipe end ``write`` and leaves with
    ``os._exit``, so it never unwinds into the caller's frames and never
    flushes the stdio buffers it inherited."""
    code = 1
    try:
        try:
            message = pickle.dumps(("rows", run_cells(worker)))
        except BaseException as exc:  # the parent re-raises it
            try:
                message = pickle.dumps(("raise", exc))
                pickle.loads(message)
            except Exception:
                import traceback  # only on this path, in the child

                text = "".join(traceback.format_exception(exc))
                message = pickle.dumps(("raise", RuntimeError(
                    f"a sweep worker raised an exception that cannot be pickled:\n{text}")))
        with open(write, "wb") as pipe:
            pipe.write(message)
        code = 0
    finally:
        os._exit(code)
