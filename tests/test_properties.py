"""Property tests: every config either runs or is a config error, a config
that validates is no config error when it runs, and the hybrid engine's arc
stays within its preallocated row bound.

Examples are derandomized, so a run of the suite tries the same configs each
time. Numeric values of the keys that set a run's size (d_eta, N, horizon and
dt) are drawn from small ranges so that one example runs in milliseconds: a
run's cost grows with horizon/dt, with the regressor's length (combinatorial
in d_eta and N) and with d_eta squared. Every key also takes values of the
other kinds, and every other key numbers of any size.
"""

import contextlib
import io
import json
import os

import numpy as np
import pytest

from adreg.cli import EXIT_CONFIG, EXIT_INTEGRATION, EXIT_OK, main
from adreg.hybrid import ClockConfig, arc_row_bound, simulate
from adreg.scenario import KIND_KEYS, SCHEMA
from test_hybrid import validate_arc

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=250)

# a JSON value of any kind: null, booleans, numbers of any size (and NaN and
# the infinities, which the json module reads and writes), strings, and small
# lists and objects of them
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
_ANY = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=10)
_NON_NUMBERS = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.lists(_ANY, max_size=4),
                         st.dictionaries(st.text(max_size=3), _ANY, max_size=2))


def _mostly(good, other):
    """Mostly ``good``, now and then ``other``."""
    return st.integers(0, 3).flatmap(lambda i: other if i == 3 else good)


_PAIR = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)
_SQUARE = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n), min_size=n, max_size=n))
# values of each key's kind, most of them in range; keyed by key name only,
# so that a kind may meet the other section's choices
_PLAUSIBLE = {
    "strategy": st.sampled_from(["periodic", "uniform"]),
    "p0": _PAIR,
    "w0": _PAIR,
    "poles": st.lists(st.floats(-5.0, 0.5), min_size=2, max_size=2),
    "h_coeffs": st.lists(st.floats(-1.0, 12.0), min_size=3, max_size=3),
    "F": _SQUARE,
    "G": st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=1), min_size=n, max_size=n)),
    "seed": st.integers(-1, 50),
    "N_w": st.integers(-1, 20),
    "mu_f": st.floats(0.0, 1.0),
    "t_low": st.floats(0.01, 0.5),
    "t_high": st.floats(0.01, 2.0),
    "period": st.floats(0.01, 1.0),
    # the keys that set a run's size: small values only
    "d_eta": st.integers(-1, 4),
    "N": st.integers(-1, 3),
    "horizon": st.floats(0.0, 0.3),
    "dt": st.floats(1e-3, 0.01),
}
_SIZE_KEYS = ("d_eta", "N", "horizon", "dt")


def _value(section, key):
    if section == "output":
        # a name under the example's directory, or something that is no path
        return _mostly(st.sampled_from(["run.csv", "run.json", "missing/run.csv", "."]), _ANY)
    if key == "kind":
        good = st.sampled_from(["vdp", "synthetic-linear"] if section == "plant"
                               else ["none", "ls", "mini-batch"])
    else:
        good = _PLAUSIBLE.get(key, st.floats(0.01, 50.0))
    if key in _SIZE_KEYS:
        return _mostly(st.one_of(good, good.map(float)), _NON_NUMBERS)
    return _mostly(good, _ANY)


def _applies(section, key, kind):
    """True when ``key`` of ``section`` applies to the section's ``kind``:
    the schema row names no kinds, or names this one."""
    kinds = SCHEMA[section][key][2:]
    return not kinds or kind in kinds


@st.composite
def _section(draw, section):
    keys = draw(st.lists(st.sampled_from(sorted(SCHEMA[section])), unique=True))
    out = {key: draw(_value(section, key)) for key in keys}
    kind_key = KIND_KEYS.get(section)
    if kind_key is not None and draw(_mostly(st.just(True), st.just(False))):
        # mostly only keys that apply to the section's kind (its default when
        # left out); now and then a key of another kind too
        kind = out.get(kind_key, SCHEMA[section][kind_key][1])
        out = {key: v for key, v in out.items() if key == kind_key or _applies(section, key, kind)}
    if section == "sim":
        # a missing horizon takes its default of 100 s: always draw one
        out["horizon"] = draw(_value("sim", "horizon"))
    if draw(st.integers(0, 19)) == 19:
        out[draw(st.text(max_size=3))] = draw(_ANY)  # now and then an unknown key
    return out


@st.composite
def _configs(draw):
    cfg = {"sim": draw(_section("sim"))}
    for section in draw(st.lists(st.sampled_from(sorted(SCHEMA)), unique=True)):
        if section != "sim":
            cfg[section] = draw(_mostly(_section(section), _ANY))
    return cfg


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def _run(argv):
    """main's exit code and what it printed to stderr, with its output and
    numpy's overflow warnings swallowed; an exception propagates and fails
    the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with np.errstate(all="ignore"):
            return main(argv), err.getvalue()


class TestAnyConfig:
    @PROPERTY_SETTINGS
    @given(cfg=_configs())
    def test_validate_and_simulate_exit_cleanly(self, workdir, cfg):
        out = cfg.get("output")
        if isinstance(out, dict):
            for key, val in out.items():
                if isinstance(val, str):
                    out[key] = os.path.join(workdir, val)
        path = os.path.join(workdir, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code, _ = _run(["validate", path])
        assert code in (EXIT_OK, EXIT_CONFIG)
        sim_code, err = _run(["simulate", path])
        if code == EXIT_CONFIG:
            assert sim_code == EXIT_CONFIG, err
        else:
            # a config that validates runs to its end or fails in its
            # integration; only the writing of its outputs (an OSError) can
            # still be a config error
            assert sim_code in (EXIT_OK, EXIT_INTEGRATION) or err.startswith(
                "config error: [Errno"), err


@st.composite
def _clock_and_step(draw):
    t_low = draw(st.floats(1e-3, 1.0))
    t_high = draw(st.floats(t_low, 2.0 * t_low + 1.0))
    if draw(st.booleans()):
        period = draw(st.one_of(st.just(t_low), st.floats(t_low, t_high)))
        clock = ClockConfig(t_low, t_high, "periodic", period, 0)
    else:
        clock = ClockConfig(t_low, t_high, "uniform", None, draw(st.integers(0, 2**32)))
    dt = draw(st.floats(t_low / 1000.0, t_low / 10.0))
    # at most about 2000 steps, so that one example runs in milliseconds
    horizon = draw(st.floats(dt / 4.0, 2000.0 * dt))
    return clock, horizon, dt


class TestArcRowBound:
    @PROPERTY_SETTINGS
    @given(case=_clock_and_step())
    def test_trivial_flow_stays_within_bound(self, case):
        clock, horizon, dt = case
        arc = simulate(lambda x: [0.0], lambda t, j, x: x, np.zeros(1), clock,
                       horizon, dt)
        assert arc.t.size <= arc_row_bound(clock, horizon, dt)
        validate_arc(arc, clock)
