"""Clock, hybrid-arc, and flow/jump engine tests."""

from itertools import islice

import numpy as np
import pytest

from adreg.errors import InvalidConfigError, IntegrationBlowupError
from adreg.hybrid import (
    ClockConfig,
    HybridArc,
    arc_row_bound,
    check_step,
    simulate,
)
from adreg.numerics import rk4_step
from adreg.scenario import ScenarioConfig, _wire


def jump_rows(arc):
    """The pre-jump rows of an arc: those after which j steps."""
    return np.flatnonzero(np.diff(arc.j))


def validate_arc(arc, clock=None, atol=1e-9):
    """Check the HybridArc invariants; raises InvalidConfigError on violation."""
    t, j = arc.t, arc.j
    if np.any(t < -atol) or np.any(j < 0):
        raise InvalidConfigError("arc contains negative hybrid times")
    order = t + j
    if np.any(np.diff(order) < -atol):
        raise InvalidConfigError("arc not ordered by t + j")
    dj = np.diff(j)
    if np.any((dj != 0) & (dj != 1)):
        raise InvalidConfigError("jump counter must increment by exactly one")
    if np.any(np.diff(t)[dj == 0] < -atol):
        raise InvalidConfigError("t must be non-decreasing within a flow interval")
    rows = jump_rows(arc)
    if clock is not None and rows.size > 1:
        gaps = np.diff(arc.t[rows])
        if np.any(gaps < clock.t_low - atol) or np.any(gaps > clock.t_high + atol):
            raise InvalidConfigError("inter-jump gap outside [t_low, t_high]")
    return True


def _list_built_arc(flow, jump, x0, clock, horizon, dt):
    """The arc recorded one row copy at a time into Python lists: the
    reference the preallocated buffer of ``simulate`` must reproduce."""
    x = [float(v) for v in x0]
    t, jcnt = 0.0, 0
    ts, js, xs, pre_jump = [0.0], [0], [list(x)], []
    for next_t in clock.jump_times():
        t_end = min(next_t, horizon)
        while t_end - t > 1e-12:
            h = min(dt, t_end - t)
            x = rk4_step(flow, x, h)
            t += h
            if t_end - t <= 1e-12:
                t = t_end
            ts.append(t)
            js.append(jcnt)
            xs.append(list(x))
        if next_t > horizon:
            break
        pre_jump.append(len(ts) - 1)
        x = jump(t, jcnt, x)
        jcnt += 1
        ts.append(t)
        js.append(jcnt)
        xs.append(list(x))
        if next_t >= horizon:
            break
    return np.asarray(ts), np.asarray(js, dtype=int), np.asarray(xs), np.asarray(pre_jump, dtype=int)


class TestClockConfig:
    """The clock section's ranges and defaults are the config schema's; the
    clock, built when a config is wired, checks how its values relate."""

    def test_periodic_defaults_to_t_low(self):
        assert ScenarioConfig(clock={"t_low": 0.1, "t_high": 0.2}).clock["period"] == 0.1

    def test_periodic_period_outside_window_rejected(self):
        with pytest.raises(InvalidConfigError, match=r"^clock\.period must lie in "):
            ClockConfig(0.1, 0.2, "periodic", 0.3, 0)
        with pytest.raises(InvalidConfigError, match=r"^clock\.period must lie in "):
            _wire(ScenarioConfig(clock={"t_low": 0.1, "t_high": 0.2, "period": 0.3}))

    def test_uniform_rejects_period(self):
        # a uniform clock draws its gaps, so a period would be ignored
        with pytest.raises(InvalidConfigError,
                           match="^clock.period does not apply to strategy uniform$"):
            ScenarioConfig(clock={"t_low": 0.05, "t_high": 0.15, "strategy": "uniform",
                                  "period": 0.1})
        clock = ScenarioConfig(clock={"t_low": 0.05, "t_high": 0.15, "strategy": "uniform"}).clock
        assert "period" not in clock

    def test_bad_bounds_rejected(self):
        with pytest.raises(InvalidConfigError, match="^clock.t_low must be positive, got 0.0$"):
            ScenarioConfig(clock={"t_low": 0.0, "t_high": 0.1})
        with pytest.raises(InvalidConfigError,
                           match=r"^clock\.t_low must be <= clock\.t_high = 0\.1, got 0\.2$"):
            _wire(ScenarioConfig(clock={"t_low": 0.2, "t_high": 0.1}))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidConfigError, match="^clock.strategy must be one of "):
            ScenarioConfig(clock={"strategy": "poisson"})

    def test_uniform_gaps_within_bounds_and_reproducible(self):
        clock = ClockConfig(0.1, 0.3, "uniform", None, 7)
        times = list(islice(clock.jump_times(), 100))
        gaps = np.diff([0.0, *times])
        assert np.all(gaps >= 0.1) and np.all(gaps <= 0.3)
        assert list(islice(clock.jump_times(), 100)) == times


class TestSimulate:
    def test_jump_count_periodic(self):
        clock = ClockConfig(0.1, 0.1, "periodic", 0.1, 0)
        arc = simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.array([1.0]), clock, 1.0,
                       dt=1e-3)
        # jumps at 0.1, 0.2, ..., 1.0
        assert arc.j[-1] == 10
        assert np.allclose(arc.t[jump_rows(arc)], 0.1 * np.arange(1, 11))

    def test_pre_and_post_jump_samples(self):
        clock = ClockConfig(0.5, 0.5, "periodic", 0.5, 0)
        arc = simulate(lambda x: [0.0 * v for v in x], lambda t, j, x: [v + 1.0 for v in x],
                       np.array([0.0]), clock, 1.2, dt=1e-2)
        i = jump_rows(arc)[0]
        assert arc.t[i] == pytest.approx(arc.t[i + 1])
        assert arc.j[i + 1] == arc.j[i] + 1
        assert arc.states[i + 1, 0] == pytest.approx(arc.states[i, 0] + 1.0)

    def test_flow_accuracy_with_jump_reset(self):
        # xdot = -x flowing 0.5 s, then reset to 1; closed form on each leg
        clock = ClockConfig(0.5, 0.5, "periodic", 0.5, 0)
        arc = simulate(lambda x: [-v for v in x], lambda t, j, x: [1.0],
                       np.array([1.0]), clock, 1.0, dt=1e-3)
        i = jump_rows(arc)[0]
        assert arc.states[i, 0] == pytest.approx(np.exp(-0.5), abs=1e-9)
        # second leg: reset to 1 at t=0.5, decays until the jump at the horizon
        i2 = jump_rows(arc)[1]
        assert arc.states[i2, 0] == pytest.approx(np.exp(-0.5), abs=1e-9)

    def test_exact_landing_on_jump_times(self):
        clock = ClockConfig(0.25, 0.25, "periodic", 0.25, 0)
        arc = simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.array([1.0]),
                       clock, 1.0, dt=1e-3)
        for tj in arc.t[jump_rows(arc)]:
            assert tj / 0.25 == pytest.approx(round(tj / 0.25), abs=1e-12)

    def test_dt_too_large_rejected(self):
        clock = ClockConfig(0.1, 0.1, "periodic", 0.1, 0)
        with pytest.raises(InvalidConfigError):
            simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.array([1.0]), clock,
                     1.0, dt=0.05)

    @pytest.mark.parametrize("horizon,dt", [
        (float("nan"), 1e-3), (float("inf"), 1e-3), (1.0, float("nan")),
    ])
    def test_non_finite_horizon_or_dt_rejected(self, horizon, dt):
        clock = ClockConfig(0.1, 0.1, "periodic", 0.1, 0)
        with pytest.raises(InvalidConfigError):
            simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.array([1.0]), clock,
                     horizon, dt=dt)

    @pytest.mark.parametrize("horizon,dt", [(1.0, 0.0), (1.0, -1e-3), (0.0, 1e-3)])
    def test_non_positive_horizon_or_dt_rejected(self, horizon, dt):
        clock = ClockConfig(0.1, 0.1, "periodic", 0.1, 0)
        with pytest.raises(InvalidConfigError,
                           match="^dt and horizon must be positive and finite$"):
            simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.array([1.0]), clock,
                     horizon, dt=dt)

    def test_arc_past_what_an_array_can_index_rejected(self):
        # 1e303 rows: rejected before anything is allocated, naming the keys
        clock = ClockConfig(0.1, 0.1, "periodic", 0.1, 0)
        with pytest.raises(InvalidConfigError, match="sim.horizon / sim.dt"):
            simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.array([1.0]), clock,
                     1e300, dt=1e-3)

    def test_arc_past_the_bytes_an_array_can_index_rejected(self):
        # 1e16 rows can be indexed; 1e16 rows of 1000 8-byte floats cannot
        clock = ClockConfig(0.1, 0.1, "periodic", 0.1, 0)
        check_step(clock, 1e13, 1e-3, 1)
        with pytest.raises(InvalidConfigError, match="sim.horizon / sim.dt"):
            check_step(clock, 1e13, 1e-3, 1000)
        with pytest.raises(InvalidConfigError, match="sim.horizon / sim.dt"):
            simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.zeros(1000), clock,
                     1e13, dt=1e-3)

    def test_blowup_carries_hybrid_time(self):
        clock = ClockConfig(0.1, 0.1, "periodic", 0.1, 0)
        with pytest.raises(IntegrationBlowupError) as exc, np.errstate(over="ignore"):
            simulate(lambda x: [v * v for v in x], lambda t, j, x: x, np.array([10.0]),
                     clock, 5.0, dt=1e-3)
        assert exc.value.j >= 0
        assert exc.value.t > 0.0

    def test_looks_up_rk4_step_in_the_module_once_per_step(self, monkeypatch):
        # a wrapper put on adreg.hybrid.rk4_step sees every flow step: the
        # benchmark times set-up and traces the flow through that name
        import adreg.hybrid as hybrid

        clock = ClockConfig(0.1, 0.3, "uniform", None, 3)
        args = (lambda x: [-v for v in x], lambda t, j, x: [v + 1.0 for v in x],
                np.array([1.0, -2.0]), clock, 1.234, 1e-3)
        want = simulate(*args)
        calls = []

        def counting(field, state, dt):
            calls.append(list(state))
            return rk4_step(field, state, dt)

        monkeypatch.setattr(hybrid, "rk4_step", counting)
        arc = simulate(*args)
        # every row but the first and the post-jump rows ends one step, which
        # starts from the row before it
        assert len(calls) == arc.t.size - 1 - jump_rows(arc).size
        assert calls == [arc.states[i].tolist() for i in range(arc.t.size - 1)
                         if arc.j[i + 1] == arc.j[i]]
        assert np.array_equal(arc.states, want.states)

    def test_blowup_raises(self):
        # x holds at 0 until the second jump, at t = 2.5, sets it to 1e160,
        # whose cube overflows in the first step after it
        clock = ClockConfig(1.25, 1.25, "periodic", 1.25, 0)
        big = [1e160]
        with pytest.raises(IntegrationBlowupError) as exc:
            simulate(lambda s: [v * v * v for v in s], lambda t, j, x: big if j == 1 else x,
                     np.array([0.0]), clock, 5.0, dt=0.125)
        assert exc.value.t == 2.625  # the step's end
        assert exc.value.j == 2
        assert exc.value.state is big  # the pre-step state
        assert not np.isfinite(exc.value.output).all()

    def test_finite_entries_whose_sum_overflows_do_not_raise(self):
        clock = ClockConfig(0.1, 0.1, "periodic", 0.1, 0)
        state = [1e308, 1.5e308, -1.0, 2.0]
        args = (lambda s: [0.0] * len(s), lambda t, j, x: x)
        arc = simulate(*args, np.array(state), clock, 0.25, dt=1e-2)
        assert np.array_equal(arc.states, np.tile(state, (arc.t.size, 1)))
        with pytest.raises(IntegrationBlowupError) as exc:
            simulate(*args, np.array([*state, np.inf]), clock, 0.25, dt=1e-2)
        assert (exc.value.t, exc.value.j) == (1e-2, 0)

    def test_overflowing_field_raises_with_the_numpy_steps_output(self, numpy_rk4_step):
        clock = ClockConfig(1.0, 1.0, "periodic", 1.0, 0)
        rng = np.random.default_rng(12)
        for _ in range(10):
            state = rng.standard_normal(5) * 1e100
            field = lambda s: s * s * s  # noqa: E731
            with np.errstate(over="ignore", invalid="ignore"):
                want = numpy_rk4_step(field, state, 0.1)
                with pytest.raises(IntegrationBlowupError) as got:
                    simulate(lambda s: field(np.asarray(s)).tolist(), lambda t, j, x: x, state,
                             clock, 1.0, dt=0.1)
            assert (got.value.t, got.value.j) == (0.1, 0)
            assert got.value.state == state.tolist()
            assert np.array(got.value.output).tobytes() == want.tobytes()

    def test_produced_arc_validates(self):
        clock = ClockConfig(0.1, 0.3, "uniform", None, 3)
        arc = simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.array([1.0]),
                       clock, 2.0, dt=1e-3)
        assert validate_arc(arc, clock)


class TestPreallocatedArc:
    @staticmethod
    def _flow(x):
        return [x[1], -x[0] - 0.1 * x[1], -0.5 * x[2]]

    @staticmethod
    def _jump(t, j, x):
        return [x[0], x[1], x[2] + 1.0]

    @pytest.mark.parametrize("clock,horizon,dt", [
        # uniform gaps, t_low well below the mean gap
        (ClockConfig(0.02, 0.3, "uniform", None, 5), 3.0, 1e-3),
        # a horizon that is not a multiple of dt
        (ClockConfig(0.1, 0.1, "periodic", 0.1, 0), 1.0037, 1e-3),
        (ClockConfig(0.07, 0.13, "uniform", None, 2), 2.34567, 3e-3),
        # a horizon shorter than t_low: one flow interval, no jump
        (ClockConfig(0.1, 0.1, "periodic", 0.1, 0), 0.0456, 1e-3),
    ])
    def test_equals_list_built_arc_within_bound(self, clock, horizon, dt):
        x0 = np.array([1.0, 0.0, 0.5])
        arc = simulate(self._flow, self._jump, x0, clock, horizon, dt)
        t, j, states, pre_jump = _list_built_arc(self._flow, self._jump, x0, clock,
                                                  horizon, dt)
        assert arc.t.size <= arc_row_bound(clock, horizon, dt)
        assert np.array_equal(arc.t, t)
        assert np.array_equal(arc.j, j)
        assert np.array_equal(arc.states, states)
        assert np.array_equal(jump_rows(arc), pre_jump)
        assert arc.states.shape == states.shape and arc.j.dtype == j.dtype


    @pytest.mark.parametrize("record", [slice(0, 1), slice(1, 3), slice(2, 3), slice(0, 3)])
    def test_recorded_block_is_the_full_arcs_columns(self, record):
        clock = ClockConfig(0.07, 0.13, "uniform", None, 2)
        x0 = np.array([1.0, 0.0, 0.5])
        full = simulate(self._flow, self._jump, x0, clock, 1.0, 1e-3)
        arc = simulate(self._flow, self._jump, x0, clock, 1.0, 1e-3, record=record)
        assert np.array_equal(arc.t, full.t) and np.array_equal(arc.j, full.j)
        assert arc.states.shape == (full.t.size, record.stop - record.start)
        assert arc.states.tobytes() == np.ascontiguousarray(full.states[:, record]).tobytes()

class TestValidateArc:
    def test_rejects_unordered(self):
        arc = HybridArc(t=np.array([0.0, 1.0, 0.5]), j=np.array([0, 0, 0]),
                        states=np.zeros((3, 1)))
        with pytest.raises(InvalidConfigError):
            validate_arc(arc)

    def test_rejects_double_jump(self):
        arc = HybridArc(t=np.array([0.0, 0.0]), j=np.array([0, 2]),
                        states=np.zeros((2, 1)))
        with pytest.raises(InvalidConfigError):
            validate_arc(arc)

    def test_rejects_gap_outside_clock_window(self):
        clock = ClockConfig(0.5, 0.5, "periodic", 0.5, 0)
        arc = HybridArc(
            t=np.array([0.0, 0.1, 0.1, 0.3, 0.3]),
            j=np.array([0, 0, 1, 1, 2]),
            states=np.zeros((5, 1)),
        )
        assert np.array_equal(jump_rows(arc), [1, 3])  # read off j
        with pytest.raises(InvalidConfigError):
            validate_arc(arc, clock)
