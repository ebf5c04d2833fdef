"""Clock, hybrid-arc, and flow/jump engine tests."""

import numpy as np
import pytest

from adreg.errors import InvalidConfigError, IntegrationBlowupError
from adreg.hybrid import (
    ClockConfig,
    HybridArc,
    arc_row_bound,
    check_step,
    next_jump_time,
    simulate,
    validate_arc,
)


def _list_built_arc(flow, jump, x0, clock, horizon, dt):
    """The arc recorded one row copy at a time into Python lists: the
    reference the preallocated buffer of ``simulate`` must reproduce."""
    from adreg.numerics import rk4_step

    rng = clock.make_rng()
    x = [float(v) for v in x0]
    t, jcnt = 0.0, 0
    ts, js, xs, jump_rows = [0.0], [0], [list(x)], []
    next_t = next_jump_time(clock, 0.0, rng)
    while True:
        t_end = min(next_t, horizon)
        while t_end - t > 1e-12:
            h = min(dt, t_end - t)
            x = rk4_step(flow, x, h, t=t)
            t += h
            if t_end - t <= 1e-12:
                t = t_end
            ts.append(t)
            js.append(jcnt)
            xs.append(list(x))
        if next_t > horizon:
            break
        jump_rows.append(len(ts) - 1)
        x = jump(t, jcnt, x)
        jcnt += 1
        ts.append(t)
        js.append(jcnt)
        xs.append(list(x))
        if next_t >= horizon:
            break
        next_t = next_jump_time(clock, next_t, rng)
    return np.asarray(ts), np.asarray(js, dtype=int), np.asarray(xs), np.asarray(jump_rows, dtype=int)


class TestClockConfig:
    def test_periodic_defaults_to_t_low(self):
        clock = ClockConfig(t_low=0.1, t_high=0.2)
        assert clock.period == pytest.approx(0.1)

    def test_periodic_period_outside_window_rejected(self):
        with pytest.raises(InvalidConfigError):
            ClockConfig(t_low=0.1, t_high=0.2, period=0.3)

    def test_uniform_rejects_period(self):
        # a uniform clock draws its gaps, so a period would be ignored
        with pytest.raises(InvalidConfigError, match="periodic strategy only"):
            ClockConfig(t_low=0.05, t_high=0.15, strategy="uniform", period=0.1)
        assert ClockConfig(t_low=0.05, t_high=0.15, strategy="uniform").period is None

    def test_bad_bounds_rejected(self):
        with pytest.raises(InvalidConfigError):
            ClockConfig(t_low=0.0, t_high=0.1)
        with pytest.raises(InvalidConfigError):
            ClockConfig(t_low=0.2, t_high=0.1)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidConfigError):
            ClockConfig(t_low=0.1, t_high=0.1, strategy="poisson")

    def test_uniform_gaps_within_bounds_and_reproducible(self):
        clock = ClockConfig(t_low=0.1, t_high=0.3, strategy="uniform", seed=7)
        rng = clock.make_rng()
        last, gaps = 0.0, []
        for _ in range(100):
            nxt = next_jump_time(clock, last, rng)
            gaps.append(nxt - last)
            last = nxt
        gaps = np.array(gaps)
        assert np.all(gaps >= 0.1) and np.all(gaps <= 0.3)
        rng2 = clock.make_rng()
        assert next_jump_time(clock, 0.0, rng2) == pytest.approx(gaps[0])


class TestSimulate:
    def test_jump_count_periodic(self):
        clock = ClockConfig(t_low=0.1, t_high=0.1)
        arc = simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.array([1.0]), clock, 1.0,
                       dt=1e-3)
        # jumps at 0.1, 0.2, ..., 1.0
        assert arc.j[-1] == 10
        assert np.allclose(arc.jump_times(), 0.1 * np.arange(1, 11))

    def test_pre_and_post_jump_samples(self):
        clock = ClockConfig(t_low=0.5, t_high=0.5)
        arc = simulate(lambda x: [0.0 * v for v in x], lambda t, j, x: [v + 1.0 for v in x],
                       np.array([0.0]), clock, 1.2, dt=1e-2)
        i = arc.jump_indices[0]
        assert arc.t[i] == pytest.approx(arc.t[i + 1])
        assert arc.j[i + 1] == arc.j[i] + 1
        assert arc.states[i + 1, 0] == pytest.approx(arc.states[i, 0] + 1.0)

    def test_flow_accuracy_with_jump_reset(self):
        # xdot = -x flowing 0.5 s, then reset to 1; closed form on each leg
        clock = ClockConfig(t_low=0.5, t_high=0.5)
        arc = simulate(lambda x: [-v for v in x], lambda t, j, x: [1.0],
                       np.array([1.0]), clock, 1.0, dt=1e-3)
        i = arc.jump_indices[0]
        assert arc.states[i, 0] == pytest.approx(np.exp(-0.5), abs=1e-9)
        # second leg: reset to 1 at t=0.5, decays until the jump at the horizon
        i2 = arc.jump_indices[1]
        assert arc.states[i2, 0] == pytest.approx(np.exp(-0.5), abs=1e-9)

    def test_exact_landing_on_jump_times(self):
        clock = ClockConfig(t_low=0.25, t_high=0.25)
        arc = simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.array([1.0]),
                       clock, 1.0, dt=1e-3)
        for tj in arc.jump_times():
            assert tj / 0.25 == pytest.approx(round(tj / 0.25), abs=1e-12)

    def test_dt_too_large_rejected(self):
        clock = ClockConfig(t_low=0.1, t_high=0.1)
        with pytest.raises(InvalidConfigError):
            simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.array([1.0]), clock,
                     1.0, dt=0.05)

    @pytest.mark.parametrize("horizon,dt", [
        (float("nan"), 1e-3), (float("inf"), 1e-3), (1.0, float("nan")),
    ])
    def test_non_finite_horizon_or_dt_rejected(self, horizon, dt):
        clock = ClockConfig(t_low=0.1, t_high=0.1)
        with pytest.raises(InvalidConfigError):
            simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.array([1.0]), clock,
                     horizon, dt=dt)

    def test_arc_past_what_an_array_can_index_rejected(self):
        # 1e303 rows: rejected before anything is allocated, naming the keys
        clock = ClockConfig(t_low=0.1, t_high=0.1)
        with pytest.raises(InvalidConfigError, match="sim.horizon / sim.dt"):
            simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.array([1.0]), clock,
                     1e300, dt=1e-3)

    def test_arc_past_the_bytes_an_array_can_index_rejected(self):
        # 1e16 rows can be indexed; 1e16 rows of 1000 8-byte floats cannot
        clock = ClockConfig(t_low=0.1, t_high=0.1)
        check_step(clock, 1e13, 1e-3, 1)
        with pytest.raises(InvalidConfigError, match="sim.horizon / sim.dt"):
            check_step(clock, 1e13, 1e-3, 1000)
        with pytest.raises(InvalidConfigError, match="sim.horizon / sim.dt"):
            simulate(lambda x: [-v for v in x], lambda t, j, x: x, np.zeros(1000), clock,
                     1e13, dt=1e-3)

    def test_blowup_carries_hybrid_time(self):
        clock = ClockConfig(t_low=0.1, t_high=0.1)
        with pytest.raises(IntegrationBlowupError) as exc, np.errstate(over="ignore"):
            simulate(lambda x: [v * v for v in x], lambda t, j, x: x, np.array([10.0]),
                     clock, 5.0, dt=1e-3)
        assert exc.value.j >= 0
        assert exc.value.t > 0.0

    def test_produced_arc_validates(self):
        clock = ClockConfig(t_low=0.1, t_high=0.3, strategy="uniform", seed=3)
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
        (ClockConfig(t_low=0.02, t_high=0.3, strategy="uniform", seed=5), 3.0, 1e-3),
        # a horizon that is not a multiple of dt
        (ClockConfig(t_low=0.1, t_high=0.1), 1.0037, 1e-3),
        (ClockConfig(t_low=0.07, t_high=0.13, strategy="uniform", seed=2), 2.34567, 3e-3),
        # a horizon shorter than t_low: one flow interval, no jump
        (ClockConfig(t_low=0.1, t_high=0.1), 0.0456, 1e-3),
    ])
    def test_equals_list_built_arc_within_bound(self, clock, horizon, dt):
        x0 = np.array([1.0, 0.0, 0.5])
        arc = simulate(self._flow, self._jump, x0, clock, horizon, dt)
        t, j, states, jump_rows = _list_built_arc(self._flow, self._jump, x0, clock,
                                                  horizon, dt)
        assert len(arc) <= arc_row_bound(clock, horizon, dt)
        assert np.array_equal(arc.t, t)
        assert np.array_equal(arc.j, j)
        assert np.array_equal(arc.states, states)
        assert np.array_equal(arc.jump_indices, jump_rows)
        assert arc.states.shape == states.shape and arc.j.dtype == j.dtype


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
        clock = ClockConfig(t_low=0.5, t_high=0.5)
        arc = HybridArc(
            t=np.array([0.0, 0.1, 0.1, 0.3, 0.3]),
            j=np.array([0, 0, 1, 1, 2]),
            states=np.zeros((5, 1)),
            jump_indices=np.array([1, 3]),
        )
        with pytest.raises(InvalidConfigError):
            validate_arc(arc, clock)
