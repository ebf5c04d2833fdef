"""Hybrid time domains, clock strategies, and the flow/jump simulation engine.

Jumps are clock-triggered only: the closed loop's jump set is the clock's
jump window crossed with full spaces, so event detection reduces to exact
stepping onto known jump instants. The final flow step of each interval is
shortened, never overshot.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, IntegrationBlowupError
from .numerics import rk4_step


@dataclass(frozen=True)
class ClockConfig:
    """Jump-scheduling clock with inter-jump gaps in [t_low, t_high].

    strategy "periodic" jumps every ``period`` seconds; strategy "uniform"
    draws each gap uniformly from [t_low, t_high] with a generator seeded by
    ``seed``, so runs are reproducible, and has no period (None). Each value
    is in its range (``scenario.SCHEMA``); the clock checks how they relate.
    """

    t_low: float
    t_high: float
    strategy: str
    period: float
    seed: int

    def __post_init__(self):
        if self.t_low > self.t_high:
            raise InvalidConfigError(f"clock.t_low must be <= clock.t_high = {self.t_high!r}, "
                                     f"got {self.t_low!r}")
        if self.strategy == "periodic" and not self.t_low <= self.period <= self.t_high:
            raise InvalidConfigError(
                "clock.period must lie in [clock.t_low, clock.t_high] = "
                f"[{self.t_low!r}, {self.t_high!r}], got {self.period!r}")

    def jump_times(self):
        """The jump instants, without end. Only the uniform strategy builds a
        generator, to draw its gaps, so a periodic run never imports
        numpy.random."""
        t = 0.0
        if self.strategy == "periodic":
            while True:
                t += self.period
                yield t
        rng = np.random.default_rng(self.seed)
        while True:
            t += rng.uniform(self.t_low, self.t_high)
            yield t


@dataclass
class HybridArc:
    """Trajectory samples over a hybrid time domain.

    Rows of ``states`` align with ``t`` and ``j``; each holds the block of
    state components ``simulate`` was asked to record. Jump instants are stored
    twice: pre-jump at (t, j) and post-jump at (t, j+1), so the pre-jump rows
    are those after which j steps.
    """

    t: np.ndarray
    j: np.ndarray
    states: np.ndarray


def jump_bound(clock, horizon):
    """Jumps ``simulate`` makes on [0, horizon], at most: gaps are at least
    t_low, so floor(horizon/t_low) + 1."""
    return int(horizon // clock.t_low) + 1


def arc_row_bound(clock, horizon, dt):
    """Rows ``simulate`` records on [0, horizon] at step dt, at most.

    The initial row, ceil(horizon/dt) full steps, two more steps per flow
    interval (its shortened last step, and one more should the rounding of
    t leave it short of the interval's end), and each jump's post-jump row.
    There are at most ``jump_bound`` jumps and one more flow interval.
    """
    jumps = jump_bound(clock, horizon)
    return 1 + math.ceil(horizon / dt) + 2 * (jumps + 1) + jumps


def arc_bytes(clock, horizon, dt, width):
    """Bytes of the arc ``simulate`` allocates: ``arc_row_bound`` rows of
    ``width`` state components, t and j, 8 bytes each."""
    return arc_row_bound(clock, horizon, dt) * 8 * (width + 2)


def _arc_too_large(horizon, dt):
    return InvalidConfigError(f"sim.horizon / sim.dt = {horizon!r} / {dt!r} asks for an arc "
                              "buffer larger than can be allocated")


def check_step(clock, horizon, dt, width):
    """Raise InvalidConfigError unless ``simulate`` can run to horizon at step dt
    and its state buffer, ``arc_row_bound`` rows of ``width`` 8-byte floats, has
    no more bytes than an array can index."""
    if not (0.0 < dt < np.inf and 0.0 < horizon < np.inf):
        raise InvalidConfigError("dt and horizon must be positive and finite")
    if dt > clock.t_low / 10.0:
        raise InvalidConfigError(f"sim.dt must be at most clock.t_low / 10 = "
                                 f"{clock.t_low / 10.0!r}, got {dt!r}")
    most = np.iinfo(np.intp).max // (8 * width)  # rows the buffer can have
    # the first test also keeps an infinite horizon / dt out of arc_row_bound
    if horizon / dt > most or arc_row_bound(clock, horizon, dt) > most:
        raise _arc_too_large(horizon, dt)


def simulate(flow, jump, x0, clock, horizon, dt, record=slice(None)):
    """Integrate a clock-triggered hybrid system and record its arc.

    The state is carried as a list of Python floats through flows and jumps:
    flow(x) -> dx/dt, as a sequence of floats; jump(t, j, x) -> x_plus, a
    list of floats. Components the jump map wants held must be copied
    through by the caller's jump function. ``record``, a slice of step 1,
    names the components each row keeps: the whole state by default, or
    ``slice(2, 3)`` for x[2] alone, say. Each row's kept components, t and j are
    written into row n of three buffers of ``arc_row_bound`` rows; the arc
    holds views of the rows used, and ``arc.states`` is 2-D, rows x kept
    components, whatever is kept. A step to a non-finite state raises
    IntegrationBlowupError with its end t, the flow interval's j, the whole
    pre-step state and the step's output.
    """
    x = [float(v) for v in x0]
    width = len(range(len(x))[record])
    check_step(clock, horizon, dt, width)

    rows = arc_row_bound(clock, horizon, dt)
    try:
        states, ts, js = np.empty((rows, width)), np.empty(rows), np.empty(rows, dtype=int)
    except (MemoryError, ValueError):  # more bytes than memory, or than an array can index
        raise _arc_too_large(horizon, dt) from None
    t, jcnt, n = 0.0, 0, 0
    states[n], ts[n], js[n] = x[record], t, jcnt

    # rk4_step is read as this module's global on every step, and the arc's
    # states stay 2-D: bench/ replaces hybrid.rk4_step to time the first step
    # and each step, and reads arc.states.shape
    for next_t in clock.jump_times():
        t_end = min(next_t, horizon)
        # flow from t to t_end in steps of dt, shortening the last step
        while t_end - t > 1e-12:
            h = min(dt, t_end - t)
            out = rk4_step(flow, x, h)
            t += h
            # a finite sum means finite entries; a sum past the float range checks them
            if not math.isfinite(sum(out)) and not all(map(math.isfinite, out)):
                raise IntegrationBlowupError(t, jcnt, x, out)
            x = out
            if t_end - t <= 1e-12:
                t = t_end
            n += 1
            states[n], ts[n], js[n] = x[record], t, jcnt
        if next_t > horizon:
            break
        # clock tick: the last row is pre-jump; apply the jump, record post-jump
        x = jump(t, jcnt, x)
        jcnt += 1
        n += 1
        states[n], ts[n], js[n] = x[record], t, jcnt
        if next_t >= horizon:
            break

    n += 1
    return HybridArc(t=ts[:n], j=js[:n], states=states[:n])
