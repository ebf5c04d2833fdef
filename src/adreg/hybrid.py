"""Hybrid time domains, clock strategies, and the flow/jump simulation engine.

Jumps are clock-triggered only: the closed loop's jump set is the clock's
jump window crossed with full spaces, so event detection reduces to exact
stepping onto known jump instants. The final flow step of each interval is
shortened, never overshot.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, IntegrationBlowupError
from .numerics import rk4_step

STRATEGIES = ("periodic", "uniform")


@dataclass(frozen=True)
class ClockConfig:
    """Jump-scheduling clock with inter-jump gaps in [t_low, t_high].

    strategy "periodic" jumps every ``period`` seconds (defaults to t_low);
    strategy "uniform" draws each gap uniformly from [t_low, t_high] with a
    seeded generator, so runs are reproducible, and takes no period.
    """

    t_low: float
    t_high: float
    strategy: str = "periodic"
    period: float = None
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.t_low <= self.t_high):
            raise InvalidConfigError("clock requires 0 < t_low <= t_high")
        if self.strategy not in STRATEGIES:
            raise InvalidConfigError(f"unknown clock strategy {self.strategy!r}")
        if self.strategy == "periodic":
            p = self.period if self.period is not None else self.t_low
            if not (self.t_low <= p <= self.t_high):
                raise InvalidConfigError("periodic period must lie in [t_low, t_high]")
            object.__setattr__(self, "period", p)
        elif self.period is not None:
            raise InvalidConfigError("period applies to the periodic strategy only")

    def make_rng(self):
        """The generator of the uniform strategy's gaps; None for the
        periodic strategy, which draws nothing, so a periodic run never
        imports numpy.random."""
        if self.strategy == "periodic":
            return None
        return np.random.default_rng(self.seed)


def next_jump_time(clock, last_jump_t, rng):
    """Next jump instant after last_jump_t according to the clock strategy;
    ``rng`` is the run's generator from ``clock.make_rng()``, unused (and
    None) for the periodic strategy."""
    if clock.strategy == "periodic":
        return last_jump_t + clock.period
    return last_jump_t + rng.uniform(clock.t_low, clock.t_high)


@dataclass
class HybridArc:
    """Trajectory samples over a hybrid time domain.

    Rows of ``states`` align with ``t`` and ``j``. Jump instants are stored
    twice: pre-jump at (t, j) and post-jump at (t, j+1); ``jump_indices``
    points at the pre-jump rows.
    """

    t: np.ndarray
    j: np.ndarray
    states: np.ndarray
    jump_indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def __len__(self):
        return self.t.size

    def jump_times(self):
        return self.t[self.jump_indices]


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
    if clock is not None and arc.jump_indices.size > 1:
        gaps = np.diff(arc.t[arc.jump_indices])
        if np.any(gaps < clock.t_low - atol) or np.any(gaps > clock.t_high + atol):
            raise InvalidConfigError("inter-jump gap outside [t_low, t_high]")
    return True


def arc_row_bound(clock, horizon, dt):
    """Rows ``simulate`` records on [0, horizon] at step dt, at most.

    The initial row, ceil(horizon/dt) full steps, two more steps per flow
    interval (its shortened last step, and one more should the rounding of
    t leave it short of the interval's end), and each jump's post-jump row.
    Gaps are at least t_low, so there are at most floor(horizon/t_low) + 1
    jumps and one more flow interval.
    """
    jumps = int(horizon // clock.t_low) + 1
    return 1 + math.ceil(horizon / dt) + 2 * (jumps + 1) + jumps


def _arc_too_large(horizon, dt):
    return InvalidConfigError(f"sim.horizon / sim.dt = {horizon!r} / {dt!r} asks for an arc "
                              "buffer larger than can be allocated")


def check_step(clock, horizon, dt, width):
    """Raise InvalidConfigError unless ``simulate`` can run to horizon at step dt
    and its arc buffer, ``arc_row_bound`` rows of ``width`` 8-byte floats, has
    no more bytes than an array can index."""
    if not (0.0 < dt < np.inf and 0.0 < horizon < np.inf):
        raise InvalidConfigError("dt and horizon must be positive and finite")
    if dt > clock.t_low / 10.0:
        raise InvalidConfigError("dt must not exceed t_low / 10")
    most = np.iinfo(np.intp).max // (8 * width)  # rows the buffer can have
    # the first test also keeps an infinite horizon / dt out of arc_row_bound
    if horizon / dt > most or arc_row_bound(clock, horizon, dt) > most:
        raise _arc_too_large(horizon, dt)


def simulate(flow, jump, x0, clock, horizon, dt):
    """Integrate a clock-triggered hybrid system and record the full arc.

    The state is carried as a list of Python floats through flows and jumps:
    flow(x) -> dx/dt, as a sequence of floats; jump(t, j, x) -> x_plus, a
    list of floats. Components the jump map wants held must be copied
    through by the caller's jump function. Each state is written into its
    row of one buffer of ``arc_row_bound`` rows; the arc holds a view of the
    rows used.
    """
    x = [float(v) for v in x0]
    check_step(clock, horizon, dt, len(x))

    rng = clock.make_rng()
    try:
        states = np.empty((arc_row_bound(clock, horizon, dt), len(x)))
    except (MemoryError, ValueError):  # more bytes than memory, or than an array can index
        raise _arc_too_large(horizon, dt) from None
    states[0] = x
    t, jcnt = 0.0, 0
    ts, js = [0.0], [0]
    jump_rows = []

    next_t = next_jump_time(clock, 0.0, rng)
    while True:
        t_end = min(next_t, horizon)
        # flow from t to t_end in steps of dt, shortening the last step
        while t_end - t > 1e-12:
            h = min(dt, t_end - t)
            try:
                x = rk4_step(flow, x, h, t=t)
            except IntegrationBlowupError as exc:
                raise IntegrationBlowupError(exc.t, jcnt, exc.state, exc.output) from None
            t += h
            if t_end - t <= 1e-12:
                t = t_end
            states[len(ts)] = x
            ts.append(t)
            js.append(jcnt)
        if next_t > horizon:
            break
        # clock tick: record pre-jump, apply jump, record post-jump
        jump_rows.append(len(ts) - 1)
        x = jump(t, jcnt, x)
        jcnt += 1
        states[len(ts)] = x
        ts.append(t)
        js.append(jcnt)
        if next_t >= horizon:
            break
        next_t = next_jump_time(clock, next_t, rng)

    return HybridArc(
        t=np.asarray(ts),
        j=np.asarray(js, dtype=int),
        states=states[:len(ts)],
        jump_indices=np.asarray(jump_rows, dtype=int),
    )
