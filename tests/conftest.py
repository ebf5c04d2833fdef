"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from adreg.identifier import LsIdentifier, MiniBatchIdentifier


@pytest.fixture
def fed_samples(monkeypatch):
    """The samples (eta, u) that the identifiers' jumps take during the
    test, in order: eta is a copy of what the jump was given and u is the u
    it was given."""
    samples = []
    for cls in (LsIdentifier, MiniBatchIdentifier):
        def spy(self, eta_in, u_out, _jump=cls.jump):
            samples.append((np.array(eta_in), u_out))
            _jump(self, eta_in, u_out)

        monkeypatch.setattr(cls, "jump", spy)
    return samples


@pytest.fixture
def numpy_rk4_step():
    """The RK4 step on numpy arrays that the list step replaced,
    ``step(field, state, dt)``: the stages combined in place in the arrays
    the field returns. Its output may hold non-finite entries."""
    def step(field, state, dt):
        k1 = field(state)
        k2 = field(state + 0.5 * dt * k1)
        k3 = field(state + 0.5 * dt * k2)
        k4 = field(state + dt * k3)
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= dt / 6.0
        k1 += state
        return k1

    return step
