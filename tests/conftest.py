"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from adreg.identifier import LsIdentifier, MiniBatchIdentifier


@pytest.fixture
def fed_samples(monkeypatch):
    """The samples (k, eta, u) that the identifiers' jumps take during the
    test, in order: k counts them from 0, eta is a copy of what the jump was
    given and u is the u it was given."""
    samples = []
    for cls in (LsIdentifier, MiniBatchIdentifier):
        def spy(self, eta_in, u_out, _jump=cls.jump):
            samples.append((len(samples), np.array(eta_in), u_out))
            _jump(self, eta_in, u_out)

        monkeypatch.setattr(cls, "jump", spy)
    return samples
