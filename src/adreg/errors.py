"""Exception types shared across the package."""


class AdregError(Exception):
    """Base class for all package errors."""


class InvalidInputError(AdregError):
    """Raised when an operation receives non-finite or ill-shaped data."""


class InvalidConfigError(AdregError):
    """Raised when a configuration violates its invariants."""


class IntegrationBlowupError(AdregError):
    """Raised when the integrator produces a non-finite state, or when an
    identifier's jump cannot give a finite theta.

    Carries the hybrid time, the last finite state and the non-finite
    ``output`` for diagnosis; ``block`` names the part of the state that
    went non-finite, where the caller knows the state's layout, or the
    identifier whose jump failed, and then ``cause`` says why.
    """

    def __init__(self, t, j, state, output=None, block="state", cause=None):
        self.t = t
        self.j = j
        self.state = state
        self.output = output
        where = f"{block} at t={t:.6g}, j={j}"
        super().__init__(f"non-finite {where}" if cause is None else f"{where}: {cause}")


class SweepWorkerError(AdregError):
    """Raised when a forked sweep worker ends without sending its rows back,
    e.g. when it was killed."""
