"""Exception types shared across the package."""


class AdregError(Exception):
    """Base class for all package errors."""


class InvalidInputError(AdregError):
    """Raised when an operation receives non-finite or ill-shaped data."""


class InvalidConfigError(AdregError):
    """Raised when a configuration violates its invariants."""


class IntegrationBlowupError(AdregError):
    """Raised when the integrator produces a non-finite state.

    Carries the hybrid time, the last finite state and the non-finite
    ``output`` for diagnosis; ``block`` names the part of the state that
    went non-finite, where the caller knows the state's layout.
    """

    def __init__(self, t, j, state, output=None, block="state"):
        self.t = t
        self.j = j
        self.state = state
        self.output = output
        self.block = block
        super().__init__(f"non-finite {block} at t={t:.6g}, j={j}")


class BranchPointError(AdregError):
    """Raised when a Lie derivative is requested at a non-smooth point."""
