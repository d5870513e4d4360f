"""Exception types shared across the package."""


class NumericError(RuntimeError):
    """A numerical routine failed (decomposition, solver, inversion).

    Carries enough context in the message to reproduce the failure.
    """


class ConvergenceError(NumericError):
    """A fixed-point or root-finding solve did not reach its tolerance."""

    def __init__(self, message, *, z=None, t=None, residual=None):
        super().__init__(message)
        self.z = z
        self.t = t
        self.residual = residual


class PoleError(NumericError):
    """An evaluation landed on (or within tolerance of) a pole."""


class DomainError(ValueError):
    """A formula was evaluated outside its validity domain."""
