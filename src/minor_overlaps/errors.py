"""Exception types shared across the package."""


class NumericError(RuntimeError):
    """A numerical routine failed (decomposition, solver, inversion).

    Carries enough context in the message to reproduce the failure.
    """


class ConvergenceError(NumericError):
    """A fixed-point or root-finding solve did not reach its tolerance."""


class PoleError(NumericError):
    """An evaluation landed on (or within tolerance of) a pole."""


class DomainError(ValueError):
    """A formula was evaluated outside its validity domain."""
