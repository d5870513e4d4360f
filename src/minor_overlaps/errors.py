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


class InputError(ValueError):
    """An argument outside its range, refused before any set-up.

    ``name`` is the argument's name in the refusing entry point (a parameter
    or an ``ExperimentConfig`` field); the text is ``"{name} must be
    {allowed}, got {value}"``.
    """

    def __init__(self, name: str, value, allowed: str):
        super().__init__(f"{name} must be {allowed}, got {value}")
        self.name, self.value, self.allowed = name, value, allowed


def require(name: str, value, ok: bool, allowed: str):
    """Refuse ``value`` of the argument ``name`` unless ``ok`` (:class:`InputError`)."""
    if not ok:
        raise InputError(name, value, allowed)
