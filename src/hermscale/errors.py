"""Exception types shared across the package."""


class HermscaleError(Exception):
    """Base class for package-specific failures."""


class AccuracyError(HermscaleError):
    """An adaptive numerical routine could not reach the requested tolerance.

    Carries the achieved error estimate so callers can decide whether the
    partial result is still usable; str() appends it to args[0], the message.
    """

    def __init__(self, message, achieved=None, value=None):
        super().__init__(message)
        self.achieved = achieved
        self.value = value

    def __str__(self):
        if self.achieved is None:
            return super().__str__()
        return f"{super().__str__()} (achieved error estimate {self.achieved:.3e})"


class BracketError(HermscaleError):
    """A root bracket does not contain a sign change."""

    def __init__(self, message, f_lo=None, f_hi=None):
        if f_lo is not None and f_hi is not None:
            message = f"{message} (endpoint values {f_lo:.6e}, {f_hi:.6e})"
        super().__init__(message)
        self.f_lo = f_lo
        self.f_hi = f_hi


class DegenerateBalanceError(BracketError):
    """The balance function vanishes identically on the bracket."""
