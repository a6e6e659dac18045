"""Exception types shared across the toolkit."""


class BijumbleError(Exception):
    """Base class for all toolkit errors."""


class ParseError(BijumbleError):
    """Malformed graph/pattern/instance text. Carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParameterError(BijumbleError, ValueError):
    """A numeric or structural argument is outside its admissible range."""


class UndefinedDensityError(ParameterError):
    """Density of a pair with an empty side is undefined."""


class CapacityError(BijumbleError):
    """An exact enumeration would exceed its configured resource limit."""
