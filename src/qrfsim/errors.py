"""Exception types raised by the library.

Every library error is a ConfigError or a NumericalError: a ConfigError (a
caller's input or precondition) exits 2 from the CLI, a NumericalError (a
failure of the run's arithmetic) exits 3.
"""


class QrfError(Exception):
    """Base class for all library errors."""


class ConfigError(QrfError):
    """A scenario or constructor argument violates a precondition."""


class ScenarioParseError(ConfigError):
    """A scenario file could not be parsed; carries location info when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class NumericalError(QrfError):
    """A numerical invariant failed at run time."""


class GridTooNarrow(ConfigError):
    """Momentum grid does not cover center +- 6 sigma for the requested packet."""


class NonPositiveWidth(ConfigError):
    """A packet width (or other scale parameter) must be strictly positive."""


class ZeroMeanMomentum(ConfigError):
    """Free-particle clock calibration requires a nonzero mean momentum."""


class BadLabel(ConfigError):
    """Frame label out of range or attached to a body that is not a frame."""


class ChartMismatch(ConfigError):
    """An operation was given a state expressed in the wrong chart."""


class EmptyBin(NumericalError):
    """Every measurement bin captured zero probability."""


class NonFiniteSample(NumericalError):
    """An observable or dispersion relation produced NaN/inf on the grid."""


class RoughState(NumericalError):
    """Derivative stencils disagree beyond tolerance; state too rough for the grid."""
