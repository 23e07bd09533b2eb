"""Exception types shared across the package.

Everything raised for bad user input derives from InputError so the CLI
can map it to exit code 2 (configuration/validation failure).
"""


class InputError(ValueError):
    """Invalid argument value, malformed configuration, or schema violation."""


class ParseError(InputError):
    """A data file failed to parse; carries file name and 1-based line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class InsufficientDataError(InputError):
    """Input data does not cover the requested window or grid."""


class ReplayError(InputError):
    """A replayed arbitrage leaves the float range or takes the whole position."""


class FitError(InputError):
    """Regression could not be performed on the given points."""
