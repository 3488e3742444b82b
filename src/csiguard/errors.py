"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """A numerical operation failed in a way that invalidates the result."""


class CalibrationError(ValueError):
    """Not enough data (or degenerate data) to calibrate a threshold."""


class ConfigError(ValueError):
    """Invalid configuration key or value."""
