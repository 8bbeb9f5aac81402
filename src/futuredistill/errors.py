"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigurationError(ValueError):
    """A config value or derived quantity is invalid (e.g. non-positive conv output)."""


class UsageError(ValueError):
    """An API was called outside its contract (e.g. backward on a non-scalar)."""


class DivergenceError(RuntimeError):
    """Training produced non-finite values; the step was aborted."""


class SamplingError(ValueError):
    """A clip request cannot be satisfied by the source video."""


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated, or incompatible."""
