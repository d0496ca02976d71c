"""Exception types shared across the package, and the one positive-and-finite rule."""

import math

__all__ = ["DegenerateGeometryError", "CoincidentPointsError", "ConfigError", "NumericalError"]


class DegenerateGeometryError(ValueError):
    """Raised when a TX/RX pair geometry leaves the model's validity region."""


class CoincidentPointsError(DegenerateGeometryError):
    """Raised when a field point coincides with a source point (singular kernel)."""


class NumericalError(ValueError):
    """Raised when a channel matrix or its spectrum is not finite."""


class ConfigError(ValueError):
    """Raised by the benchmark layer when a sweep config is invalid.

    The message lists every violation found, one per line.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("invalid sweep config:\n" + "\n".join(f"  - {v}" for v in self.violations))


def _require_positive(name, value, error=ValueError):
    """Raise ``error`` unless ``0 < value < inf``; NaN and both infinities fail too."""
    if not 0 < value < math.inf:
        raise error(f"{name} must be positive and finite, got {value}")
