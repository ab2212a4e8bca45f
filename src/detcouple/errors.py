"""Exception types and the argument checks shared across the package."""

import numpy as np

KEY_LIMIT = 2**64     # seeds and path indices are Philox key words


class DetcoupleError(ValueError):
    """Base class for all library errors."""


class ValidationError(DetcoupleError):
    """A point or configuration violates a model-space constraint."""


class AdmissibilityError(DetcoupleError):
    """A (distance, derivative) pair lies outside the admissible band."""


class DegenerateStateError(DetcoupleError):
    """The coupled state is degenerate (coincident or antipodal points)."""


def _key_word(name: str, value) -> int:
    value = int(value)
    if not 0 <= value < KEY_LIMIT:
        raise ValidationError(f"{name} must lie in [0, 2**64), got {value}")
    return value


def _require_positive_int(name: str, value) -> None:
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ValidationError(f"{name} must be a positive integer, got {value}")
