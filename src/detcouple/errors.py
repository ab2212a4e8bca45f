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
    """``value`` as an int; it must be an integer (not a bool) in [0, 2**64)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not 0 <= value < KEY_LIMIT:
        raise ValidationError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def _require_positive_int(name: str, value) -> None:
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ValidationError(f"{name} must be a positive integer, got {value}")


def _array_rows(noun: str, rows: int, width: int) -> ValidationError:
    """The error for ``rows`` rows of ``width`` doubles that one array cannot hold.

    It is raised here when the rows would pass numpy's index limit (numpy
    counts an array's bytes in an intp), before anything is allocated, and
    returned for the caller to raise should the allocation meet a MemoryError.
    """
    too_many = ValidationError(f"{rows} {noun} of {width} doubles each are more than an array "
                               "can hold")
    if rows * width * 8 > np.iinfo(np.intp).max:
        raise too_many
    return too_many
