"""Exception types shared across the package, and the integer check that raises one."""

import operator


class ShapeError(ValueError):
    """Array dimensions do not compose."""


class RangeError(ValueError):
    """A scalar argument (rank, label, index) is outside its valid range."""


class DegenerateInputError(ValueError):
    """Input is valid in shape but degenerate in value (e.g. all-zero matrix)."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite values or failed to converge."""


class StateError(RuntimeError):
    """An operation was called out of order (e.g. backward before forward)."""


class FormatError(ValueError):
    """A file does not match the expected container format."""


class CorruptionError(ValueError):
    """A file matches the format but its contents are internally inconsistent."""


def require_index(name: str, value) -> int:
    """``value`` as a Python int by ``operator.index``, which takes numpy
    integers and rejects floats: otherwise :class:`RangeError` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise RangeError(f"{name} must be an integer, got {value!r}") from None
