"""Exception types, and the value rules of arguments and JSON fields that raise them."""

import math
import numbers
from dataclasses import fields


class ParameterError(ValueError):
    """Raised when an argument violates an operation's precondition."""


class SchemaError(ValueError):
    """Raised when a CSV or JSON artifact does not match its expected schema."""


def whole(name: str, value) -> int:
    """``value`` as an int; a bool, text or number that is not a whole number fails."""
    if type(value) is int:  # the common case, before the slower ABC checks
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _finite_real(value) -> bool:
    """A real number, not a bool, that converts to a finite float: NaN, an infinity and an
    int past the float range do not."""
    try:
        return ((type(value) in (int, float) or not isinstance(value, bool)
                 and isinstance(value, numbers.Real)) and math.isfinite(value))
    except OverflowError:  # the conversion of such an int
        return False


def finite_real(name: str, value):
    """``value`` as given if it is a finite real number; a bool, text or NaN fails."""
    if not _finite_real(value):
        raise ParameterError(f"{name} must be a finite number, got {value!r}")
    return value


def nonnegative_finite(config, names) -> None:
    """Fail unless each named field of ``config`` is a number in [0, inf); a bool is not one."""
    for name in names:
        value = getattr(config, name)
        if not (_finite_real(value) and value >= 0.0):
            raise ParameterError(f"{name} must be non-negative and finite, got {value!r}")


def every_field(kind, values, label: str):
    """``values``; SchemaError naming the first field of the dataclass ``kind`` it lacks."""
    for f in fields(kind) if isinstance(values, dict) else ():
        if f.name not in values:
            raise SchemaError(f"{label} is missing key {f.name!r}")
    return values
