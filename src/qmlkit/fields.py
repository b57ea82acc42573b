"""What an integer, seed or real field of the public API accepts.

Every number a caller sets, in a record or as an argument, goes through
:func:`integer` or :func:`real`, so each rule is written here once. A
bad value raises ValueError whose message starts with the field's name;
range checks beyond these stay with the record that knows its range.
"""

import math
import numbers
from operator import index


def integer(value, name: str, low: int | None = None) -> int:
    """``value`` as an int: anything ``operator.index`` takes but a bool, NumPy integers included.

    Raises ValueError ``<name>: expected an integer`` for anything else,
    and ``<name> must be >= <low>, got <value>`` below ``low``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = index(value)
    except TypeError:
        raise ValueError(f"{name}: expected an integer") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def real(value, name: str) -> float:
    """``value`` as a finite float: any ``numbers.Real`` but a bool, NumPy's included.

    Raises ValueError ``<name> must be a number`` for anything else,
    ``<name> is too large for a float`` for an integer beyond the float
    range, and ``<name> must be finite`` for NaN or an infinity.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    return x
