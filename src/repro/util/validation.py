"""Argument-validation helpers.

Validation failures raise :class:`repro.errors.InvalidParameterError` with a
message naming the offending parameter, so user errors surface at the public
API boundary rather than deep inside an algorithm.
"""

from __future__ import annotations

import numbers

from repro.errors import InvalidParameterError

__all__ = [
    "check_positive_int",
    "check_nonnegative_int",
    "check_index",
    "check_probability",
]


def _as_int(value: object, name: str) -> int:
    # Exact ints are the common case on every hot path (request fields are
    # checked on each submit); the ``numbers`` ABC checks below cost far
    # more than the whole range check, so they only see everything else.
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_positive_int(value: object, name: str) -> int:
    """Validate that ``value`` is an integer >= 1 and return it as ``int``."""
    ivalue = _as_int(value, name)
    if ivalue < 1:
        raise InvalidParameterError(f"{name} must be >= 1, got {ivalue}")
    return ivalue


def check_nonnegative_int(value: object, name: str) -> int:
    """Validate that ``value`` is an integer >= 0 and return it as ``int``."""
    ivalue = _as_int(value, name)
    if ivalue < 0:
        raise InvalidParameterError(f"{name} must be >= 0, got {ivalue}")
    return ivalue


def check_index(value: object, bound: int, name: str) -> int:
    """Validate that ``value`` is an integer in ``[0, bound)`` and return it."""
    ivalue = _as_int(value, name)
    if not 0 <= ivalue < bound:
        raise InvalidParameterError(f"{name} must be in [0, {bound}), got {ivalue}")
    return ivalue


def check_probability(value: object, name: str) -> float:
    """Validate that ``value`` is a real number in ``[0, 1]`` and return it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    fvalue = float(value)
    if not 0.0 <= fvalue <= 1.0:
        raise InvalidParameterError(f"{name} must be in [0, 1], got {fvalue}")
    return fvalue
