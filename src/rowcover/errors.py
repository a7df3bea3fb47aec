"""Shared exception types and the integer and real checks every entry point uses."""

from __future__ import annotations

import operator

__all__ = ["DomainError", "checked_int", "checked_real"]


class DomainError(ValueError):
    """Raised when an argument is outside a function's mathematical domain.

    Subclasses ValueError so callers that only care about "bad input" can
    catch the builtin, while the CLI and tests can distinguish domain
    failures from genuine bugs.
    """


def checked_int(value: object, name: str, minimum: int) -> int:
    """value as an int no smaller than minimum, else a DomainError naming it.

    Accepts anything with __index__ (numpy integers, bools) and rejects
    floats, even integral ones, so a count can never silently truncate.
    """
    try:
        result = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if result < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {result}")
    return result


def checked_real(value: object, name: str) -> float:
    """float(value), else a DomainError naming it.

    Accepts whatever float() accepts, numeric strings included; range
    checks stay with the caller.
    """
    try:
        return float(value)
    except OverflowError:
        # str() of an int past 4300 digits raises, so name its size only.
        bits = int(value).bit_length()
        raise DomainError(f"{name} must fit in a double, got {bits} bits") from None
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
