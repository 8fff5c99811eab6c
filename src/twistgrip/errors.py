"""Exception types and the input checks shared across the package."""
import math
import numbers

_LEAST_POSITIVE, _LARGEST = math.nextafter(0, 1), math.nextafter(math.inf, 0)  # finite floats > 0


class TwistgripError(Exception):
    """Base class for all package errors."""


class DomainError(TwistgripError, ValueError):
    """An input is outside the physical or mathematical domain of an operation."""


class ValidationError(TwistgripError, ValueError):
    """Structured data violates an invariant (non-monotone curve, bad range, ...)."""


class ParseError(TwistgripError, ValueError):
    """A file could not be parsed; message carries the offending line number."""


class FitError(TwistgripError, RuntimeError):
    """A fitting routine cannot produce a result from the given data."""


def real(value):
    """float(value) for a numbers.Real but no bool (+-inf past the float range); else TypeError."""
    if not isinstance(value, float) and type(value) is not int and (  # the ABC test is slower
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise TypeError(f"not a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def within(lo, hi, value):
    """Whether value is a number (see real) in the closed range [lo, hi]."""
    try:  # a plain float skips the call
        return lo <= (value if type(value) is float else real(value)) <= hi
    except TypeError:
        return False


def require_positive(**values):
    """Raise DomainError naming the first value that is not a finite number > 0."""
    for name, value in values.items():
        if not within(_LEAST_POSITIVE, _LARGEST, value):
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


def require_non_negative(**values):
    """Raise DomainError naming the first value that is not a finite number >= 0."""
    for name, value in values.items():
        if not within(0.0, _LARGEST, value):
            raise DomainError(f"{name} must be >= 0 and finite, got {value!r}")


def is_integer(value):
    """Whether value is a numbers.Integral, numpy's too, but no bool: True is no count or id."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_integer(at_least, /, **values):
    """Raise DomainError naming the first value that is no integer (see is_integer) >= at_least."""
    for name, value in values.items():
        if not (is_integer(value) and within(at_least, math.inf, value)):
            raise DomainError(f"{name} must be an integer >= {at_least}, got {value!r}")


def require_key(doc, *keys):
    """Value at a key path in parsed JSON; a missing step raises ValidationError naming the path."""
    value = doc
    for depth, key in enumerate(keys, start=1):
        try:
            value = value[key]
        except (KeyError, IndexError, TypeError):
            path = ".".join(str(k) for k in keys[:depth])
            raise ValidationError(f"missing key {path!r}") from None
    return value
