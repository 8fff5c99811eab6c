"""Exception types and the input checks shared across the package."""
import math
import numbers


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


def require_positive(**values):
    """Raise DomainError naming the first value that is not a finite number > 0."""
    for name, value in values.items():
        try:
            if 0 < value < math.inf:
                continue
        except TypeError:  # a JSON string or null names the field like NaN does
            pass
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def require_non_negative(**values):
    """Raise DomainError naming the first value that is not a finite number >= 0."""
    for name, value in values.items():
        try:
            if 0 <= value < math.inf:
                continue
        except TypeError:
            pass
        raise DomainError(f"{name} must be >= 0 and finite, got {value!r}")


def require_integer(at_least, /, **values):
    """Raise DomainError naming the first value that is not an integer >= at_least.

    Any numbers.Integral counts, numpy's included; bool does not, since True is no count or size.
    """
    for name, value in values.items():
        if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                and value >= at_least):
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
