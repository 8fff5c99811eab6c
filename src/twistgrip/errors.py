"""Exception types and the input checks shared across the package."""
import math
import numbers
import os
from itertools import chain

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


def array(name, values, dtype, shape=(None,)):
    """values as a numpy array of dtype and shape (a length per axis, None for any), by real's rule.

    An array of dtype is kept as it is. A bool, at any depth, is no number and a number no bool;
    an object such as a Fraction or an int past 64 bits goes through real; a cast into an integer
    dtype keeps every value; a float is finite; [] has no rows. Else ValidationError names name.
    """
    import numpy as np
    dtype = np.dtype(dtype)
    try:
        given = np.asarray(values)
        if given.shape == (0,):
            return np.empty([n or 0 for n in shape], dtype)
        if given.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, given.shape)):
            raise ValueError
        if given.dtype.kind == "O" and dtype.kind != "b":  # Fractions, huge ints: one by one
            floats = np.fromiter(map(real, given.ravel()), float, given.size).reshape(given.shape)
            given = floats if dtype.kind == "f" else given  # an integer cast reads each exactly
        elif given.dtype.kind not in "biuf" or (given.dtype.kind == "b") != (dtype.kind == "b"):
            raise TypeError
        elif not isinstance(values, np.ndarray) and dtype.kind != "b":  # a list's bool reads 1
            leaves = values
            for _ in range(given.ndim - 1):
                leaves = chain.from_iterable(leaves)
            if not {bool, np.bool_}.isdisjoint(map(type, leaves)):
                raise TypeError
        with np.errstate(invalid="ignore"):  # NaN or out of range: unequal below
            result = given.astype(dtype, copy=False)
        if not (np.isfinite(result).all() if dtype.kind == "f" else
                result is given or np.array_equal(result, given)):
            raise ValueError
        return result
    except (TypeError, ValueError, OverflowError):  # ragged, no number, or not kept
        kind = ("bools" if dtype.kind == "b" else "finite numbers" if dtype.kind == "f" else
                f"integers in [{np.iinfo(dtype).min}, {np.iinfo(dtype).max}]")
        columns = f" in {shape[-1]} columns" if shape[-1] else ""
        raise ValidationError(f"{name} must be a {len(shape)}-D array of {kind}{columns}") from None


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


def require_path(path):
    """os.fspath(path) for a str, bytes or os.PathLike; anything else raises ValidationError.

    An int in particular is no path: open() would take it as a file descriptor and close it.
    A path holding a NUL character is rejected too, where open() would raise ValueError.
    """
    try:
        path = os.fspath(path)
    except TypeError:
        raise ValidationError(f"path must be a str, bytes or os.PathLike, got {path!r}") from None
    if ("\0" if isinstance(path, str) else b"\0") in path:
        raise ValidationError(f"path must not hold a NUL character, got {path!r}")
    return path


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
