"""Static line-pressure model of a funnel skin squeezing a spherical object.

The skin applies a line pressure (force per unit contact length, N/m) on each
half of the gripped sphere. At equilibrium the vertical components of the
gripping and friction forces balance gravity, which yields a closed form for
the bottom-half line pressure:

    p_b = 3 m g / (4 pi (1 + k) r^2)

An independent composite-trapezoid quadrature of the underlying integral is
provided as a cross-check; the two paths must agree to tight relative
tolerance.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .errors import DomainError, real, require_integer, require_non_negative, require_positive, within

G_DEFAULT = 9.81  # m/s^2
N_INTERVALS_DEFAULT = 100_000


@dataclass(frozen=True)
class SphericalObject:
    """Gripped sphere: mass in kg, radius in m; the pressures divide by r^2, so it must be normal."""

    mass: float
    radius: float

    def __post_init__(self):
        require_non_negative(mass=self.mass)
        require_positive(radius=self.radius)
        for name in ("mass", "radius"):  # kept as floats: a float32 would compute in float32
            object.__setattr__(self, name, real(getattr(self, name)))
        if not sys.float_info.min <= self.radius * self.radius < math.inf:
            raise DomainError(f"radius must square to a finite normal float, got {self.radius!r}")


@dataclass(frozen=True)
class FrictionModel:
    """Dimensionless skin/object friction coefficient, 0 <= k < 1."""

    k: float

    def __post_init__(self):
        if not (within(0, 1, self.k) and self.k < 1):
            raise DomainError(f"friction coefficient must satisfy 0 <= k < 1, got {self.k}")
        object.__setattr__(self, "k", real(self.k))


@dataclass(frozen=True)
class PressureDistribution:
    """Uniform bottom-half line pressure on the sphere, N/m; the top half's is neglected."""

    p_bottom: float

    def __post_init__(self):
        require_non_negative(p_bottom=self.p_bottom)
        object.__setattr__(self, "p_bottom", real(self.p_bottom))


def _line_pressure(obj, g, weight, support):
    """weight / support, N/m; DomainError names the radius or mass that overflows either."""
    if support == math.inf:
        raise DomainError(f"radius must keep the support integral finite, got {obj.radius!r}")
    p = weight / support
    if p == math.inf:  # also when the weight itself overflowed
        raise DomainError(f"mass must give a finite line pressure on radius {obj.radius!r} "
                          f"at g={g!r}, got {obj.mass!r}")
    return p


def line_pressure_closed_form(obj, fric, g=G_DEFAULT):
    """Closed-form bottom-half line pressure p_b = 3mg / (4 pi (1+k) r^2), N/m."""
    require_non_negative(g=g)
    return _line_pressure(obj, g, 3.0 * obj.mass * real(g),
                          4.0 * math.pi * (1.0 + fric.k) * obj.radius**2)


def _grid_terms(n_intervals):
    """_unit_trapezoid_terms, for integers n_intervals >= 2 only (the cache keys 2.0 as 2)."""
    require_integer(2, n_intervals=n_intervals)
    return _unit_trapezoid_terms(int(n_intervals))


@functools.cache
def _unit_trapezoid_terms(n_intervals):
    """Trapezoid sums of u*sqrt(1-u^2) and u^2 on the uniform grid over [0, 1].

    The support integrand rescales exactly onto the unit interval
    (substitute x = r*u), so these two sums are the only quadrature work; they
    are cached per grid resolution. numpy is imported here, on the first
    quadrature, so the modules that import this one start without it.
    """
    import numpy as np
    try:
        u = np.linspace(0.0, 1.0, n_intervals + 1)
    except (ValueError, IndexError) as exc:  # more points than an array can index
        raise MemoryError(f"{n_intervals + 1} grid points: {exc}") from None
    a = float(np.trapezoid(u * np.sqrt(np.clip(1.0 - u * u, 0.0, None)), u))
    b = float(np.trapezoid(u * u, u))
    return a, b


def line_pressure_quadrature(obj, fric, g=G_DEFAULT, n_intervals=N_INTERVALS_DEFAULT):
    """Bottom-half line pressure via numerical quadrature of the force balance.

    Independent of the closed form: evaluates p_b = mg / (4 pi I) with I the
    composite trapezoid of integral_0^r (sqrt(r^2-x^2)/r + k*x/r) x dx,
    evaluated on the normalized grid and rescaled by r^2 (an exact identity
    of the trapezoid rule under x = r*u). The integrand has an infinite-slope
    endpoint at x = r, so convergence is O(n^-1.5) rather than the
    smooth-integrand O(n^-2); the default n_intervals = 1e5 leaves a relative
    error around 2e-8.
    """
    require_non_negative(g=g)
    a, b = _grid_terms(n_intervals)
    r = obj.radius
    return _line_pressure(obj, g, obj.mass * real(g), 4.0 * math.pi * (r * r * (a + fric.k * b)))


def equilibrium_residual(obj, fric, dist, g=G_DEFAULT, n_intervals=N_INTERVALS_DEFAULT):
    """Residual of the vertical force balance, N.

    Returns m*g minus the integrated vertical support
    4 pi * integral_0^r p_b (sin a + k cos a) x dx with a(x) = arccos(x/r).
    Zero (within quadrature error) when p_b is the closed-form value. The
    integral is a trapezoid sum on the normalized grid, rescaled by r^2.
    """
    require_non_negative(g=g)
    r = obj.radius
    a, b = _grid_terms(n_intervals)
    support = 4.0 * math.pi * r * r * (dist.p_bottom * (a + fric.k * b))
    residual = obj.mass * real(g) - support
    if not -math.inf < residual < math.inf:
        raise DomainError(f"radius must keep the support integral finite at p_bottom="
                          f"{dist.p_bottom!r}, got {r!r}")
    return residual
