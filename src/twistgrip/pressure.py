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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_non_negative, require_positive

G_DEFAULT = 9.81  # m/s^2
N_INTERVALS_DEFAULT = 100_000


@dataclass(frozen=True)
class SphericalObject:
    """Gripped sphere: mass in kg, radius in m."""

    mass: float
    radius: float

    def __post_init__(self):
        require_non_negative(mass=self.mass)
        require_positive(radius=self.radius)


@dataclass(frozen=True)
class FrictionModel:
    """Dimensionless skin/object friction coefficient, 0 <= k < 1."""

    k: float

    def __post_init__(self):
        if not 0.0 <= self.k < 1.0:
            raise DomainError(f"friction coefficient must satisfy 0 <= k < 1, got {self.k}")


@dataclass(frozen=True)
class PressureDistribution:
    """Uniform line pressures on the two halves of the sphere, N/m.

    The top-half pressure defaults to 0: it is much smaller than the bottom
    half in practice and is neglected in the closed form. A nonzero value is
    accepted for sensitivity studies.
    """

    p_bottom: float
    p_top: float = 0.0

    def __post_init__(self):
        require_non_negative(p_bottom=self.p_bottom, p_top=self.p_top)


def line_pressure_closed_form(obj, fric, g=G_DEFAULT):
    """Closed-form bottom-half line pressure p_b = 3mg / (4 pi (1+k) r^2), N/m."""
    require_non_negative(g=g)
    return 3.0 * obj.mass * g / (4.0 * math.pi * (1.0 + fric.k) * obj.radius**2)


_UNIT_TRAPEZOID_CACHE = {}


def _unit_trapezoid_terms(n_intervals):
    """Trapezoid sums of u*sqrt(1-u^2) and u^2 on the uniform grid over [0, 1].

    The support integrand rescales exactly onto the unit interval
    (substitute x = r*u), so these two sums are the only quadrature work; they
    are cached per grid resolution.
    """
    cached = _UNIT_TRAPEZOID_CACHE.get(n_intervals)
    if cached is None:
        u = np.linspace(0.0, 1.0, n_intervals + 1)
        a = float(np.trapezoid(u * np.sqrt(np.clip(1.0 - u * u, 0.0, None)), u))
        b = float(np.trapezoid(u * u, u))
        cached = (a, b)
        _UNIT_TRAPEZOID_CACHE[n_intervals] = cached
    return cached


def _support_integral(radius, k, n_intervals):
    """Composite trapezoid of integral_0^r (sqrt(r^2-x^2)/r + k*x/r) x dx.

    Evaluated on the normalized grid and rescaled by r^2 (an exact identity
    of the trapezoid rule under x = r*u). The integrand has an infinite-slope
    endpoint at x = r, so convergence is O(n^-1.5) rather than the
    smooth-integrand O(n^-2); the default n_intervals = 1e5 leaves a relative
    error around 2e-8.
    """
    a, b = _unit_trapezoid_terms(int(n_intervals))
    return radius * radius * (a + k * b)


def line_pressure_quadrature(obj, fric, g=G_DEFAULT, n_intervals=N_INTERVALS_DEFAULT):
    """Bottom-half line pressure via numerical quadrature of the force balance.

    Independent of the closed form: evaluates p_b = mg / (4 pi I) with I the
    trapezoid approximation of the support integral over x in [0, r].
    """
    require_non_negative(g=g)
    if n_intervals < 2:
        raise DomainError(f"n_intervals must be >= 2, got {n_intervals}")
    integral = _support_integral(obj.radius, fric.k, int(n_intervals))
    return obj.mass * g / (4.0 * math.pi * integral)


def pressure_components(p, alpha):
    """Split a line pressure into (vertical, horizontal) = (p sin a, p cos a).

    alpha is the contact angle in radians, 0 at the equator direction and
    pi/2 at the locking base.
    """
    require_non_negative(p=p)
    if not 0.0 <= alpha <= math.pi / 2.0:
        raise DomainError(f"contact angle alpha must lie in [0, pi/2], got {alpha}")
    return p * math.sin(alpha), p * math.cos(alpha)


def equilibrium_residual(obj, fric, dist, g=G_DEFAULT, n_intervals=N_INTERVALS_DEFAULT):
    """Residual of the vertical force balance, N.

    Returns m*g minus the integrated vertical support
    4 pi * integral_0^r [p_b (sin a + k cos a) + p_t (-sin a + k cos a)] x dx
    with a(x) = arccos(x/r). Zero (within quadrature error) when p_b is the
    closed-form value and p_t = 0. Both integrals are trapezoid sums on the
    normalized grid, rescaled by r^2.
    """
    require_non_negative(g=g)
    r = obj.radius
    k = fric.k
    a, b = _unit_trapezoid_terms(int(n_intervals))
    support = 4.0 * math.pi * r * r * (
        dist.p_bottom * (a + k * b) + dist.p_top * (-a + k * b)
    )
    return obj.mass * g - support
