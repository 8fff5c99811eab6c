"""Equivalent-spring model of vertical skin deformation with two stiffness zones.

The buckling skin is replaced by a spring of constant cross-section
A = V_s / h0. Load grows piecewise-linearly with normalized strain: a softer
self-balancing zone below the transition strain and a stiffer stable working
zone above it. Effective slopes are S_i = k_i * k0 * V_s / h0 (N per unit
strain); they can be fit as lumped parameters directly from a payload curve,
so the individual k0, V_s, h0 never need to be known.

numpy is imported only inside the functions that build arrays, so
SkinSpec and the predictors run without loading it.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import (DomainError, FitError, ValidationError, array, real, require_non_negative,
                     require_positive, within)
from .pressure import G_DEFAULT

DEGENERATE_SLOPE_RTOL = 0.02


@dataclass(frozen=True)
class SkinSpec:
    """Two-zone skin spring: slopes S1 < S2 in N per unit strain, breakpoint in strain.

    Load is S1 * strain up to the breakpoint and continues with slope S2
    above it.
    """

    slope1: float
    slope2: float
    breakpoint: float

    def __post_init__(self):
        require_positive(slope1=self.slope1, slope2=self.slope2, breakpoint=self.breakpoint)
        if self.slope2 <= self.slope1:
            raise DomainError("slope2 must exceed slope1 (the skin stiffens with load)")
        for name in ("slope1", "slope2", "breakpoint"):  # a float32 would compute in float32
            object.__setattr__(self, name, real(getattr(self, name)))

    @classmethod
    def from_slopes(cls, slope1, slope2, breakpoint):
        """The constructor under another name; perfbench is its only reader."""
        return cls(slope1, slope2, breakpoint)


@dataclass(frozen=True)
class PayloadCurve:
    """Ordered (strain, load) samples; strain normalized by skin height."""

    strains: tuple
    loads: tuple

    def __post_init__(self):
        strains, loads = array("strains", self.strains, float), array("loads", self.loads, float)
        if len(strains) != len(loads):
            raise ValidationError("strains and loads must be 1-D and equal length")
        if not (strains[1:] > strains[:-1]).all():
            raise ValidationError("strains must be strictly increasing")
        if (loads < 0).any():
            raise ValidationError("loads must be non-negative")
        if (loads[1:] < loads[:-1]).any():
            raise ValidationError("loads must be non-decreasing")
        object.__setattr__(self, "strains", tuple(strains.tolist()))
        object.__setattr__(self, "loads", tuple(loads.tolist()))

    @classmethod
    def from_absolute(cls, deflections, loads, skin_height):
        """Build from absolute deflections (m) by normalizing with skin_height."""
        import numpy as np
        require_positive(skin_height=skin_height)
        with np.errstate(over="ignore"):
            strains = array("deflections", deflections, float) / real(skin_height)
        if not np.isfinite(strains).all():
            raise DomainError(f"skin_height must give finite strains, got {skin_height!r}")
        return cls(strains=strains, loads=loads)

    def __len__(self):
        return len(self.strains)


@dataclass(frozen=True)
class ZoneFit:
    """Result of the continuous two-segment least-squares fit.

    Slopes in N per unit strain; breakpoint in strain. degenerate is set when
    a single slope already explains the data (slopes within 2% of each
    other), in which case the breakpoint is unreliable.
    """

    slope1: float
    slope2: float
    breakpoint: float
    rms_relative_error: float
    degenerate: bool = False
    max_fitted_strain: float = field(default=float("nan"))

    def __post_init__(self):
        require_non_negative(slope1=self.slope1, slope2=self.slope2, breakpoint=self.breakpoint,
                             rms_relative_error=self.rms_relative_error)
        for name in ("slope1", "slope2", "breakpoint"):  # a float32 would compute in float32
            object.__setattr__(self, name, real(getattr(self, name)))

    def predict(self, strain):
        """Piecewise-linear load at the given strain, N."""
        return predict_load(strain, self)


def predict_load(strain, spec):
    """Load carried by the skin at the given normalized strain, N.

    Continuous piecewise-linear: S1*strain in the soft zone, then
    S1*t + S2*(strain - t) above the breakpoint t of spec (a SkinSpec or ZoneFit).
    """
    if not within(0.0, sys.float_info.max, strain):  # per-sample callers skip the keyword call
        require_non_negative(strain=strain)
    if type(strain) is not float:  # a float32 would compute in float32
        strain = real(strain)
    t = spec.breakpoint
    load = spec.slope1 * strain if strain <= t else spec.slope1 * t + spec.slope2 * (strain - t)
    if load == math.inf:
        raise DomainError(f"strain must give a finite load, got {strain!r}")
    return load


def predict_strain(load, spec):
    """Exact inverse of predict_load; the piecewise map is strictly increasing.

    A zero slope (a ZoneFit of a flat curve) has no inverse in its zone, so a
    load in that zone raises DomainError naming the slope.
    """
    require_non_negative(load=load)
    load = real(load)
    load_at_transition = spec.slope1 * spec.breakpoint
    zone_slope = "slope1" if load <= load_at_transition else "slope2"
    if getattr(spec, zone_slope) == 0:
        raise DomainError(f"cannot invert load {load!r}: {zone_slope} is 0, so no unique strain "
                          "gives it")
    if load <= load_at_transition:
        strain = load / spec.slope1
    else:
        strain = spec.breakpoint + (load - load_at_transition) / spec.slope2
    if strain == math.inf:
        raise DomainError(f"load must give a finite strain, got {load!r}")
    return strain


def estimate_object_mass(strain, spec, g=G_DEFAULT):
    """Object mass inferred from the measured strain: m = P(strain) / g, kg."""
    require_positive(g=g)
    mass = predict_load(strain, spec) / real(g)
    if mass == math.inf:
        raise DomainError(f"g must give a finite mass, got {g!r}")
    return mass


def fit_zones(curve):
    """Fit the two-zone model to a payload curve: exact least squares over joins in [s_1, s_(n-2)].

    Continuous-hinge method of D. J. Hudson (JASA 61, 1966): a join inside
    (s_j, s_(j+1)) is the meeting point c / (S1 - S2) of a line S1*s through the
    origin left of it and a free line S2*s + c right of it, kept only if it lies
    inside; otherwise that interval's best join is a sample, fit with the basis
    min(s, bp), max(s - bp, 0). Prefix sums give every candidate in one pass.
    """
    import numpy as np
    if len(curve) < 4:
        raise FitError(f"need at least 4 samples to fit two zones, got {len(curve)}")
    strains = np.asarray(curve.strains)
    loads = np.asarray(curve.loads)

    with np.errstate(all="ignore"):  # empty or degenerate splits become NaN
        sums = np.cumsum([np.ones_like(strains), strains, strains * strains,
                          loads, strains * loads], axis=1)
        l2, lsy = sums[2, 1:-1], sums[4, 1:-1]  # samples 0..j for each j = 1..n-2
        m, r1, r2, ry, rsy = sums[:, -1:] - sums[:, 1:-1]  # samples j+1..n-1

        bp = strains[1:-1]  # join at a sample
        a11 = l2 + m * bp * bp
        a12 = bp * (r1 - m * bp)
        a22 = r2 - 2.0 * bp * r1 + m * bp * bp
        b1 = lsy + bp * ry
        b2 = rsy - bp * ry
        det = a11 * a22 - a12 * a12
        at_sample = np.array([(a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det, bp])

        s1 = lsy / l2  # join inside (s_j, s_(j+1)), j = 1..n-3
        det_r = m * r2 - r1 * r1
        s2 = (m * rsy - r1 * ry) / det_r
        c = (r2 * ry - r1 * rsy) / det_r
        inside = np.array([s1, s2, c / (s1 - s2)])[:, :-1]
        found = (strains[1:-2] < inside[2]) & (inside[2] < strains[2:-1])

        candidates = np.concatenate([at_sample, inside], axis=1)
        explained = np.concatenate([at_sample[0] * b1 + at_sample[1] * b2,
                                    np.where(found, (s1 * lsy + s2 * rsy + c * ry)[:-1], np.nan)])
        best = np.argmax(np.where(np.isnan(explained), -np.inf, explained))
        slope1, slope2, best_bp = candidates[:, best]

        degenerate = abs(slope2 - slope1) <= DEGENERATE_SLOPE_RTOL * max(abs(slope1), abs(slope2))
        if not np.isfinite([slope1, slope2]).all() or not degenerate and min(slope1, slope2) <= 0:
            raise FitError(
                f"fit produced non-positive or non-finite slopes ({slope1:.4g}, {slope2:.4g}); "
                "curve does not follow the two-zone model"
            )

        nonzero = loads > 0
        if nonzero.any():
            predicted = (slope1 * np.minimum(strains, best_bp)
                         + slope2 * np.maximum(strains - best_bp, 0.0))
            rel = (predicted[nonzero] - loads[nonzero]) / loads[nonzero]
            rms = float(np.sqrt(np.mean(rel * rel)))
        else:
            rms = 0.0

    return ZoneFit(
        slope1=float(slope1),
        slope2=float(slope2),
        breakpoint=float(best_bp),
        rms_relative_error=rms,
        degenerate=bool(degenerate),
        max_fitted_strain=float(strains[-1]),
    )
