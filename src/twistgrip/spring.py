"""Equivalent-spring model of vertical skin deformation with two stiffness zones.

The buckling skin is replaced by a spring of constant cross-section
A = V_s / h0. Load grows piecewise-linearly with normalized strain: a softer
self-balancing zone below the transition strain and a stiffer stable working
zone above it. Effective slopes are S_i = k_i * k0 * V_s / h0 (N per unit
strain); they can be fit as lumped parameters directly from a payload curve,
so the individual k0, V_s, h0 never need to be known.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FitError, ValidationError, require_non_negative, require_positive
from .pressure import G_DEFAULT

DEGENERATE_SLOPE_RTOL = 0.02


@dataclass(frozen=True)
class SkinSpec:
    """Two-zone skin spring: slopes S1 < S2 in N per unit strain, breakpoint in strain.

    Load is S1 * strain up to the breakpoint and continues with slope S2
    above it. Use from_geometry when the physical skin parameters are known.
    """

    slope1: float
    slope2: float
    breakpoint: float

    def __post_init__(self):
        require_positive(slope1=self.slope1, slope2=self.slope2, breakpoint=self.breakpoint)
        if self.slope2 <= self.slope1:
            raise DomainError("slope2 must exceed slope1 (the skin stiffens with load)")

    @classmethod
    def from_slopes(cls, slope1, slope2, breakpoint):
        """Build a spec from lumped slopes S1, S2 (N per unit strain) and the breakpoint."""
        return cls(slope1, slope2, breakpoint)

    @classmethod
    def from_geometry(cls, skin_volume, skin_height, base_stiffness,
                      zone1_coeff, zone2_coeff, transition_strain):
        """Build a spec from the physical skin: S_i = k_i * k0 * V_s / h0.

        skin_volume V_s in m^3, skin_height h0 in m, base_stiffness k0 in N/m
        per m^2; zone1_coeff / zone2_coeff are the dimensionless multipliers
        k1 < k2; transition_strain is the breakpoint as a fraction of h0.
        """
        require_positive(skin_volume=skin_volume, skin_height=skin_height,
                         base_stiffness=base_stiffness, zone1_coeff=zone1_coeff,
                         zone2_coeff=zone2_coeff)
        cross_section = skin_volume / skin_height
        return cls(zone1_coeff * base_stiffness * cross_section,
                   zone2_coeff * base_stiffness * cross_section, transition_strain)


@dataclass(frozen=True)
class PayloadCurve:
    """Ordered (strain, load) samples; strain normalized by skin height."""

    strains: tuple
    loads: tuple
    source: str = ""

    def __post_init__(self):
        strains = np.asarray(self.strains, dtype=float)
        loads = np.asarray(self.loads, dtype=float)
        if strains.shape != loads.shape or strains.ndim != 1:
            raise ValidationError("strains and loads must be 1-D and equal length")
        if not (np.isfinite(strains).all() and np.isfinite(loads).all()):
            raise ValidationError("payload samples must be finite")
        if len(strains) >= 2 and not (np.diff(strains) > 0).all():
            raise ValidationError("strains must be strictly increasing")
        if (loads < 0).any():
            raise ValidationError("loads must be non-negative")
        if len(loads) >= 2 and (np.diff(loads) < 0).any():
            raise ValidationError("loads must be non-decreasing")
        object.__setattr__(self, "strains", tuple(float(s) for s in strains))
        object.__setattr__(self, "loads", tuple(float(p) for p in loads))

    @classmethod
    def from_absolute(cls, deflections, loads, skin_height, source=""):
        """Build from absolute deflections (m) by normalizing with skin_height."""
        require_positive(skin_height=skin_height)
        strains = np.asarray(deflections, dtype=float) / skin_height
        return cls(strains=tuple(strains), loads=tuple(loads), source=source)

    @property
    def samples(self):
        return list(zip(self.strains, self.loads))

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

    def predict(self, strain):
        """Piecewise-linear load at the given strain, N."""
        return predict_load(strain, self)

    def is_extrapolating(self, strain):
        """True when predicting beyond the strain range used for the fit."""
        return np.isfinite(self.max_fitted_strain) and strain > self.max_fitted_strain


def predict_load(strain, spec):
    """Load carried by the skin at the given normalized strain, N.

    Continuous piecewise-linear: S1*strain in the soft zone, then
    S1*t + S2*(strain - t) above the breakpoint t of spec (a SkinSpec or ZoneFit).
    """
    require_non_negative(strain=strain)
    t = spec.breakpoint
    if strain <= t:
        return spec.slope1 * strain
    return spec.slope1 * t + spec.slope2 * (strain - t)


def predict_strain(load, spec):
    """Exact inverse of predict_load; the piecewise map is strictly increasing.

    A zero slope (a ZoneFit of a flat curve) has no inverse in its zone, so a
    load in that zone raises DomainError naming the slope.
    """
    require_non_negative(load=load)
    load_at_transition = spec.slope1 * spec.breakpoint
    zone_slope = "slope1" if load <= load_at_transition else "slope2"
    if getattr(spec, zone_slope) == 0:
        raise DomainError(f"cannot invert load {load!r}: {zone_slope} is 0, so no unique strain "
                          "gives it")
    if load <= load_at_transition:
        return load / spec.slope1
    return spec.breakpoint + (load - load_at_transition) / spec.slope2


def estimate_object_mass(strain, spec, g=G_DEFAULT):
    """Object mass inferred from the measured strain: m = P(strain) / g, kg."""
    require_positive(g=g)
    return predict_load(strain, spec) / g


def fit_zones(curve):
    """Fit the two-zone model to a payload curve: exact least squares over joins in [s_1, s_(n-2)].

    Continuous-hinge method of D. J. Hudson (JASA 61, 1966): a join inside
    (s_j, s_(j+1)) is the meeting point c / (S1 - S2) of a line S1*s through the
    origin left of it and a free line S2*s + c right of it, kept only if it lies
    inside; otherwise that interval's best join is a sample, fit with the basis
    min(s, bp), max(s - bp, 0). Prefix sums give every candidate in one pass.
    """
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
