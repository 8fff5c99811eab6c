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
REFINE_POINTS = 21
REFINE_ROUNDS = 40


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
    """Exact inverse of predict_load; the piecewise map is strictly increasing."""
    require_non_negative(load=load)
    load_at_transition = spec.slope1 * spec.breakpoint
    if load <= load_at_transition:
        return load / spec.slope1
    return spec.breakpoint + (load - load_at_transition) / spec.slope2


def estimate_object_mass(strain, spec, g=G_DEFAULT):
    """Object mass inferred from the measured strain: m = P(strain) / g, kg."""
    require_positive(g=g)
    return predict_load(strain, spec) / g


def _segment_lstsq(strains, loads, breakpoint):
    """Least squares for the continuous two-segment model through the origin.

    Basis: phi1 = min(s, bp), phi2 = max(s - bp, 0). Returns (s1, s2, sse).
    """
    phi1 = np.minimum(strains, breakpoint)
    phi2 = np.maximum(strains - breakpoint, 0.0)
    design = np.column_stack([phi1, phi2])
    coef, _, _, _ = np.linalg.lstsq(design, loads, rcond=None)
    residuals = loads - design @ coef
    return coef[0], coef[1], float(residuals @ residuals)


def fit_zones(curve):
    """Fit the two-zone model to a payload curve.

    Breakpoint search: exhaustive scan over interior sample strains, then
    iterative 10x refinement of the bracketing interval around the best
    candidate. Continuity at the breakpoint is built into the basis.
    """
    if len(curve) < 4:
        raise FitError(f"need at least 4 samples to fit two zones, got {len(curve)}")
    strains = np.asarray(curve.strains)
    loads = np.asarray(curve.loads)

    candidates = strains[1:-1]
    scores = [_segment_lstsq(strains, loads, bp)[2] for bp in candidates]
    best = int(np.argmin(scores))

    lo = candidates[max(best - 1, 0)]
    hi = candidates[min(best + 1, len(candidates) - 1)]
    best_bp = candidates[best]
    best_sse = scores[best]
    for _ in range(REFINE_ROUNDS):
        grid = np.linspace(lo, hi, REFINE_POINTS)
        sses = [_segment_lstsq(strains, loads, bp)[2] for bp in grid]
        idx = int(np.argmin(sses))
        if sses[idx] < best_sse:
            best_sse = sses[idx]
            best_bp = grid[idx]
        lo = grid[max(idx - 1, 0)]
        hi = grid[min(idx + 1, REFINE_POINTS - 1)]
        if hi - lo < 1e-12 * max(strains[-1], 1.0):
            break

    slope1, slope2, sse = _segment_lstsq(strains, loads, best_bp)

    nonzero = loads > 0
    if nonzero.any():
        phi1 = np.minimum(strains, best_bp)
        phi2 = np.maximum(strains - best_bp, 0.0)
        predicted = slope1 * phi1 + slope2 * phi2
        rel = (predicted[nonzero] - loads[nonzero]) / loads[nonzero]
        rms = float(np.sqrt(np.mean(rel * rel)))
    else:
        rms = 0.0

    degenerate = abs(slope2 - slope1) <= DEGENERATE_SLOPE_RTOL * max(abs(slope1), abs(slope2))
    if not np.isfinite([slope1, slope2]).all() or not degenerate and min(slope1, slope2) <= 0:
        raise FitError(
            f"fit produced non-positive or non-finite slopes ({slope1:.4g}, {slope2:.4g}); "
            "curve does not follow the two-zone model"
        )

    return ZoneFit(
        slope1=float(slope1),
        slope2=float(slope2),
        breakpoint=float(best_bp),
        rms_relative_error=rms,
        degenerate=bool(degenerate),
        max_fitted_strain=float(strains[-1]),
    )
