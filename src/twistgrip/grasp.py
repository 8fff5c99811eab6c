"""Three-phase grasp trace and explainable feasibility rules.

A grasp proceeds through Approaching, Lifting, and Holding. During
Lifting/Holding the base rotates and the skin's coverage of the object grows
linearly with rotation angle until it saturates at the full close angle.
Feasibility is a deterministic rule cascade over object geometry and
environment (first matching rule wins), each failure carrying a reason code.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

from . import expio
from .errors import DomainError, ValidationError, require_non_negative, require_positive, within
from .pressure import SphericalObject, line_pressure_closed_form

INCH = 0.0254
APERTURE_BY_NAME = {"2in": 2 * INCH, "4in": 4 * INCH, "8in": 8 * INCH}

TRAPPED_AIR_THRESHOLD = 0.6
TRAPPED_AIR_THRESHOLD_AGITATED = 0.9
ELONGATED_LENGTH_RATIO = 2.5
TRACE_STEPS = 16


class Phase(str, Enum):
    APPROACHING = "Approaching"
    LIFTING = "Lifting"
    HOLDING = "Holding"


class ShapeClass(str, Enum):
    SPHERE = "sphere"
    CYLINDER = "cylinder"
    FLAT = "flat"
    ELONGATED = "elongated"
    GRANULAR = "granular"
    DEFORMABLE = "deformable"


class Verdict(str, Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"


class Reason(str, Enum):
    OK = "OK"
    OVERSIZED = "Oversized"
    FLAT_OBJECT = "FlatObject"
    ELONGATED_OBJECT = "ElongatedObject"
    TRAPPED_AIR = "TrappedAir"
    OUTSIDE_PETAL_REGION = "OutsidePetalRegion"


@dataclass(frozen=True)
class GripperGeometry:
    """Aperture diameter (m) and saturation rotation angle (rad)."""

    aperture_diameter: float
    full_close_angle: float = 2.0 * math.pi

    def __post_init__(self):
        require_positive(aperture_diameter=self.aperture_diameter,
                         full_close_angle=self.full_close_angle)

    @classmethod
    def from_name(cls, name):
        """Build from an inch-version preset: '2in', '4in', or '8in'."""
        try:
            aperture = APERTURE_BY_NAME[name]
        except (KeyError, TypeError):  # an unhashable name, such as a list, is no preset
            raise DomainError(
                f"unknown gripper preset {name!r}; choose from {sorted(APERTURE_BY_NAME)}"
            ) from None
        return cls(aperture_diameter=aperture)

    def coverage(self, angle):
        """Fraction of the object embraced at rotation angle: linear then saturating."""
        return min(1.0, max(0.0, angle / self.full_close_angle))


@dataclass(frozen=True)
class ObjectDescriptor:
    shape_class: ShapeClass
    height: float
    diameter: float
    mass: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "shape_class", ShapeClass(self.shape_class))
        except ValueError:
            raise ValidationError(f"shape_class {self.shape_class!r} is not one of "
                                  f"{[c.value for c in ShapeClass]}") from None
        require_positive(height=self.height, diameter=self.diameter)
        require_non_negative(mass=self.mass)


@dataclass(frozen=True)
class GraspScenario:
    gripper: GripperGeometry
    obj: ObjectDescriptor
    submersion_fraction: float = 0.0
    inside_petal_region: bool = True
    agitated_approach: bool = False  # approach combined with rotation to squeeze out air

    def __post_init__(self):
        if not within(0, 1, self.submersion_fraction):
            raise DomainError("submersion_fraction must lie in [0, 1]")
        for name in ("inside_petal_region", "agitated_approach"):
            if not isinstance(getattr(self, name), bool):
                raise ValidationError(f"{name} must be true or false, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class GraspOutcome:
    verdict: Verdict
    reason_code: Reason
    phase_trace: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.verdict is Verdict.INFEASIBLE and self.reason_code is Reason.OK:
            raise DomainError("infeasible outcome must carry a failure reason")


def simulate_phases(geom):
    """Run from rest to Holding in TRACE_STEPS steps; returns [(phase, angle, coverage)].

    The object is inside the petal region, so Approaching hands over to Lifting
    at the first step; the phase becomes Holding when coverage saturates.
    """
    step = geom.full_close_angle / TRACE_STEPS
    require_positive(step_angle=step)  # a step that underflows never ends
    phase, angle = Phase.APPROACHING, 0.0
    trace = [(phase.value, angle, geom.coverage(angle))]
    while phase is not Phase.HOLDING:
        angle += step
        coverage = geom.coverage(angle)
        phase = Phase.HOLDING if coverage >= 1.0 else Phase.LIFTING
        trace.append((phase.value, angle, coverage))
    if angle == math.inf:  # the last step overshot the largest float
        raise DomainError(f"full_close_angle must leave room for one more step, "
                          f"got {geom.full_close_angle!r}")
    return trace


def grasp_feasibility(scenario):
    """Deterministic feasibility verdict with reason code and phase trace.

    Rule cascade, first match wins: object outside the petal region; diameter
    at or above the aperture; flat objects; elongated objects beyond the
    length ratio; submersion above the trapped-air threshold. Anything else
    is feasible. Mass never changes the verdict.
    """
    obj = scenario.obj
    aperture = scenario.gripper.aperture_diameter

    def fail(reason):
        trace = ((Phase.APPROACHING.value, 0.0, 0.0),)
        return GraspOutcome(Verdict.INFEASIBLE, reason, trace)

    if not scenario.inside_petal_region:
        return fail(Reason.OUTSIDE_PETAL_REGION)
    if obj.diameter >= aperture:
        return fail(Reason.OVERSIZED)
    if obj.shape_class is ShapeClass.FLAT:
        return fail(Reason.FLAT_OBJECT)
    if obj.shape_class is ShapeClass.ELONGATED and obj.height > ELONGATED_LENGTH_RATIO * aperture:
        return fail(Reason.ELONGATED_OBJECT)
    agitated = scenario.agitated_approach
    threshold = TRAPPED_AIR_THRESHOLD_AGITATED if agitated else TRAPPED_AIR_THRESHOLD
    if scenario.submersion_fraction >= threshold:
        return fail(Reason.TRAPPED_AIR)
    trace = tuple(simulate_phases(scenario.gripper))
    return GraspOutcome(Verdict.FEASIBLE, Reason.OK, trace)


def holding_pressure(scenario, fric):
    """Line pressure on the object during Holding, N/m.

    The object is approximated as a sphere of its nominal diameter; gentleness
    metric for scenario reports.
    """
    sphere = SphericalObject(mass=scenario.obj.mass, radius=scenario.obj.diameter / 2.0)
    return line_pressure_closed_form(sphere, fric)


@dataclass(frozen=True)
class ValidationRow:
    label: str
    predicted: Verdict
    expected: Verdict
    success_rate: float

    @property
    def agrees(self):
        return self.predicted is self.expected


@dataclass(frozen=True)
class ValidationReport:
    dataset_id: str
    rows: tuple

    @property
    def n_agree(self):
        return sum(1 for row in self.rows if row.agrees)

    @property
    def n_total(self):
        return len(self.rows)


def _expected_verdict(success_rate):
    return Verdict.FEASIBLE if success_rate >= 0.5 else Verdict.INFEASIBLE


def _reference_object(doc):
    """ObjectDescriptor from a reference-table record in grams and millimetres."""
    return ObjectDescriptor(
        shape_class=doc["shape_class"],
        height=doc["height_mm"] / 1000.0,
        diameter=doc["diameter_mm"] / 1000.0,
        mass=doc["mass_g"] / 1000.0,
    )


def validate_against_reference(dataset_id):
    """Replay a bundled reference table through grasp_feasibility.

    dataset_id names a bundled table whose meta names the gripper preset and,
    for rows without object fields, the object. Agreement compares the
    predicted verdict against the recorded success rate (>= 50% means the
    trials mostly succeeded, so Feasible is expected). A table is replayed once
    per process; later calls return the same immutable report.
    """
    if not isinstance(dataset_id, str) or dataset_id not in expio.DATASET_IDS:
        expio.load_reference_dataset(dataset_id)  # raises; an unknown id never reaches the cache
    return _replay(dataset_id)


@functools.cache
def _replay(dataset_id):
    dataset = expio.load_reference_dataset(dataset_id)
    meta = dataset.get("meta", {})
    if "gripper" not in meta:
        raise DomainError(f"dataset {dataset['id']!r} has no feasibility interpretation")
    gripper = GripperGeometry.from_name(meta["gripper"])

    rows = []
    for record in dataset["rows"]:
        doc = {**meta.get("object", {}), **record}
        submersion = doc.get("submersion_fraction", 0.0)
        scenario = GraspScenario(gripper=gripper, obj=_reference_object(doc),
                                 submersion_fraction=submersion)
        rows.append(ValidationRow(
            label=f"submersion {submersion:.0%}" if "submersion_fraction" in doc else doc["name"],
            predicted=grasp_feasibility(scenario).verdict,
            expected=_expected_verdict(doc["success_rate"]),
            success_rate=doc["success_rate"],
        ))
    return ValidationReport(dataset_id=dataset["id"], rows=tuple(rows))
