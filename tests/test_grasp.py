import dataclasses
import json

import numpy as np
import pytest

from twistgrip import expio, grasp
from twistgrip.grasp import (
    GraspScenario,
    GripperGeometry,
    ObjectDescriptor,
    Phase,
    Reason,
    ShapeClass,
    Verdict,
    grasp_feasibility,
    holding_pressure,
    simulate_phases,
    validate_against_reference,
)
from twistgrip.pressure import FrictionModel

FOUR_INCH = GripperGeometry.from_name("4in")


def make_object(shape=ShapeClass.CYLINDER, height=0.1, diameter=0.05, mass=0.2):
    return ObjectDescriptor(shape_class=shape, height=height, diameter=diameter, mass=mass)


class TestGripperGeometry:
    @pytest.mark.parametrize("name,aperture", [("2in", 0.0508), ("4in", 0.1016), ("8in", 0.2032)])
    def test_inch_presets(self, name, aperture):
        assert GripperGeometry.from_name(name).aperture_diameter == pytest.approx(aperture)

    def test_float32_aperture_gives_the_float64_verdict(self):
        # 2.5 times the aperture is 0.25 in float32, just below the rod in float64
        rod = make_object(shape=ShapeClass.ELONGATED, height=0.25000001, diameter=0.05, mass=0.1)
        for aperture in (np.float32(0.1), float(np.float32(0.1))):
            outcome = grasp_feasibility(GraspScenario(GripperGeometry(aperture), rod))
            assert outcome.reason_code is Reason.ELONGATED_OBJECT

    def test_float32_close_angle_gives_a_trace_of_floats(self):
        trace = simulate_phases(GripperGeometry(0.1, np.float32(6.0)))
        assert {type(v) for _, angle, cov in trace for v in (angle, cov)} == {float}
        assert json.loads(json.dumps(trace)) == [list(step) for step in trace]

    def test_coverage_saturates(self):
        geom = GripperGeometry(aperture_diameter=0.1, full_close_angle=2.0)
        assert geom.coverage(0.0) == 0.0
        assert geom.coverage(1.0) == 0.5
        assert geom.coverage(5.0) == 1.0


TRACE_GRIPPERS = [GripperGeometry.from_name(name) for name in ("2in", "4in", "8in")] + [
    GripperGeometry(aperture_diameter=0.2, full_close_angle=3.7)]


@pytest.mark.parametrize("geom", TRACE_GRIPPERS, ids=["2in", "4in", "8in", "custom"])
def test_phase_trace_is_a_running_sum_ending_in_holding(geom):
    trace = simulate_phases(geom)
    phases = [phase for phase, _, _ in trace]
    assert phases == ([Phase.APPROACHING.value] + [Phase.LIFTING.value] * (len(trace) - 2)
                      + [Phase.HOLDING.value])
    assert trace[0][1:] == (0.0, 0.0)
    step = trace[1][1]
    assert step > 0.0
    # each angle is the previous one plus the same step; a k * step closed form differs in the
    # last bits, and those reach the printed trace
    assert all(b[1] == a[1] + step for a, b in zip(trace, trace[1:]))
    assert all(cov == geom.coverage(angle) for _, angle, cov in trace)
    assert all(b[2] >= a[2] for a, b in zip(trace, trace[1:]))
    assert trace[-1][2] == 1.0 and trace[-2][2] < 1.0


class TestFeasibility:
    def test_coffee_can_feasible(self):
        obj = make_object(height=0.105, diameter=0.053, mass=0.216)  # coffee can
        outcome = grasp_feasibility(GraspScenario(gripper=FOUR_INCH, obj=obj))
        assert outcome.verdict is Verdict.FEASIBLE
        assert outcome.reason_code is Reason.OK
        assert outcome.phase_trace[-1][2] == 1.0

    def test_flat_disc_infeasible(self):
        disc = make_object(shape=ShapeClass.FLAT, height=0.0012, diameter=0.12, mass=0.015)
        # 120 mm disc also exceeds the 101.6 mm aperture, so test against the
        # larger gripper to isolate the flat-object rule
        outcome = grasp_feasibility(GraspScenario(gripper=GripperGeometry.from_name("8in"), obj=disc))
        assert outcome.reason_code is Reason.FLAT_OBJECT

    def test_oversized_wins_over_flatness(self):
        disc = make_object(shape=ShapeClass.FLAT, height=0.0012, diameter=0.12, mass=0.015)
        outcome = grasp_feasibility(GraspScenario(gripper=FOUR_INCH, obj=disc))
        assert outcome.reason_code is Reason.OVERSIZED

    def test_oversized_sphere(self):
        ball = make_object(shape=ShapeClass.SPHERE, height=0.15, diameter=0.15, mass=0.5)
        outcome = grasp_feasibility(GraspScenario(gripper=FOUR_INCH, obj=ball))
        assert outcome.verdict is Verdict.INFEASIBLE
        assert outcome.reason_code is Reason.OVERSIZED

    def test_salt_container_admitted_by_length_ratio(self):
        # 238 mm tall on a 101.6 mm aperture: ratio 2.34 < 2.5
        tall = make_object(shape=ShapeClass.ELONGATED, height=0.238, diameter=0.056, mass=0.235)
        outcome = grasp_feasibility(GraspScenario(gripper=FOUR_INCH, obj=tall))
        assert outcome.verdict is Verdict.FEASIBLE

    def test_pole_rejected_by_length_ratio(self):
        pole = make_object(shape=ShapeClass.ELONGATED, height=0.5, diameter=0.03, mass=0.4)
        outcome = grasp_feasibility(GraspScenario(gripper=FOUR_INCH, obj=pole))
        assert outcome.reason_code is Reason.ELONGATED_OBJECT

    @pytest.mark.parametrize("submersion,verdict", [
        (0.0, Verdict.FEASIBLE),
        (0.3, Verdict.FEASIBLE),
        (0.6, Verdict.INFEASIBLE),
        (0.9, Verdict.INFEASIBLE),
    ])
    def test_submersion_threshold(self, submersion, verdict):
        egg = make_object(shape=ShapeClass.SPHERE, height=0.052, diameter=0.045, mass=0.057)
        scenario = GraspScenario(gripper=FOUR_INCH, obj=egg, submersion_fraction=submersion)
        outcome = grasp_feasibility(scenario)
        assert outcome.verdict is verdict
        if verdict is Verdict.INFEASIBLE:
            assert outcome.reason_code is Reason.TRAPPED_AIR

    def test_agitated_approach_raises_threshold(self):
        egg = make_object(shape=ShapeClass.SPHERE, height=0.052, diameter=0.045, mass=0.057)
        scenario = GraspScenario(gripper=FOUR_INCH, obj=egg, submersion_fraction=0.6,
                                 agitated_approach=True)
        assert grasp_feasibility(scenario).verdict is Verdict.FEASIBLE
        deep = GraspScenario(gripper=FOUR_INCH, obj=egg, submersion_fraction=0.95,
                             agitated_approach=True)
        assert grasp_feasibility(deep).verdict is Verdict.INFEASIBLE

    def test_outside_petal_region(self):
        obj = make_object()
        scenario = GraspScenario(gripper=FOUR_INCH, obj=obj, inside_petal_region=False)
        assert grasp_feasibility(scenario).reason_code is Reason.OUTSIDE_PETAL_REGION

    def test_mass_never_changes_verdict(self):
        for mass in (0.0, 0.1, 10.0, 500.0):
            obj = make_object(mass=mass)
            outcome = grasp_feasibility(GraspScenario(gripper=FOUR_INCH, obj=obj))
            assert outcome.verdict is Verdict.FEASIBLE


class TestInputTypes:
    def test_shape_class_value_becomes_the_member(self):
        disc = make_object(shape="flat", height=0.0012, diameter=0.03)
        assert disc.shape_class is ShapeClass.FLAT
        scenario = GraspScenario(gripper=FOUR_INCH, obj=disc)
        assert grasp_feasibility(scenario).reason_code is Reason.FLAT_OBJECT


class TestHoldingPressure:
    def test_egg_value(self):
        egg = make_object(shape=ShapeClass.SPHERE, height=0.042, diameter=0.051, mass=0.057)
        scenario = GraspScenario(gripper=FOUR_INCH, obj=egg)
        p = holding_pressure(scenario, FrictionModel(0.5))
        # 3*0.057*9.81 / (4*pi*1.5*0.0255^2)
        assert p == pytest.approx(136.9, abs=0.05)

    def test_zero_mass(self):
        obj = make_object(mass=0.0)
        scenario = GraspScenario(gripper=FOUR_INCH, obj=obj)
        assert holding_pressure(scenario, FrictionModel(0.3)) == 0.0

    def test_inverse_square_in_radius(self):
        small = make_object(diameter=0.02, mass=0.1)
        large = make_object(diameter=0.04, mass=0.1)
        p_small = holding_pressure(GraspScenario(gripper=FOUR_INCH, obj=small), FrictionModel(0.2))
        p_large = holding_pressure(GraspScenario(gripper=FOUR_INCH, obj=large), FrictionModel(0.2))
        assert p_small == pytest.approx(4.0 * p_large, rel=1e-12)


class TestReferenceValidation:
    def test_object_table_full_agreement(self):
        report = validate_against_reference("table2_objects")
        assert report.n_total == 8
        assert report.n_agree == 8

    def test_submersion_table_full_agreement(self):
        report = validate_against_reference("table3_submersion")
        assert report.n_total == 4
        assert report.n_agree == 4
        predicted = [row.predicted for row in report.rows]
        assert predicted == [Verdict.FEASIBLE, Verdict.FEASIBLE,
                             Verdict.INFEASIBLE, Verdict.INFEASIBLE]


# each replay table and its row count; test_errors.py holds the ids that are rejected
REPLAY_ROWS = {"table2_objects": 8, "table3_submersion": 4}


@pytest.mark.parametrize("dataset_id", sorted(REPLAY_ROWS))
class TestReplayOncePerProcess:
    def test_cached_report_equals_a_fresh_replay(self, dataset_id):
        assert validate_against_reference(dataset_id) == grasp._replay.__wrapped__(dataset_id)

    def test_repeat_call_returns_the_same_report(self, dataset_id):
        assert validate_against_reference(dataset_id) is validate_against_reference(dataset_id)

    def test_report_and_its_rows_are_immutable(self, dataset_id):
        report = validate_against_reference(dataset_id)
        assert type(report.rows) is tuple
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.dataset_id = "changed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.rows[0].predicted = Verdict.INFEASIBLE

    def test_clearing_a_loaded_document_leaves_later_replays_whole(self, dataset_id):
        expio.load_reference_dataset(dataset_id)["rows"].clear()
        fresh = grasp._replay.__wrapped__(dataset_id)
        assert fresh.n_total == REPLAY_ROWS[dataset_id]
        assert validate_against_reference(dataset_id) == fresh
