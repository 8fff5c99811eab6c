"""The shared finite-value checks, and every public boundary that uses them."""
import math
import re

import pytest

from twistgrip import expio, grasp, pressure, spring, tactile
from twistgrip.errors import (
    DomainError,
    ValidationError,
    require_key,
    require_non_negative,
    require_positive,
)

SPHERE = pressure.SphericalObject(mass=0.21, radius=0.025)
FRICTION = pressure.FrictionModel(k=0.5)
SPEC = spring.SkinSpec(100.0, 400.0, 0.4)
FIT = spring.ZoneFit(100.0, 400.0, 0.4, rms_relative_error=0.0, max_fitted_strain=1.0)
GEOMETRY = dict(skin_volume=1e-5, skin_height=0.02, base_stiffness=1e4,
                zone1_coeff=1.0, zone2_coeff=4.0)
GRIPPER = grasp.GripperGeometry.from_name("4in")
LAYOUT = tactile.MarkerLayout.grid(2, 2)
CAMERA = tactile.CameraModel(width=64, height=48)
NO_MATCHES = tactile.DisplacementField(matches=(), unmatched_previous=(), unmatched_current=())
EMPTY = tactile.MarkerSet(detections=())


def _write_csv():
    """A valid payload CSV in the working directory."""
    with open("curve.csv", "w", encoding="utf-8") as fh:
        fh.write("strain,force_n\n0.0,0.0\n0.001,1.0\n")
    return "curve.csv"


# (field named in the error, call that passes the value x in that field)
BOUNDARIES = {
    "SphericalObject.mass": ("mass", lambda x: pressure.SphericalObject(mass=x, radius=0.025)),
    "SphericalObject.radius": ("radius", lambda x: pressure.SphericalObject(mass=0.2, radius=x)),
    "FrictionModel.k": ("k", lambda x: pressure.FrictionModel(k=x)),
    "PressureDistribution.p_bottom": (
        "p_bottom", lambda x: pressure.PressureDistribution(p_bottom=x)),
    "PressureDistribution.p_top": (
        "p_top", lambda x: pressure.PressureDistribution(p_bottom=1.0, p_top=x)),
    "line_pressure_closed_form.g": (
        "g", lambda x: pressure.line_pressure_closed_form(SPHERE, FRICTION, g=x)),
    "line_pressure_quadrature.g": (
        "g", lambda x: pressure.line_pressure_quadrature(SPHERE, FRICTION, g=x)),
    "equilibrium_residual.g": (
        "g", lambda x: pressure.equilibrium_residual(
            SPHERE, FRICTION, pressure.PressureDistribution(p_bottom=1.0), g=x)),
    "pressure_components.p": ("p", lambda x: pressure.pressure_components(x, 0.5)),
    "pressure_components.alpha": ("alpha", lambda x: pressure.pressure_components(1.0, x)),
    "SkinSpec.slope1": ("slope1", lambda x: spring.SkinSpec(x, 400.0, 0.4)),
    "SkinSpec.slope2": ("slope2", lambda x: spring.SkinSpec(100.0, x, 0.4)),
    "SkinSpec.breakpoint": ("breakpoint", lambda x: spring.SkinSpec(100.0, 400.0, x)),
    **{f"SkinSpec.from_geometry.{name}": (
        name, lambda x, name=name: spring.SkinSpec.from_geometry(
            **{**GEOMETRY, name: x}, transition_strain=0.4))
       for name in GEOMETRY},
    "PayloadCurve.from_absolute.skin_height": (
        "skin_height", lambda x: spring.PayloadCurve.from_absolute((0.0, 0.001), (0.0, 1.0), x)),
    "predict_load.strain": ("strain", lambda x: spring.predict_load(x, SPEC)),
    "predict_strain.load": ("load", lambda x: spring.predict_strain(x, SPEC)),
    "estimate_object_mass.g": ("g", lambda x: spring.estimate_object_mass(0.5, SPEC, g=x)),
    "ZoneFit.predict.strain": ("strain", lambda x: FIT.predict(x)),
    **{f"ZoneFit.{name}": (
        name, lambda x, name=name: spring.ZoneFit(
            **{"slope1": 100.0, "slope2": 400.0, "breakpoint": 0.4, "rms_relative_error": 0.0,
               name: x}))
       for name in ("slope1", "slope2", "breakpoint", "rms_relative_error")},
    **{f"GripperGeometry.{name}": (
        name, lambda x, name=name: grasp.GripperGeometry(
            **{"aperture_diameter": 0.1, name: x}))
       for name in ("aperture_diameter", "full_close_angle", "rotation_speed")},
    **{f"ObjectDescriptor.{name}": (
        name, lambda x, name=name: grasp.ObjectDescriptor(
            grasp.ShapeClass.SPHERE, **{"height": 0.05, "diameter": 0.05, "mass": 0.1, name: x}))
       for name in ("height", "diameter", "mass")},
    "step_phase.dt": ("dt", lambda x: grasp.step_phase(grasp.PhaseState(), x, GRIPPER)),
    "MarkerLayout.marker_diameter": (
        "marker_diameter", lambda x: tactile.MarkerLayout(markers=(), marker_diameter=x)),
    **{f"CameraModel.{name}": (name, lambda x, name=name: tactile.CameraModel(**{name: x}))
       for name in ("width", "height", "view_width")},
    "render_frame.noise_sigma": (
        "noise_sigma",
        lambda x: tactile.render_frame(LAYOUT, tactile.Deformation(), CAMERA, noise_sigma=x)),
    "track.gate": ("gate", lambda x: tactile.track(EMPTY, EMPTY, gate=x)),
    "contact_summary.air_support_kpa": (
        "air_support_kpa", lambda x: tactile.contact_summary(NO_MATCHES, air_support_kpa=x)),
    "payload_to_weight_ratio.max_payload_kgf": (
        "max_payload_kgf", lambda x: expio.payload_to_weight_ratio(x, 0.5)),
    "payload_to_weight_ratio.gripper_weight_kg": (
        "gripper_weight_kg", lambda x: expio.payload_to_weight_ratio(30.0, x)),
    "read_payload_csv.skin_height": (
        "skin_height", lambda x: expio.read_payload_csv(
            _write_csv(), strain_unit="absolute", skin_height=x)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_non_finite_value_rejected_naming_field(boundary, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    field, call = BOUNDARIES[boundary]
    with pytest.raises(DomainError) as exc:
        call(value)
    assert re.search(rf"\b{field}\b", str(exc.value)), str(exc.value)


class TestHelpers:
    @pytest.mark.parametrize("value", ["tall", None, [1.0], 1j])
    def test_non_numbers_name_the_field(self, value):
        for check in (require_positive, require_non_negative):
            with pytest.raises(DomainError, match="^height must"):
                check(height=value)

    def test_sign(self):
        require_positive(a=1e-300, b=1)
        require_non_negative(a=0.0, b=0)
        with pytest.raises(DomainError, match="^b must be positive"):
            require_positive(a=1.0, b=0.0)
        with pytest.raises(DomainError, match="^b must be >= 0"):
            require_non_negative(a=1.0, b=-1e-300)

    def test_key_path(self):
        doc = {"markers": [{"id": 0, "u": 0.5}], "marker_diameter_m": 0.002}
        assert require_key(doc, "markers", 0, "u") == 0.5
        for keys, path in [(("markers", 0, "v"), "markers.0.v"), (("markers", 1, "id"), "markers.1"),
                           (("marker_diameter_m", "x"), "marker_diameter_m.x"), (("gripper",), "gripper")]:
            with pytest.raises(ValidationError, match=re.escape(f"missing key '{path}'")):
                require_key(doc, *keys)


def test_overflowing_marker_scale_rejected():
    huge = tactile.MarkerLayout(markers=((0, (0.5, 0.5)),), marker_diameter=1e308)
    with pytest.raises(DomainError, match="marker_radius_px"):
        tactile.render_frame(huge, tactile.Deformation(), CAMERA)


def test_underflowing_phase_step_rejected():
    tiny = grasp.GripperGeometry(0.1, full_close_angle=5e-324, rotation_speed=1e-10)
    with pytest.raises(DomainError, match="step_angle"):
        grasp.simulate_phases(tiny)
