"""The shared finite-value checks, and every public boundary that uses them."""
import dataclasses
import enum
import math
import numbers
import os
import re
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistgrip import expio, grasp, pressure, spring, tactile
from twistgrip.errors import (
    DomainError,
    TwistgripError,
    ValidationError,
    is_integer,
    real,
    require_integer,
    require_key,
    require_non_negative,
    require_positive,
    within,
)

SPHERE = pressure.SphericalObject(mass=0.21, radius=0.025)
FRICTION = pressure.FrictionModel(k=0.5)
SPEC = spring.SkinSpec(100.0, 400.0, 0.4)
FIT = spring.ZoneFit(100.0, 400.0, 0.4, rms_relative_error=0.0, max_fitted_strain=1.0)
GRIPPER = grasp.GripperGeometry(0.1)
OBJECT = grasp.ObjectDescriptor(grasp.ShapeClass.SPHERE, height=0.05, diameter=0.05, mass=0.1)
LAYOUT = tactile.MarkerLayout.grid(2, 2)
CAMERA = tactile.CameraModel(width=64, height=48)
NO_MATCHES = tactile.DisplacementField(prev_index=[], curr_index=[], shifts=[], lost=[],
                                       appeared=[])
EMPTY = tactile.MarkerSet(xy=[], areas=[], merged=[])
FRAME = tactile.TactileFrame(pixels=[[0, 255]])


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
    "line_pressure_closed_form.g": (
        "g", lambda x: pressure.line_pressure_closed_form(SPHERE, FRICTION, g=x)),
    "line_pressure_quadrature.g": (
        "g", lambda x: pressure.line_pressure_quadrature(SPHERE, FRICTION, g=x)),
    "equilibrium_residual.g": (
        "g", lambda x: pressure.equilibrium_residual(
            SPHERE, FRICTION, pressure.PressureDistribution(p_bottom=1.0), g=x)),
    "SkinSpec.slope1": ("slope1", lambda x: spring.SkinSpec(x, 400.0, 0.4)),
    "SkinSpec.slope2": ("slope2", lambda x: spring.SkinSpec(100.0, x, 0.4)),
    "SkinSpec.breakpoint": ("breakpoint", lambda x: spring.SkinSpec(100.0, 400.0, x)),
    **{f"SkinSpec.from_slopes.{name}": (
        name, lambda x, name=name: spring.SkinSpec.from_slopes(
            **{"slope1": 100.0, "slope2": 400.0, "breakpoint": 0.4, name: x}))
       for name in ("slope1", "slope2", "breakpoint")},
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
       for name in ("aperture_diameter", "full_close_angle")},
    **{f"ObjectDescriptor.{name}": (
        name, lambda x, name=name: grasp.ObjectDescriptor(
            grasp.ShapeClass.SPHERE, **{"height": 0.05, "diameter": 0.05, "mass": 0.1, name: x}))
       for name in ("height", "diameter", "mass")},
    "GraspScenario.submersion_fraction": (
        "submersion_fraction",
        lambda x: grasp.GraspScenario(GRIPPER, OBJECT, submersion_fraction=x)),
    "MarkerLayout.marker_diameter": (
        "marker_diameter", lambda x: tactile.MarkerLayout(markers=(), marker_diameter=x)),
    **{f"CameraModel.{name}": (name, lambda x, name=name: tactile.CameraModel(**{name: x}))
       for name in ("width", "height", "view_width")},
    "render_frame.noise_sigma": (
        "noise_sigma",
        lambda x: tactile.render_frame(LAYOUT, tactile.Deformation(), CAMERA, noise_sigma=x)),
    "render_frame.seed": (
        "seed", lambda x: tactile.render_frame(LAYOUT, tactile.Deformation(), CAMERA, seed=x)),
    "binarize.threshold": ("threshold", lambda x: tactile.binarize(FRAME, threshold=x)),
    "detect_markers.min_area": ("min_area", lambda x: tactile.detect_markers(FRAME, min_area=x)),
    "detect_markers.expected_area": (
        "expected_area", lambda x: tactile.detect_markers(FRAME, expected_area=x)),
    **{f"Deformation.uniform_shift.{name}": (
        "displacement", lambda x, name=name: tactile.Deformation.uniform_shift(
            LAYOUT, **{"dx": 0.0, "dy": 0.0, name: x}))
       for name in ("dx", "dy")},
    "track.gate": ("gate", lambda x: tactile.track(EMPTY, EMPTY, gate=x)),
    "contact_summary.air_support_kpa": (
        "air_support_kpa", lambda x: tactile.contact_summary(NO_MATCHES, air_support_kpa=x)),
    "payload_to_weight_ratio.max_payload_kgf": (
        "max_payload_kgf", lambda x: expio.payload_to_weight_ratio(x, 0.5)),
    "payload_to_weight_ratio.gripper_weight_kg": (
        "gripper_weight_kg", lambda x: expio.payload_to_weight_ratio(30.0, x)),
    "read_payload_csv.skin_height": (
        "skin_height", lambda x: expio.read_payload_csv(_write_csv(), skin_height=x)),
    "newtons_to_kgf.value": ("value", lambda x: expio.newtons_to_kgf(x)),
}


# JSON-like junk: no number (a bool is none), or an integer past the float range
JUNK = {"true": True, "false": False, "string": "0.5", "none": None, "list": [1.0],
        "huge": 10**400, "-huge": -10**400}
# (boundary, value) pairs accepted by design: None selects an optional parameter's
# default, and a count, size or seed may be any large integer
ACCEPTED = [("detect_markers.expected_area", None), ("read_payload_csv.skin_height", None),
            ("CameraModel.width", 10**400), ("CameraModel.height", 10**400),
            ("render_frame.seed", 10**400)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, *JUNK.values()],
                         ids=["nan", "inf", "-inf", *JUNK])
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_non_finite_value_rejected_naming_field(boundary, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    field, call = BOUNDARIES[boundary]
    if (boundary, value) in ACCEPTED:
        call(value)
        return
    # a displacement that is no pair of numbers is malformed data, not a value out of domain
    malformed = boundary.startswith("Deformation.") and type(value) not in (int, float)
    expected = ValidationError if malformed else DomainError
    with pytest.raises(expected) as exc:
        call(value)
    assert re.search(rf"\b{field}\b", str(exc.value)), str(exc.value)


@pytest.mark.parametrize("value", [Fraction(1, 2), np.float32(0.5), np.int64(1), np.float32(3e38),
                                   np.float32(1e-30), np.float32(1.4e-45), np.float16(6e4)],
                         ids=["fraction", "float32", "int64", "float32-huge", "float32-tiny",
                              "float32-subnormal", "float16-huge"])
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_real_number_of_any_type_returns_or_raises_a_named_error(boundary, value, tmp_path,
                                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    field, call = BOUNDARIES[boundary]
    try:
        call(value)
    except TwistgripError as exc:
        assert re.search(rf"\b{field}\b", str(exc)), str(exc)


class TestHelpers:
    @pytest.mark.parametrize("value", ["tall", "0.5", None, [1.0], 1j, True, False, np.True_])
    def test_non_numbers_name_the_field(self, value):
        for check in (require_positive, require_non_negative):
            with pytest.raises(DomainError, match="^height must"):
                check(height=value)
        with pytest.raises(TypeError):
            real(value)
        assert not within(-math.inf, math.inf, value)

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(1), 1,
                                       Fraction(1, 2), 5e-324],
                             ids=["float64", "float32", "int64", "int", "fraction", "subnormal"])
    def test_real_numbers_of_any_type_are_numbers(self, value):
        require_positive(height=value)
        require_non_negative(height=value)
        assert within(0, 1, value)
        assert real(value) == float(value) and type(real(value)) is float

    @pytest.mark.parametrize("value", [10**400, -10**400, Fraction(-10**400, 3)],
                             ids=["huge", "-huge", "huge-fraction"])
    def test_number_past_the_float_range_reads_as_infinite(self, value):
        assert real(value) == (math.inf if value > 0 else -math.inf)
        assert within(-math.inf, math.inf, value)
        for check in (require_positive, require_non_negative):
            with pytest.raises(DomainError, match="^height must"):
                check(height=value)

    def test_within_is_closed(self):
        assert within(0, 1, 0) and within(0, 1, 1.0) and within(0, 1, -0.0)
        assert not within(0, 1, 1 + 1e-16 * 2) and not within(0, 1, -5e-324)
        assert not within(0, 1, math.nan)

    def test_sign(self):
        require_positive(a=1e-300, b=1)
        require_non_negative(a=0.0, b=0)
        with pytest.raises(DomainError, match="^b must be positive"):
            require_positive(a=1.0, b=0.0)
        with pytest.raises(DomainError, match="^b must be >= 0"):
            require_non_negative(a=1.0, b=-1e-300)

    @pytest.mark.parametrize("value", [0, 7, 10**30, np.int64(7), np.uint8(7), 10**400],
                             ids=["zero", "int", "huge", "int64", "uint8", "past-float-range"])
    def test_integral_numbers_are_integers(self, value):
        require_integer(0, count=value)

    @pytest.mark.parametrize("value", [True, False, np.True_, 2.0, 0.5, "2", None, math.nan,
                                       np.float64(2.0), Fraction(2)],
                             ids=["true", "false", "numpy-bool", "float-integral", "float",
                                  "string", "none", "nan", "float64", "fraction"])
    def test_bool_and_other_non_integers_name_the_field(self, value):
        with pytest.raises(DomainError, match=r"^count must be an integer >= 0, got "):
            require_integer(0, size=1, count=value)

    def test_integer_below_the_least_names_the_bound(self):
        with pytest.raises(DomainError, match=r"^n_intervals must be an integer >= 2, got 1$"):
            require_integer(2, n_intervals=1)

    def test_key_path(self):
        doc = {"markers": [{"id": 0, "u": 0.5}], "marker_diameter_m": 0.002}
        assert require_key(doc, "markers", 0, "u") == 0.5
        for keys, path in [(("markers", 0, "v"), "markers.0.v"), (("markers", 1, "id"), "markers.1"),
                           (("marker_diameter_m", "x"), "marker_diameter_m.x"), (("gripper",), "gripper")]:
            with pytest.raises(ValidationError, match=re.escape(f"missing key '{path}'")):
                require_key(doc, *keys)


# The number and integer rules, and Deformation's check of a pair, as they were before their
# exact-type fast paths (verbatim but for the names and the pair check's returned outcome): the
# oracle the fast paths must match on every input.
def _abc_real(value):
    """float(value) for a numbers.Real but no bool (+-inf past the float range); else TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"not a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _abc_within(lo, hi, value):
    try:  # a plain float skips the call
        return lo <= (value if type(value) is float else _abc_real(value)) <= hi
    except TypeError:
        return False


def _abc_require_integer(at_least, /, **values):
    for name, value in values.items():
        if not (isinstance(value, numbers.Integral) and _abc_within(at_least, math.inf, value)):
            raise DomainError(f"{name} must be an integer >= {at_least}, got {value!r}")


def _abc_id_rejected(mid):
    """MarkerLayout's marker id check."""
    return not isinstance(mid, numbers.Integral) or isinstance(mid, bool)


def _abc_displacement(displacement):
    """Deformation's check of one displacement: the stored pair, or the error type."""
    try:
        dx, dy = map(_abc_real, displacement)
    except (TypeError, ValueError):
        return ValidationError
    return (dx, dy) if math.isfinite(dx) and math.isfinite(dy) else DomainError


class _Float(float):
    """A float subclass that is not numpy's."""


class _Count(enum.IntEnum):
    ONE = 1
    HUGE = 10**400


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308]
EDGE_INTS = [10**400, -10**400, 2**1024, 2**1024 - 1, -2**1024, 2**63, -2**63 - 1]
ANYTHING = st.one_of(
    st.floats(), st.sampled_from(EDGE_FLOATS), st.integers(-10**400, 10**400),
    st.sampled_from(EDGE_INTS), st.booleans(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.floats().map(_Float), st.sampled_from(list(_Count)),
    st.fractions(), st.sampled_from([Fraction(10**400, 3), Fraction(-10**400, 7)]),
    st.decimals(), st.sampled_from([Decimal("NaN"), Decimal(10**400)]), st.text(max_size=4),
    st.none())


def _outcome(call, *args, **kwargs):
    """(type, float bits or value) of what call returns, or (type, text) of what it raises."""
    try:
        result = call(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return type(result), struct.pack("<d", result) if isinstance(result, float) else result


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(value=ANYTHING, other=ANYTHING, at_least=st.sampled_from([0, 1, 2]))
def test_fast_paths_match_the_abc_rules(value, other, at_least):
    """Same value bits and type, or the same exception, as the rules without fast paths."""
    assert _outcome(real, value) == _outcome(_abc_real, value)
    assert within(-1.0, 1.0, value) == _abc_within(-1.0, 1.0, value)
    assert (_outcome(require_integer, at_least, count=value)
            == _outcome(_abc_require_integer, at_least, count=value))
    assert is_integer(value) is not _abc_id_rejected(value)
    try:
        layout = tactile.MarkerLayout(markers=((value, (0.5, 0.5)),))
    except ValidationError as exc:
        assert _abc_id_rejected(value) and str(exc).startswith("marker id must be an integer")
    else:
        assert not _abc_id_rejected(value)
        assert layout.ids == (int(value),) and type(layout.ids[0]) is int
    for displacement in ((value, other), (value, 0.5), (0.5, value)):
        expected = _abc_displacement(displacement)
        try:
            pair = tactile.Deformation(displacements={7: displacement}).displacements[7]
        except TwistgripError as exc:
            assert type(exc) is expected
        else:
            assert [(type(d), struct.pack("<d", d)) for d in pair] == [
                (type(d), struct.pack("<d", d)) for d in expected]


# (name the error starts with, call with a finite value outside the field's domain): the field,
# or the name its message uses, such as "friction coefficient" for k
OUT_OF_DOMAIN = {
    "SphericalObject.mass.negative": ("mass", lambda: pressure.SphericalObject(-1.0, 0.05)),
    "SphericalObject.radius.zero": ("radius", lambda: pressure.SphericalObject(1.0, 0.0)),
    **{f"FrictionModel.k.{k}": ("friction coefficient", lambda k=k: pressure.FrictionModel(k))
       for k in (-0.1, 1.0, 1.5)},
    "PressureDistribution.p_bottom.negative": (
        "p_bottom", lambda: pressure.PressureDistribution(p_bottom=-1.0)),
    "SkinSpec.slope1.zero": ("slope1", lambda: spring.SkinSpec(0.0, 400.0, 0.4)),
    "predict_load.strain.negative": ("strain", lambda: spring.predict_load(-0.1, SPEC)),
    "predict_strain.load.negative": ("load", lambda: spring.predict_strain(-5.0, SPEC)),
    "ZoneFit.predict.strain.negative": ("strain", lambda: FIT.predict(-0.1)),
    "MarkerLayout.grid.n_cols.negative": ("n_cols", lambda: tactile.MarkerLayout.grid(-1, 3)),
    "MarkerLayout.grid.n_rows.zero": ("n_rows", lambda: tactile.MarkerLayout.grid(3, 0)),
    "binarize.threshold.300": ("threshold", lambda: tactile.binarize(FRAME, threshold=300)),
    "track.gate.zero": ("gate", lambda: tactile.track(EMPTY, EMPTY, gate=0.0)),
    "payload_to_weight_ratio.gripper_weight_kg.zero": (
        "gripper_weight_kg", lambda: expio.payload_to_weight_ratio(30.0, 0.0)),
    "detect_markers.min_area.negative": (
        "min_area", lambda: tactile.detect_markers(FRAME, min_area=-3)),
    **{f"detect_markers.expected_area.{value}": (
        "expected_area", lambda value=value: tactile.detect_markers(FRAME, expected_area=value))
       for value in (-1.0, 0.0)},
    "newtons_to_kgf.negative": ("value", lambda: expio.newtons_to_kgf(-1.0)),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_DOMAIN))
def test_finite_value_outside_domain_rejected_naming_field(case):
    field, call = OUT_OF_DOMAIN[case]
    with pytest.raises(DomainError, match=rf"^{field} must"):
        call()


# (field named in the error, call that passes the value x in a count or size field);
# n_intervals has its own rows in test_pressure.py
COUNTS = {
    **{f"CameraModel.{name}": (name, lambda x, name=name: tactile.CameraModel(**{name: x}))
       for name in ("width", "height")},
    "MarkerLayout.grid.n_cols": ("n_cols", lambda x: tactile.MarkerLayout.grid(x, 2)),
    "MarkerLayout.grid.n_rows": ("n_rows", lambda x: tactile.MarkerLayout.grid(2, x)),
    **{f"render_frame.seed.noise{sigma}": (
        "seed", lambda x, sigma=sigma: tactile.render_frame(
            LAYOUT, tactile.Deformation(), CAMERA, noise_sigma=sigma, seed=x))
       for sigma in (0.0, 1.0)},
}


@pytest.mark.parametrize("value", [0.5, 64.5, True], ids=["half", "64.5", "true"])
@pytest.mark.parametrize("case", sorted(COUNTS))
def test_non_integer_count_rejected_naming_field(case, value):
    field, call = COUNTS[case]
    with pytest.raises(DomainError, match=rf"^{field} must be an integer >= \d+, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("value", ["0.5", None, [0.5], True],
                         ids=["string", "none", "list", "true"])
def test_non_number_submersion_fraction_rejected_naming_it(value):
    with pytest.raises(DomainError, match=re.escape("submersion_fraction must lie in [0, 1]")):
        grasp.GraspScenario(GRIPPER, OBJECT, submersion_fraction=value)


# (dataset id, message): ids with no feasibility replay, each called twice, so a cached
# replay can neither raise TypeError for an unhashable id nor turn a repeat into success
REPLAY_REJECTIONS = {
    "unknown": ("table9", "unknown dataset"),
    "list": (["table2_objects"], "unknown dataset"),
    "dict": ({}, "unknown dataset"),
    "none": (None, "unknown dataset"),
    "array": (np.array(["table2_objects"]), "unknown dataset"),
    "array-of-two": (np.array(["table2_objects", "table3_submersion"]), "unknown dataset"),
    "payload-table": ("table1_payload", "no feasibility interpretation"),
}


@pytest.mark.parametrize("case", sorted(REPLAY_REJECTIONS))
def test_dataset_without_replay_rejected_on_every_call(case):
    dataset_id, message = REPLAY_REJECTIONS[case]
    for _ in range(2):
        with pytest.raises(DomainError, match=message):
            grasp.validate_against_reference(dataset_id)


@pytest.mark.parametrize(
    "displacement", [(1, 2, 3), ("a", 1), 1.0, None, (1.0,), "ab", (1j, 0)],
    ids=["triple", "string-dx", "scalar", "none", "single", "string", "complex"])
def test_deformation_displacement_not_a_real_pair_rejected_naming_marker(displacement):
    with pytest.raises(ValidationError, match="^displacement of marker 7 must be a pair of real"):
        tactile.Deformation(displacements={0: (0.0, 0.0), 7: displacement})


def test_deformation_displacement_past_the_largest_float_rejected_naming_marker():
    with pytest.raises(DomainError, match="^displacement of marker 7 must be finite"):
        tactile.Deformation(displacements={7: (0, 10**400)})


@pytest.mark.parametrize("value", [300, -1, 1.5, math.nan, math.inf, -math.inf, 1j, "x"])
def test_frame_pixel_outside_uint8_rejected_naming_pixels(value):
    with pytest.raises(ValidationError, match="^pixels must"):
        tactile.TactileFrame(pixels=[[0, value]])


def _emit(series):
    expio.emit_plot(series, os.devnull, title="t", x_label="x", y_label="y")


def _plot(*series):
    _emit([(xs, ys, "s") for xs, ys in series])


@pytest.mark.parametrize("field, call", [
    ("pixels", lambda: tactile.TactileFrame(pixels=[[0], [0, 1]])),
    ("markers", lambda: tactile.MarkerLayout(markers=(5,))),
    ("markers", lambda: tactile.MarkerLayout(markers=5)),
    ("markers", lambda: tactile.MarkerLayout.from_json({"markers": 5, "marker_diameter_m": 0.002})),
    ("displacements", lambda: tactile.Deformation(displacements=[(1, (0, 0))])),
    ("occluded", lambda: tactile.Deformation(occluded=5)),
    ("strains", lambda: spring.PayloadCurve(strains=(0.5, True, 3.0), loads=(0.0, 1.0, 2.0))),
    ("loads", lambda: spring.PayloadCurve(strains=(0.1, 0.2, 0.3), loads=(0.0, np.True_, 2.0))),
    ("deflections", lambda: spring.PayloadCurve.from_absolute((0.0, np.True_), (0.0, 1.0), 0.05)),
    ("xy", lambda: tactile.MarkerSet(xy=None, areas=[], merged=[])),
    ("xy", lambda: tactile.MarkerSet(xy=[1.0, 2.0, 3.0], areas=[1], merged=[False])),
    ("areas", lambda: tactile.MarkerSet(xy=[], areas=["x"], merged=[])),
    ("areas", lambda: tactile.MarkerSet(xy=[(0.0, 0.0)], areas=[math.nan], merged=[False])),
    ("areas", lambda: tactile.MarkerSet(xy=[(0.0, 0.0)], areas=[10**400], merged=[False])),
    ("areas", lambda: tactile.MarkerSet(xy=[(0.0, 0.0)], areas=np.array([math.nan]),
                                        merged=[False])),
    ("areas", lambda: tactile.MarkerSet(xy=[(0.0, 0.0)], areas=np.array([2.7]), merged=[False])),
    ("areas", lambda: tactile.MarkerSet(xy=[(0.0, 0.0)], areas=np.array([1e30]), merged=[False])),
    ("merged", lambda: tactile.MarkerSet(xy=[(0.0, 0.0)], areas=[1], merged=["no"])),
    ("merged", lambda: tactile.MarkerSet(xy=[(0.0, 0.0)], areas=[1], merged=[0.5])),
    ("prev_index", lambda: tactile.DisplacementField(
        prev_index=np.array([math.inf]), curr_index=[0], shifts=[(0.0, 0.0)], lost=[],
        appeared=[])),
    ("prev_index", lambda: tactile.DisplacementField(
        prev_index=["a"], curr_index=[0], shifts=[(0.0, 0.0)], lost=[], appeared=[])),
    ("shifts", lambda: tactile.DisplacementField(
        prev_index=[], curr_index=[], shifts=None, lost=[], appeared=[])),
    ("lost", lambda: tactile.DisplacementField(
        prev_index=[], curr_index=[], shifts=[], lost=[None], appeared=[])),
    ("appeared", lambda: tactile.DisplacementField(
        prev_index=[], curr_index=[], shifts=[], lost=[], appeared=[[0], [0, 1]])),
    ("areas", lambda: tactile.MarkerSet(xy=[], areas=5, merged=[])),
    ("merged", lambda: tactile.MarkerSet(xy=[], areas=[], merged=False)),
    ("lost", lambda: tactile.DisplacementField(
        prev_index=[], curr_index=[], shifts=[], lost=7, appeared=[])),
    ("areas", lambda: tactile.MarkerSet(xy=[(0.0, 0.0)], areas=[[1, 2]], merged=[False])),
    ("prev_index", lambda: tactile.DisplacementField(
        prev_index=[[0]], curr_index=[0], shifts=[(0.0, 0.0)], lost=[], appeared=[])),
    ("xs", lambda: _plot(([0.0, math.nan], [0.0, 1.0]))),
    ("ys", lambda: _plot(([0.0, 1.0], [0.0, math.inf]))),
    ("ys", lambda: _plot(([0.0, 1.0, 2.0], [0.0, 1.0]))),
    ("ys", lambda: _plot(([0.0], []))),
    ("ys", lambda: _plot(([0.0, 1.0], [0.0, 1.0]), ([], [2.0]))),
    ("xs", lambda: _plot(([-1e308, 1e308], [0.0, 1.0]))),
    ("ys", lambda: _plot(([0.0], [-1e308]), ([1.0], [1e308]))),
    ("xs", lambda: _plot(([[0.0, 1.0]], [0.0]))),
    ("xy", lambda: tactile.MarkerSet(xy=[(math.nan, 0.0)], areas=[1], merged=[False])),
    ("shifts", lambda: tactile.DisplacementField(
        prev_index=[0], curr_index=[0], shifts=[(math.inf, 0.0)], lost=[], appeared=[])),
    *[("series", lambda series=series: _emit(series)) for series in ([([0.0], [0.0])], 5, [None])],
], ids=["ragged-pixels", "markers-of-ints", "markers-int", "markers-json-int", "displacements-list",
        "occluded-int", "bool-among-strains", "numpy-bool-among-loads",
        "numpy-bool-among-deflections",
        "xy-none", "xy-odd-size", "areas-string", "areas-nan", "areas-past-int64",
        "areas-float-array-nan", "areas-float-array-fraction", "areas-float-array-past-int64",
        "merged-string", "merged-fraction", "prev-index-float-array-inf",
        "prev-index-string", "shifts-none", "lost-none", "appeared-ragged", "areas-scalar",
        "merged-scalar", "lost-scalar", "areas-2d", "prev-index-2d", "plot-nan-x", "plot-inf-y",
        "plot-unequal-lengths", "plot-x-without-y", "plot-y-without-x", "plot-x-span-overflows",
        "plot-y-span-across-series-overflows", "plot-2d-x", "xy-nan", "shifts-inf",
        "series-of-pairs", "series-int", "series-of-none"])
def test_malformed_container_rejected_naming_it(field, call):
    with pytest.raises(ValidationError, match=rf"^{field} must"):
        call()


TWO_PAIRS = [(0.0, 0.0), (1.0, 1.0)]
# every public array field: (kind, call that passes the value v in that field); a value is
# one row of two entries, given twice as the rows of a 2-D field
ARRAY_FIELDS = {
    "strains": ("number", lambda v: spring.PayloadCurve(strains=v, loads=(0.0, 1.0))),
    "loads": ("number", lambda v: spring.PayloadCurve(strains=(0.0, 1.0), loads=v)),
    "deflections": ("number", lambda v: spring.PayloadCurve.from_absolute(v, (0.0, 1.0), 0.05)),
    "xs": ("number", lambda v: _plot((v, [0.0, 1.0]))),
    "ys": ("number", lambda v: _plot(([0.0, 1.0], v))),
    "pixels": ("number", lambda v: tactile.TactileFrame(pixels=v)),
    "xy": ("number", lambda v: tactile.MarkerSet(xy=v, areas=[1, 1], merged=[False, False])),
    "areas": ("number", lambda v: tactile.MarkerSet(xy=TWO_PAIRS, areas=v, merged=[False, False])),
    "merged": ("bool", lambda v: tactile.MarkerSet(xy=TWO_PAIRS, areas=[1, 1], merged=v)),
    **{name: ("number", lambda v, name=name: tactile.DisplacementField(**{
        "prev_index": [0, 1], "curr_index": [0, 1], "shifts": TWO_PAIRS, "lost": [],
        "appeared": [], name: v}))
       for name in ("prev_index", "curr_index", "shifts", "lost", "appeared")},
}
ARRAY_INPUTS = {
    "bool-list": [False, True],
    "bool-array": np.array([False, True]),
    "numpy-bool-among-floats": [0.0, np.True_],
    "fraction": [0.0, Fraction(1)],
    "integral-floats": [0.0, 1.0],
    "string": ["0", "1"],
    "none": None,
    "ragged": [[0.0], [0.0, 1.0]],
    "one-dimension-too-many": [[0.0, 1.0], [0.0, 1.0]],
    "nan": [0.0, math.nan],
    "complex": [0.0, 1j],
    "none-among-numbers": [None, 1.0],
    "int-past-float-range": [0.0, 10**400],
}
ACCEPTED_INPUTS = {"number": {"fraction", "integral-floats"}, "bool": {"bool-list", "bool-array"}}
TWO_DIMENSIONAL = {"pixels", "xy", "shifts"}


@pytest.mark.parametrize("given", ARRAY_INPUTS)
@pytest.mark.parametrize("field", ARRAY_FIELDS)
def test_array_field_verdict_is_its_kinds(field, given):
    """One array rule (errors.array): an input gets the same verdict in each field of a kind."""
    kind, call = ARRAY_FIELDS[field]
    value = ARRAY_INPUTS[given]
    if field in TWO_DIMENSIONAL and value is not None:
        value = np.array([value, value]) if isinstance(value, np.ndarray) else [value, value]
    if given in ACCEPTED_INPUTS[kind]:
        call(value)
    else:
        with pytest.raises(ValidationError, match=rf"^{field} must"):
            call(value)


def test_integer_field_takes_the_exact_values_of_an_object_array():
    """Fractions and ints past 2**53 reach an integer field exactly, not rounded through a float."""
    markers = tactile.MarkerSet(xy=TWO_PAIRS, areas=[Fraction(1), 2**62 + 1], merged=[False] * 2)
    assert markers.areas.tolist() == [1, 2**62 + 1]


def test_every_tactile_array_field_is_in_the_verdict_table():
    annotated = {f.name for record in vars(tactile).values() if dataclasses.is_dataclass(record)
                 for f in dataclasses.fields(record) if f.type in (np.ndarray, "np.ndarray")}
    assert annotated and annotated <= set(ARRAY_FIELDS)


PATH_CALLS = pytest.mark.parametrize("call", [
    lambda path: expio.read_payload_csv(path),
    lambda path: expio.write_payload_csv(spring.PayloadCurve(strains=(0.0,), loads=(0.0,)), path),
    lambda path: expio.emit_plot([([0.0], [0.0], "a")], path, title="t", x_label="x", y_label="y"),
    lambda path: expio.write_json({"a": 1}, path),
    lambda path: tactile.read_pgm(path),
    lambda path: tactile.write_pgm(FRAME, path),
], ids=["read_payload_csv", "write_payload_csv", "emit_plot", "write_json", "read_pgm",
        "write_pgm"])


@PATH_CALLS
def test_file_descriptor_path_rejected_and_left_open(call, tmp_path):
    """An int is no path: open() would use it as a descriptor and close it (fd 1 is stdout)."""
    with open(tmp_path / "f", "w+b") as fh:
        with pytest.raises(ValidationError, match="^path must"):
            call(fh.fileno())
        os.fstat(fh.fileno())  # raises if the call closed it


@PATH_CALLS
@pytest.mark.parametrize("path", [None, [], ["f.csv"], 1.5, True, "a\0b", b"a\0b"], ids=repr)
def test_non_path_rejected_naming_it(call, path):
    with pytest.raises(ValidationError, match="^path must"):
        call(path)


def test_overflowing_marker_scale_rejected():
    huge = tactile.MarkerLayout(markers=((0, (0.5, 0.5)),), marker_diameter=1e308)
    with pytest.raises(DomainError, match="marker_radius_px"):
        tactile.render_frame(huge, tactile.Deformation(), CAMERA)


def test_underflowing_phase_step_rejected():
    tiny = grasp.GripperGeometry(0.1, full_close_angle=5e-324)
    with pytest.raises(DomainError, match="step_angle"):
        grasp.simulate_phases(tiny)


HUGE_SPHERE = pressure.SphericalObject(mass=0.21, radius=1e154)
DENSE_SPHERE = pressure.SphericalObject(mass=1e300, radius=1e-150)
TINY_SLOPES = spring.SkinSpec(1e-310, 1e-309, 0.4)

# (field named in the error, call whose finite inputs overflow a result)
OVERFLOWS = {
    "line_pressure_closed_form.radius": (
        "radius", lambda: pressure.line_pressure_closed_form(HUGE_SPHERE, FRICTION)),
    "line_pressure_closed_form.mass": (
        "mass", lambda: pressure.line_pressure_closed_form(DENSE_SPHERE, FRICTION)),
    "line_pressure_quadrature.radius": (
        "radius", lambda: pressure.line_pressure_quadrature(HUGE_SPHERE, FRICTION)),
    "line_pressure_quadrature.mass": (
        "mass", lambda: pressure.line_pressure_quadrature(DENSE_SPHERE, FRICTION)),
    "equilibrium_residual.radius": (
        "radius", lambda: pressure.equilibrium_residual(
            HUGE_SPHERE, FRICTION, pressure.PressureDistribution(p_bottom=0.0))),
    "predict_load.strain": ("strain", lambda: spring.predict_load(1e307, SPEC)),
    "predict_strain.load": ("load", lambda: spring.predict_strain(1e300, TINY_SLOPES)),
    "estimate_object_mass.g": ("g", lambda: spring.estimate_object_mass(0.5, SPEC, g=1e-320)),
    **{f"payload_to_weight_ratio.{kind}": (
        "gripper_weight_kg", lambda payload=payload: expio.payload_to_weight_ratio(payload, 5e-324))
       for kind, payload in (("float", 0.25), ("float64", np.float64(0.25)))},
    "simulate_phases.full_close_angle": (
        "full_close_angle", lambda: grasp.simulate_phases(
            grasp.GripperGeometry(0.1, full_close_angle=1.7e308))),  # 16 steps sum short of it
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflowing_result_rejected_naming_field(case):
    field, call = OVERFLOWS[case]
    with pytest.raises(DomainError, match=rf"^{field} must"):
        call()
