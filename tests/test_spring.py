import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistgrip.errors import DomainError, FitError, ValidationError
from twistgrip.spring import (
    PayloadCurve,
    SkinSpec,
    ZoneFit,
    estimate_object_mass,
    fit_zones,
    predict_load,
    predict_strain,
)

# S1 = 100 N/strain, S2 = 400 N/strain, breakpoint at strain 0.4
SPEC = SkinSpec(100.0, 400.0, 0.4)


def synthetic_curve(spec, n=50, max_strain=1.0):
    strains = np.linspace(0.0, max_strain, n)
    loads = [predict_load(s, spec) for s in strains]
    return PayloadCurve(strains=tuple(strains), loads=tuple(loads))


class TestPayloadCurve:
    def test_non_monotone_strain_rejected(self):
        with pytest.raises(ValidationError):
            PayloadCurve(strains=(0.0, 0.2, 0.2), loads=(0.0, 1.0, 2.0))

    def test_decreasing_load_rejected(self):
        with pytest.raises(ValidationError):
            PayloadCurve(strains=(0.0, 0.2, 0.4), loads=(0.0, 2.0, 1.0))

    def test_negative_load_rejected(self):
        with pytest.raises(ValidationError):
            PayloadCurve(strains=(0.0, 0.2), loads=(-1.0, 2.0))

    def test_samples_of_unequal_length_rejected(self):
        with pytest.raises(ValidationError, match="^strains and loads must be 1-D and equal length$"):
            PayloadCurve(strains=(0.0, 0.2), loads=(0.0,))

    def test_samples_of_any_real_type_accepted(self):
        curve = PayloadCurve(strains=(Fraction(0), Fraction(1, 2), 2**70),
                             loads=(np.int64(0), 1, np.float32(2.5)))
        assert curve.strains == (0.0, 0.5, float(2**70)) and curve.loads == (0.0, 1.0, 2.5)
        assert {type(v) for v in curve.strains + curve.loads} == {float}

    def test_from_absolute_normalizes(self):
        curve = PayloadCurve.from_absolute([0.0, 0.025, 0.05], [0.0, 10.0, 20.0], skin_height=0.05)
        assert curve.strains == pytest.approx((0.0, 0.5, 1.0))

    @pytest.mark.parametrize("skin_height", [1e-320, 1e-300])
    def test_from_absolute_overflowing_strain_names_skin_height(self, skin_height):
        with pytest.raises(DomainError, match="skin_height must give finite strains"):
            PayloadCurve.from_absolute([0.0, 1e10], [0.0, 1.0], skin_height)


class TestPredict:
    def test_zero_strain_zero_load(self):
        assert predict_load(0.0, SPEC) == 0.0

    def test_piecewise_value_above_breakpoint(self):
        # 100*0.4 + 400*0.1
        assert predict_load(0.5, SPEC) == pytest.approx(80.0, rel=1e-12)

    def test_continuous_at_breakpoint(self):
        eps = 1e-12
        below = predict_load(0.4 - eps, SPEC)
        above = predict_load(0.4 + eps, SPEC)
        assert above == pytest.approx(below, abs=1e-8)

    def test_strain_inverse_of_load(self):
        assert predict_strain(80.0, SPEC) == pytest.approx(0.5, rel=1e-12)

    def test_round_trip_identity(self):
        for s in np.linspace(0.0, 1.5, 31):
            assert predict_strain(predict_load(s, SPEC), SPEC) == pytest.approx(s, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("fit,load,slope", [
        (fit_zones(PayloadCurve(strains=tuple(np.linspace(0.0, 0.4, 9)), loads=(0.0,) * 9)),
         1.0, "slope2"),  # a flat curve fits to zero slopes
        (ZoneFit(0.0, 0.0, 0.3, 0.0, degenerate=True), 0.0, "slope1"),
        (ZoneFit(0.0, 100.0, 0.3, 0.0), 0.0, "slope1"),
        (ZoneFit(100.0, 0.0, 0.3, 0.0), 31.0, "slope2"),
    ])
    def test_zero_slope_inversion_rejected(self, fit, load, slope):
        with pytest.raises(DomainError, match=f"{slope} is 0"):
            predict_strain(load, fit)

    def test_strictly_increasing_and_convex(self):
        strains = np.linspace(0.0, 1.2, 121)
        loads = np.array([predict_load(s, SPEC) for s in strains])
        diffs = np.diff(loads)
        assert (diffs > 0).all()
        assert (np.diff(diffs) >= -1e-9).all()


class TestMassEstimate:
    def test_zero_strain(self):
        assert estimate_object_mass(0.0, SPEC) == 0.0

    def test_arithmetic(self):
        assert estimate_object_mass(0.5, SPEC, g=9.81) == pytest.approx(80.0 / 9.81, rel=1e-12)

    def test_round_trip_with_strain(self):
        mass = 2.5
        strain = predict_strain(mass * 9.81, SPEC)
        assert estimate_object_mass(strain, SPEC) == pytest.approx(mass, rel=1e-12)


class TestFitZones:
    def test_exact_recovery(self):
        fit = fit_zones(synthetic_curve(SPEC))
        assert fit.slope1 == pytest.approx(100.0, rel=1e-6)
        assert fit.slope2 == pytest.approx(400.0, rel=1e-6)
        assert fit.breakpoint == pytest.approx(0.4, rel=1e-6)
        assert fit.rms_relative_error < 1e-9
        assert not fit.degenerate

    @pytest.mark.parametrize("ratio", [1.5, 4.0, 10.0])
    def test_exact_recovery_across_stiffness_ratios(self, ratio):
        spec = SkinSpec(120.0, 120.0 * ratio, 0.35)
        fit = fit_zones(synthetic_curve(spec))
        assert fit.slope1 == pytest.approx(120.0, rel=1e-6)
        assert fit.slope2 == pytest.approx(120.0 * ratio, rel=1e-6)
        assert fit.breakpoint == pytest.approx(0.35, rel=1e-6)

    def test_single_slope_sets_degenerate_flag(self):
        strains = np.linspace(0.0, 1.0, 30)
        loads = 250.0 * strains
        fit = fit_zones(PayloadCurve(strains=tuple(strains), loads=tuple(loads)))
        assert fit.degenerate
        assert fit.slope1 == pytest.approx(250.0, rel=1e-6)

    def test_noisy_recovery_within_five_percent(self):
        rng = np.random.default_rng(1234)
        strains = np.linspace(0.0, 1.0, 50)
        loads = np.array([predict_load(s, SPEC) for s in strains])
        noisy = loads * (1.0 + 0.02 * rng.standard_normal(loads.shape))
        noisy = np.maximum.accumulate(np.abs(noisy))  # keep the curve monotone
        fit = fit_zones(PayloadCurve(strains=tuple(strains), loads=tuple(noisy)))
        assert fit.slope1 == pytest.approx(100.0, rel=0.05)
        assert fit.slope2 == pytest.approx(400.0, rel=0.05)
        assert fit.breakpoint == pytest.approx(0.4, rel=0.05)
        assert fit.rms_relative_error < 0.05

    def test_too_few_samples_rejected(self):
        with pytest.raises(FitError):
            fit_zones(PayloadCurve(strains=(0.0, 0.3, 0.6), loads=(0.0, 30.0, 60.0)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_fit_rejected(self):
        curve = PayloadCurve(strains=(0.0, 1e-300, 2e-300, 3e-300, 4e-300),
                             loads=(0.0, 1.0, 2.0, 5.0, 1e308))
        with pytest.raises(FitError, match="non-finite"):
            fit_zones(curve)

    def test_fit_predict(self):
        fit = fit_zones(synthetic_curve(SPEC))
        assert fit.predict(0.5) == pytest.approx(80.0, rel=1e-6)


slopes = st.floats(min_value=1e-3, max_value=1e6)
breakpoints = st.floats(min_value=1e-3, max_value=10.0)
strains = st.floats(min_value=0.0, max_value=20.0, allow_subnormal=False)


def assert_round_trip(strain, spec):
    """Inversion to 1e-12 holds for normal floats; subnormal loads carry too few bits."""
    load = predict_load(strain, spec)
    assume(load == 0.0 or load >= sys.float_info.min)
    back = predict_strain(load, spec)
    assert math.isclose(back, strain, rel_tol=1e-12, abs_tol=0.0)


@given(s1=slopes, ratio=st.floats(min_value=1.001, max_value=1e3), bp=breakpoints, strain=strains)
def test_spec_map_inverts_exactly(s1, ratio, bp, strain):
    assert_round_trip(strain, SkinSpec(s1, s1 * ratio, bp))


@settings(max_examples=25, deadline=None)
@given(s1=st.floats(min_value=1.0, max_value=1e4), ratio=st.floats(min_value=1.2, max_value=50.0),
       bp=st.floats(min_value=0.1, max_value=0.9),
       strain=st.floats(min_value=0.0, max_value=2.0, allow_subnormal=False))
def test_fit_map_inverts_exactly(s1, ratio, bp, strain):
    fit = fit_zones(synthetic_curve(SkinSpec(s1, s1 * ratio, bp), n=20))
    assume(not fit.degenerate)
    assert_round_trip(strain, fit)


def hinge_sse(strains, loads, slope1, slope2, breakpoint):
    predicted = slope1 * np.minimum(strains, breakpoint) + slope2 * np.maximum(strains - breakpoint, 0)
    return float(np.sum((loads - predicted) ** 2))


def brute_force_sse(strains, loads):
    """Smallest hinge SSE over joins at every interior sample and on a grid inside each interval."""
    inner = strains[1:-1]
    grid = np.linspace(inner[:-1], inner[1:], 12)[1:-1].ravel()
    best = math.inf
    for bp in np.concatenate([inner, grid]):
        design = np.column_stack([np.minimum(strains, bp), np.maximum(strains - bp, 0.0)])
        coef = np.linalg.lstsq(design, loads, rcond=None)[0]
        best = min(best, hinge_sse(strains, loads, *coef, bp))
    return best


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(min_value=4, max_value=200), seed=st.integers(min_value=0, max_value=2**32 - 1),
       ratio=st.floats(min_value=1.2, max_value=50.0), noisy=st.booleans())
def test_fit_is_least_squares_optimal(n, seed, ratio, noisy):
    rng = np.random.default_rng(seed)
    strains = np.cumsum(rng.uniform(0.1, 1.0, n))
    strains = (strains - strains[0]) / (strains[-1] - strains[0])
    slope1 = rng.uniform(1.0, 1e3)
    spec = SkinSpec(slope1, slope1 * ratio, rng.uniform(0.05, 0.95))
    loads = np.array([predict_load(s, spec) for s in strains])
    if noisy:
        loads = np.maximum.accumulate(np.abs(loads * (1.0 + 0.02 * rng.standard_normal(n))))
    fit = fit_zones(PayloadCurve(strains=tuple(strains), loads=tuple(loads)))
    fit_sse = hinge_sse(strains, loads, fit.slope1, fit.slope2, fit.breakpoint)
    assert fit_sse <= brute_force_sse(strains, loads) * (1 + 1e-9) + 1e-12 * float(loads @ loads)
