import numpy as np
import pytest

from twistgrip.pressure import (
    FrictionModel,
    PressureDistribution,
    SphericalObject,
    _unit_trapezoid_terms,
    equilibrium_residual,
    line_pressure_closed_form,
    line_pressure_quadrature,
)

DURABILITY_BALL = SphericalObject(mass=0.21, radius=0.025)
FRIC_HALF = FrictionModel(k=0.5)


class TestClosedForm:
    def test_zero_mass(self):
        assert line_pressure_closed_form(SphericalObject(0.0, 0.05), FrictionModel(0.3)) == 0.0

    def test_durability_ball_value(self):
        # 3*0.21*9.81 / (4*pi*1.5*0.025^2)
        p = line_pressure_closed_form(DURABILITY_BALL, FRIC_HALF, g=9.81)
        assert p == pytest.approx(524.6, abs=0.05)

    def test_linearity_in_mass(self):
        p1 = line_pressure_closed_form(SphericalObject(0.4, 0.03), FrictionModel(0.2))
        p2 = line_pressure_closed_form(SphericalObject(0.8, 0.03), FrictionModel(0.2))
        assert p2 == pytest.approx(2.0 * p1, rel=1e-12)

    def test_scales_with_gravity(self):
        p1 = line_pressure_closed_form(DURABILITY_BALL, FRIC_HALF, g=9.81)
        p2 = line_pressure_closed_form(DURABILITY_BALL, FRIC_HALF, g=19.62)
        assert p2 == pytest.approx(2.0 * p1, rel=1e-12)

    def test_float32_radius_computes_in_float64(self):
        radius = np.float32(1e-30)  # squared in float32, it would underflow to 0
        assert (line_pressure_closed_form(SphericalObject(1.0, radius), FRIC_HALF)
                == line_pressure_closed_form(SphericalObject(1.0, float(radius)), FRIC_HALF))

    def test_halving_radius_quadruples_pressure(self):
        p1 = line_pressure_closed_form(SphericalObject(0.3, 0.04), FRIC_HALF)
        p2 = line_pressure_closed_form(SphericalObject(0.3, 0.02), FRIC_HALF)
        assert p2 == pytest.approx(4.0 * p1, rel=1e-12)


class TestQuadrature:
    def test_analytic_integral_no_friction(self):
        # integral_0^1 x*sqrt(1-x^2) dx = 1/3
        a, _ = _unit_trapezoid_terms(100_000)
        assert a == pytest.approx(1.0 / 3.0, rel=1e-7)

    def test_analytic_integral_unit_friction(self):
        # (1+k) r^2 / 3 with k=1, r=1
        a, b = _unit_trapezoid_terms(100_000)
        assert a + b == pytest.approx(2.0 / 3.0, rel=1e-7)

    def test_matches_closed_form_durability_ball(self):
        closed = line_pressure_closed_form(DURABILITY_BALL, FRIC_HALF)
        quad = line_pressure_quadrature(DURABILITY_BALL, FRIC_HALF, n_intervals=100_000)
        assert quad == pytest.approx(closed, rel=1e-6)

    def test_tight_agreement_at_high_resolution(self):
        closed = line_pressure_closed_form(DURABILITY_BALL, FRIC_HALF)
        quad = line_pressure_quadrature(DURABILITY_BALL, FRIC_HALF, n_intervals=2_000_000)
        assert quad == pytest.approx(closed, rel=1e-9)

    def test_convergence_improves_with_n(self):
        closed = line_pressure_closed_form(DURABILITY_BALL, FRIC_HALF)
        errors = [
            abs(line_pressure_quadrature(DURABILITY_BALL, FRIC_HALF, n_intervals=n) - closed)
            for n in (100, 1000, 10_000)
        ]
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("n", [2**60, 2**63, 10**30])
    def test_grid_no_array_can_hold_raises_memory_error(self, n):
        with pytest.raises(MemoryError, match=f"^{n + 1} grid points"):
            line_pressure_quadrature(DURABILITY_BALL, FRIC_HALF, n_intervals=n)


GRID_CALLS = {
    "line_pressure_quadrature": lambda n: line_pressure_quadrature(
        DURABILITY_BALL, FRIC_HALF, n_intervals=n),
    "equilibrium_residual": lambda n: equilibrium_residual(
        DURABILITY_BALL, FRIC_HALF, PressureDistribution(p_bottom=1.0), n_intervals=n),
}


@pytest.mark.parametrize("call", sorted(GRID_CALLS))
def test_grid_accepts_numpy_integers(call):
    assert GRID_CALLS[call](np.int64(10)) == GRID_CALLS[call](10)


class TestEquilibrium:
    def test_closed_form_balances(self):
        p = line_pressure_closed_form(DURABILITY_BALL, FRIC_HALF)
        res = equilibrium_residual(DURABILITY_BALL, FRIC_HALF, PressureDistribution(p_bottom=p))
        mg = DURABILITY_BALL.mass * 9.81
        assert abs(res) < 1e-6 * mg

    def test_zero_mass_zero_pressure(self):
        obj = SphericalObject(0.0, 0.05)
        res = equilibrium_residual(obj, FRIC_HALF, PressureDistribution(p_bottom=0.0))
        assert res == 0.0

    def test_half_pressure_leaves_half_weight(self):
        p = line_pressure_closed_form(DURABILITY_BALL, FRIC_HALF)
        res = equilibrium_residual(
            DURABILITY_BALL, FRIC_HALF, PressureDistribution(p_bottom=p / 2.0)
        )
        mg = DURABILITY_BALL.mass * 9.81
        assert res == pytest.approx(mg / 2.0, rel=1e-6)


GRID_MASSES = np.linspace(0.01, 5.0, 10)
GRID_RADII = np.linspace(0.005, 0.1, 10)
GRID_FRICTIONS = np.linspace(0.0, 0.9, 10)


class TestGridProperties:
    def test_oracle_equivalence_on_grid(self):
        for m in GRID_MASSES:
            for r in GRID_RADII:
                for k in GRID_FRICTIONS:
                    obj = SphericalObject(m, r)
                    fric = FrictionModel(k)
                    closed = line_pressure_closed_form(obj, fric)
                    quad = line_pressure_quadrature(obj, fric, n_intervals=100_000)
                    assert quad == pytest.approx(closed, rel=1e-6)

    def test_monotone_in_mass_radius_friction(self):
        base = line_pressure_closed_form(SphericalObject(1.0, 0.05), FrictionModel(0.3))
        assert line_pressure_closed_form(SphericalObject(1.1, 0.05), FrictionModel(0.3)) > base
        assert line_pressure_closed_form(SphericalObject(1.0, 0.06), FrictionModel(0.3)) < base
        assert line_pressure_closed_form(SphericalObject(1.0, 0.05), FrictionModel(0.4)) < base
