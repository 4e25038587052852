import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies

from vacpol.core import FieldConfig
from vacpol.errors import InfraredDivergenceError, NumericalFailureError, ParameterError, PoleError
from vacpol.heatkernel import DIRICHLET, ReflectingBC
from vacpol.reflecting import (
    free_term,
    large_x_asymptotic,
    laurent_coefficients,
    massless_value,
    plane_term,
    plane_term_oracle,
    regularized_polarization,
    regularized_polarization_oracle,
    renormalize_at_zero,
    small_x_asymptotic,
    spectrum,
)
from vacpol.specialfns import EULER_GAMMA
from vacpol.validation import check_reflecting

K0_OF_2 = 0.11389387274953343  # weighted Bessel at order 0, argument 2
NEUMANN, DIRICHLET_WALL = ReflectingBC.neumann(), ReflectingBC.dirichlet()


class TestFreeTerm:
    def test_d1_vanishes_at_special_mass(self):
        # log(2 kappa / m) = 0 and H_0 = 0
        assert free_term(FieldConfig(1, 2.0, kappa=1.0)) == 0.0

    def test_d2_closed_form(self):
        cfg = FieldConfig(2, 1.3)
        assert free_term(cfg) == pytest.approx(-1.3 / (4.0 * math.pi), rel=1e-14)

    def test_d3_closed_form(self):
        # H_1 = 1 and the log vanishes at m = 2 kappa
        cfg = FieldConfig(3, 2.0, kappa=1.0)
        assert free_term(cfg) == pytest.approx(-4.0 / (16.0 * math.pi**2), rel=1e-14)

    def test_massless(self):
        assert free_term(FieldConfig(2, 0.0)) == 0.0
        with pytest.raises(InfraredDivergenceError):
            free_term(FieldConfig(1, 0.0))


class TestPlaneTerm:
    def test_neumann_d1_value(self):
        cfg = FieldConfig(1, 1.0)
        got = plane_term(cfg, ReflectingBC.neumann(), 1.0)
        assert got == pytest.approx(K0_OF_2 / (2.0 * math.pi), rel=1e-12)
        # independent proper-time oracle
        assert got == pytest.approx(plane_term_oracle(cfg, ReflectingBC.neumann(), 1.0), rel=1e-9)

    def test_neumann_dirichlet_opposite(self):
        cfg = FieldConfig(3, 0.7)
        assert plane_term(cfg, NEUMANN, 1.2) == pytest.approx(-plane_term(cfg, DIRICHLET_WALL, 1.2),
                                                              rel=1e-15)

    def test_dn_d2_value(self):
        # sqrt(pi/2) e^-2 / (2^(5/2) pi^(3/2)); oracle-checked magnitude
        cfg = FieldConfig(2, 1.0)
        expected = math.sqrt(math.pi / 2.0) * math.exp(-2.0) / (2.0**2.5 * math.pi**1.5)
        neumann = plane_term(cfg, NEUMANN, 1.0)
        assert neumann == pytest.approx(expected, rel=1e-13)
        assert neumann == pytest.approx(0.005384819825462157, rel=1e-12)
        assert neumann == pytest.approx(plane_term_oracle(cfg, NEUMANN, 1.0), rel=1e-9)

    def test_oracle_agreement_robin(self):
        cfg = FieldConfig(3, 1.0)
        bc = ReflectingBC.robin(1.0)
        assert plane_term(cfg, bc, 0.5) == pytest.approx(
            plane_term_oracle(cfg, bc, 0.5), rel=1e-8
        )

    @pytest.mark.parametrize("d", (5, 8, 11))
    def test_oracle_agreement_robin_high_d(self, d):
        # the validation oracle grid stops at d = 4; spot checks up to d = 11
        cfg = FieldConfig(d, 1.0)
        bc = ReflectingBC.robin(1.0)
        assert plane_term(cfg, bc, 0.5) == pytest.approx(
            plane_term_oracle(cfg, bc, 0.5), rel=1e-8
        )

    @pytest.mark.parametrize("d", (1, 3, 7, 11))
    @pytest.mark.parametrize("fraction", (-0.99, -0.999, -0.99999, -(1 - 1e-8), -(1 - 1e-10)))
    def test_oracle_up_to_threshold(self, fraction, d):
        # the bound state puts the Gaussian peak of the oracle's image integral
        # far out in w at large tau, where its erfcx form still holds it
        cfg = FieldConfig(d, 1.0)
        bc = ReflectingBC.robin(fraction * cfg.m)
        assert plane_term_oracle(cfg, bc, 0.7) == pytest.approx(
            plane_term(cfg, bc, 0.7), rel=1e-8
        )

    @pytest.mark.parametrize("d, x1", [(3, 1e-4), (11, 1e-2)] + [(d, 1e-8) for d in range(1, 12)])
    def test_oracle_near_the_wall(self, d, x1):
        # the proper-time peak sits at tau = |x1|/m; adaptive quadrature over
        # (0, inf) in tau lost it here and raised NumericalFailureError
        cfg, bc = FieldConfig(d, 1.0), ReflectingBC.robin(2.0)
        assert plane_term_oracle(cfg, bc, x1) == pytest.approx(plane_term(cfg, bc, x1), rel=1e-8)

    def test_oracle_at_the_sign_change(self):
        # near |x1| = 0.712 the d = 3 plane term of Robin b = 2 changes sign and
        # is 2e4 times smaller than its head and image parts; adaptive
        # quadrature in tau could not reach its relative target here
        cfg, bc, x1 = FieldConfig(3, 1.0), ReflectingBC.robin(2.0), 0.7120603015075376
        assert plane_term_oracle(cfg, bc, x1) == pytest.approx(plane_term(cfg, bc, x1), rel=1e-8)

    @pytest.mark.parametrize("d", (1, 3, 11))
    def test_oracle_far_from_the_wall(self, d):
        # about e^{-2m|x1|} = 1e-174 at |x1| = 200, a narrow peak at tau = 200
        # that adaptive quadrature over (0, inf) in tau missed (it gave
        # -1.2e-241 at d = 1); the d = 1 value is -6.35444226211745e-177
        cfg, bc = FieldConfig(d, 1.0), ReflectingBC.robin(2.0)
        closed = plane_term(cfg, bc, 200.0)
        if d == 1:
            assert closed == pytest.approx(-6.35444226211745e-177, rel=1e-12, abs=0.0)
        assert plane_term_oracle(cfg, bc, 200.0) == pytest.approx(closed, rel=1e-8, abs=0.0)

    def test_huge_coupling_approaches_dirichlet(self):
        cfg = FieldConfig(3, 1.0)
        got = plane_term(cfg, ReflectingBC.robin(1e6), 1.0)
        assert got == pytest.approx(plane_term(cfg, DIRICHLET_WALL, 1.0), abs=1e-4)

    def test_oracle_dirichlet_limit_in_coupling(self):
        cfg = FieldConfig(1, 1.0)
        got = plane_term_oracle(cfg, ReflectingBC.robin(1000.0), 1.0)
        assert abs(got - plane_term(cfg, DIRICHLET_WALL, 1.0)) < 1e-2

    def test_sides_are_independent(self):
        cfg = FieldConfig(2, 1.0)
        bc = ReflectingBC(b_plus=2.0, b_minus=DIRICHLET)
        assert plane_term(cfg, bc, 0.5) == pytest.approx(
            plane_term(cfg, ReflectingBC.robin(2.0), 0.5), rel=1e-14
        )
        assert plane_term(cfg, bc, -0.5) == pytest.approx(plane_term(cfg, DIRICHLET_WALL, 0.5),
                                                          rel=1e-14)

    def test_parity_for_equal_faces(self):
        cfg = FieldConfig(4, 0.5)
        bc = ReflectingBC.robin(0.3)
        assert plane_term(cfg, bc, 0.8) == plane_term(cfg, bc, -0.8)

    def test_domain_errors(self):
        cfg = FieldConfig(2, 1.0)
        with pytest.raises(ParameterError):
            plane_term(cfg, ReflectingBC.robin(-2.0), 1.0)
        with pytest.raises(ParameterError):
            plane_term(FieldConfig(2, 0.0), ReflectingBC.neumann(), 1.0)
        with pytest.raises(ParameterError):
            plane_term(cfg, NEUMANN, 0.0)

    def test_near_threshold_warning(self):
        # the coupling integral is as fast and accurate near the threshold as
        # away from it, so only the oracle, slowed by the bound state, warns
        import warnings

        from vacpol.errors import SlowDecayWarning

        cfg = FieldConfig(2, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SlowDecayWarning)
            assert math.isfinite(plane_term(cfg, ReflectingBC.robin(-1.0 + 1e-8), 1.0))
        with pytest.warns(SlowDecayWarning):
            plane_term_oracle(cfg, ReflectingBC.robin(-0.4), 1.0)


class TestRegularized:
    def test_strip_consistency(self):
        cfg = FieldConfig(2, 1.0)
        bc = ReflectingBC.robin(1.0)
        for u in (2.0, 2.5, 3.0):
            direct = regularized_polarization_oracle(cfg, bc, 0.7, u)
            continued = regularized_polarization(cfg, bc, 0.7, u)
            assert continued == pytest.approx(direct, rel=1e-8)

    @pytest.mark.parametrize("d", (1, 2, 3))
    @pytest.mark.parametrize("fraction", (-0.99, -0.999, -(1 - 1e-8), -(1 - 1e-10)))
    def test_strip_oracle_up_to_threshold(self, fraction, d):
        # the bound state decays like e^{-(m^2 - b^2) tau}, far past m^2 tau = 745
        cfg = FieldConfig(d, 1.0)
        bc = ReflectingBC.robin(fraction * cfg.m)
        u = d - 0.5
        assert regularized_polarization_oracle(cfg, bc, 0.7, u) == pytest.approx(
            regularized_polarization(cfg, bc, 0.7, u), rel=1e-8
        )

    def test_even_d_value_at_zero(self):
        cfg = FieldConfig(2, 1.0)
        bc = ReflectingBC.robin(0.5)
        closed = free_term(cfg) + plane_term(cfg, bc, 0.9)
        assert regularized_polarization(cfg, bc, 0.9, 0.0) == pytest.approx(closed, abs=1e-12)

    def test_pole_error(self):
        cfg = FieldConfig(3, 1.0)
        with pytest.raises(PoleError) as info:
            regularized_polarization(cfg, ReflectingBC.neumann(), 1.0, 2.0)
        assert info.value.pole == 2.0

    @pytest.mark.parametrize("d, u", [(4, 24.1), (4, 7.3), (11, 31.1)])
    def test_cancelling_parts_raise(self, d, u):
        # near the wall far above the pole the free part cancels the plane part
        # to below 1e-8 of either, and the total kept only about 1e-16 times
        # their ratio (5.1e-7 relative at d = 4, u = 24.1): both routes raise
        # instead, each with its total as its best estimate
        cfg = FieldConfig(d, 1.0)
        estimates = []
        for route in (regularized_polarization, regularized_polarization_oracle):
            with pytest.raises(NumericalFailureError, match="free part .* plane part") as info:
                route(cfg, DIRICHLET_WALL, 1e-4, u)
            estimates.append(info.value.best_estimate)
        assert estimates[0] == pytest.approx(estimates[1], rel=1e-5)

    def test_partly_cancelling_parts_keep_a_value(self):
        # at |x1| = 1e-3 the parts are 1.2e6 times the total, inside the limit
        cfg = FieldConfig(4, 1.0)
        assert regularized_polarization(cfg, DIRICHLET_WALL, 1e-3, 7.3) == pytest.approx(
            regularized_polarization_oracle(cfg, DIRICHLET_WALL, 1e-3, 7.3), rel=1e-8
        )

    @pytest.mark.parametrize("d", (1, 3))
    def test_far_above_the_poles_next_to_a_bound_state(self, d):
        # at u = 70.3 the coupling integrand's power (v+1)^{u+1-d} passes double
        # range on its own before its Bessel factor brings the product back
        cfg, bc = FieldConfig(d, 1.0), ReflectingBC.robin(-0.9)
        assert regularized_polarization(cfg, bc, 1e-3, 70.3) == pytest.approx(
            regularized_polarization_oracle(cfg, bc, 1e-3, 70.3), rel=1e-8
        )

    def test_far_from_the_wall_below_the_poles(self):
        # near 2m|x1| = 730 the coupling integrand's factors e^{-2m|x1|...} and
        # e^w F leave the normal range apart; the plane part is negligible
        # there, as at |x1| = 100, so the value is the same
        cfg, bc = FieldConfig(3, 1.0), ReflectingBC.robin(0.01)
        far = regularized_polarization(cfg, bc, 100.0, -20.3)
        for x1 in (360.0, 363.0, 365.0, 367.0, 370.0):
            assert regularized_polarization(cfg, bc, x1, -20.3) == pytest.approx(far, rel=1e-14)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_regulator_is_named(self, u):
        cfg, bc = FieldConfig(3, 1.0), ReflectingBC.robin(1.0)
        with pytest.raises(ParameterError, match="^u "):
            regularized_polarization(cfg, bc, 0.7, u)
        with pytest.raises(ParameterError, match="^u "):
            regularized_polarization_oracle(cfg, bc, 0.7, u)

    def test_d1_residue(self):
        # residue of the free Gamma-ratio term is 1/(2 pi), independent of bc
        for bc in (ReflectingBC.neumann(), ReflectingBC.robin(3.0), ReflectingBC.dirichlet()):
            fit = laurent_coefficients(FieldConfig(1, 1.0), bc, 0.8)
            assert fit.c_m1 == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-6)

    def test_d3_residue(self):
        fit = laurent_coefficients(FieldConfig(3, 1.5), ReflectingBC.robin(1.0), 0.6)
        assert fit.c_m1 == pytest.approx(-1.5**2 / (8.0 * math.pi**2), abs=1e-6)

    def test_renormalize_matches_closed_forms(self):
        # the internal 1e-6 consistency gate exercises both parity branches
        # of the free term up to d = 5
        for d, bc in ((1, ReflectingBC.robin(1.0)), (2, ReflectingBC.robin(0.5)),
                      (3, ReflectingBC.neumann()), (4, ReflectingBC.robin(2.0)),
                      (5, ReflectingBC.dirichlet())):
            cfg = FieldConfig(d, 1.0, kappa=2.0)
            value = renormalize_at_zero(cfg, bc, 0.8)
            assert value.total == value.free_term + value.plane_term
            assert value.free_term == free_term(cfg)


class TestAsymptotics:
    def test_small_x_d2_value(self):
        cfg = FieldConfig(2, 1.0)
        got = small_x_asymptotic(cfg, ReflectingBC.neumann(), 0.01)
        assert got == pytest.approx(1.0 / (8.0 * math.pi * 0.01), rel=1e-14)
        assert got == pytest.approx(3.9788735772973836, rel=1e-13)

    def test_small_x_d3_coefficient(self):
        cfg = FieldConfig(3, 1.0)
        got = small_x_asymptotic(cfg, ReflectingBC.neumann(), 1.0)
        assert got == pytest.approx(1.0 / (16.0 * math.pi**2), rel=1e-14)

    def test_small_x_dirichlet_sign(self):
        cfg = FieldConfig(2, 1.0)
        assert small_x_asymptotic(cfg, ReflectingBC.dirichlet(), 0.1) == pytest.approx(
            -small_x_asymptotic(cfg, ReflectingBC.neumann(), 0.1), rel=1e-15
        )

    def test_small_x_ratio_converges(self):
        cfg = FieldConfig(3, 1.0)
        bc = ReflectingBC.robin(1.0)
        ratio = plane_term(cfg, bc, 1e-3) / small_x_asymptotic(cfg, bc, 1e-3)
        assert 0.99 <= ratio <= 1.01

    def test_large_x_vanishes_at_matched_coupling(self):
        cfg = FieldConfig(2, 1.0)
        assert large_x_asymptotic(cfg, ReflectingBC.robin(1.0), 2.0) == 0.0

    def test_large_x_d2_neumann_value(self):
        cfg = FieldConfig(2, 1.0)
        got = large_x_asymptotic(cfg, ReflectingBC.neumann(), 5.0)
        assert got == pytest.approx(math.exp(-10.0) / (8.0 * math.pi * 5.0), rel=1e-14)
        plane = plane_term(cfg, ReflectingBC.neumann(), 5.0)
        assert plane == pytest.approx(got, rel=0.1)

    def test_large_x_dirichlet_ratio(self):
        cfg = FieldConfig(3, 1.0)
        got = large_x_asymptotic(cfg, ReflectingBC.dirichlet(), 4.0)
        neu = large_x_asymptotic(cfg, ReflectingBC.neumann(), 4.0)
        assert got == pytest.approx(-neu, rel=1e-15)


class TestMassless:
    def test_d1_dirichlet_reference_value(self):
        value = massless_value(FieldConfig(1, 0.0, kappa=1.0), ReflectingBC.dirichlet(), 0.5)
        assert value.total == pytest.approx(-EULER_GAMMA / (2.0 * math.pi), abs=1e-9)

    def test_d1_robin_form(self):
        # (1/2pi)[log(2 kappa |x|) - EULER_GAMMA + 2 e^(2b|x|) Gamma(0, 2b|x|)]
        from vacpol.specialfns import upper_gamma

        b, x = 1.5, 0.7
        value = massless_value(FieldConfig(1, 0.0), ReflectingBC.robin(b), x)
        expected = (
            math.log(2.0 * x) - EULER_GAMMA
            + 2.0 * math.exp(2.0 * b * x) * upper_gamma(0.0, 2.0 * b * x)
        ) / (2.0 * math.pi)
        assert value.total == pytest.approx(expected, rel=1e-12)

    def test_d1_neumann_infrared(self):
        with pytest.raises(InfraredDivergenceError):
            massless_value(FieldConfig(1, 0.0), ReflectingBC.neumann(), 0.5)
        with pytest.raises(InfraredDivergenceError):
            massless_value(FieldConfig(1, 0.0), ReflectingBC(0.0, DIRICHLET), 0.5)

    def test_d1_negative_coupling_rejected(self):
        with pytest.raises(ParameterError):
            massless_value(FieldConfig(1, 0.0), ReflectingBC.robin(-0.5), 0.5)

    def test_d3_neumann_value(self):
        value = massless_value(FieldConfig(3, 0.0), ReflectingBC.neumann(), 1.0)
        assert value.total == pytest.approx(1.0 / (16.0 * math.pi**2), rel=1e-13)

    def test_d2_massive_limit_consistency(self):
        bc = ReflectingBC.robin(1.0)
        target = massless_value(FieldConfig(2, 0.0), bc, 1.0).total
        cfg = FieldConfig(2, 1e-4)
        massive = free_term(cfg) + plane_term(cfg, bc, 1.0)
        assert abs(massive - target) < 1e-3

    def test_dirichlet_and_neumann_limits_d_ge_2(self):
        amp = math.gamma(1.0) / (4.0 * math.pi) ** 2
        assert massless_value(FieldConfig(3, 0.0), ReflectingBC.dirichlet(), 1.0).total == \
            pytest.approx(-amp, rel=1e-13)


class TestSpectrum:
    def test_no_point_spectrum_for_nonnegative(self):
        report = spectrum(ReflectingBC(0.0, 5.0), 1.0)
        assert report.point_eigenvalues == ()
        assert report.positive
        assert report.continuous_threshold == 1.0

    def test_one_bound_state(self):
        report = spectrum(ReflectingBC(-0.5, 2.0), 1.0)
        assert report.point_eigenvalues == (0.75,)
        assert report.positive

    def test_two_bound_states_not_positive(self):
        report = spectrum(ReflectingBC(-2.0, -0.5), 1.0)
        assert report.point_eigenvalues == (-3.0, 0.75)
        assert not report.positive

    def test_dirichlet_faces(self):
        report = spectrum(ReflectingBC.dirichlet(), 0.0)
        assert report.point_eigenvalues == ()
        assert report.positive


def test_validation_suite_passes():
    for result in check_reflecting():
        assert result.passed, f"{result.name}: {result.deviation} > {result.tolerance}"



@settings(max_examples=150, deadline=None)
@given(
    d=strategies.integers(1, 11),
    x1=strategies.floats(-6.0, 0.7).map(lambda e: 10.0**e),
    b=strategies.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    step=strategies.floats(1.001, 100.0),
)
def test_robin_between_dirichlet_and_neumann_and_monotone(d, x1, b, step):
    # a stiffer face (larger b) lowers the plane term, from Neumann at b = 0
    # towards Dirichlet
    cfg = FieldConfig(d, 1.0)
    neumann, dirichlet = plane_term(cfg, NEUMANN, x1), plane_term(cfg, DIRICHLET_WALL, x1)
    soft, stiff = (plane_term(cfg, ReflectingBC.robin(c), x1) for c in (b, b * step))
    slack = 1e-12 * neumann
    assert dirichlet - slack <= stiff <= soft + slack <= neumann + 2.0 * slack
