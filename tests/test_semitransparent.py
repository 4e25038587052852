import cmath
import math

import pytest

from vacpol.core import FieldConfig
from vacpol.errors import InfraredDivergenceError, ParameterError
from vacpol.heatkernel import SemitransparentBC
from vacpol.reflecting import small_x_asymptotic as reflecting_small_x
from vacpol.heatkernel import ReflectingBC
from vacpol.semitransparent import (
    diagonal_coefficients,
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
from vacpol.specialfns import EULER_GAMMA, upper_gamma
from vacpol.validation import check_semitransparent

OMEGA = cmath.exp(1.1j)


def mixed_bc(alpha, beta, gamma, omega=1.0 + 0.0j):
    return SemitransparentBC(alpha, beta, gamma, (1.0 + beta * gamma) / alpha, omega)


class TestSpectrum:
    def test_pure_delta_prime(self):
        report = spectrum(SemitransparentBC.delta_prime(1.0), 1.0)
        assert (report.lambda_plus, report.lambda_minus) == (2.0, 0.0)
        assert report.point_eigenvalues == ()
        assert report.positive
        # massless positivity holds at the threshold rate
        assert spectrum(SemitransparentBC.delta_prime(1.0), 0.0).positive

    def test_pure_delta_repulsive(self):
        report = spectrum(SemitransparentBC.delta(3.0), 1.0)
        assert report.point_eigenvalues == ()
        assert report.positive
        assert report.lambda_plus is None

    def test_pure_delta_bound_state(self):
        report = spectrum(SemitransparentBC.delta(-1.0), 1.0)
        assert report.point_eigenvalues == (0.75,)
        assert report.positive  # gamma/(alpha+sigma) = -1/2 > -1

    def test_delta_prime_two_bound_states(self):
        bc = SemitransparentBC.delta_prime(-1.5)  # rates 0 and -4/3
        report = spectrum(bc, 2.0)
        assert report.lambda_minus == pytest.approx(-4.0 / 3.0, rel=1e-14)
        assert len(report.point_eigenvalues) == 1  # only Lambda_minus < 0
        assert report.positive

    def test_not_positive(self):
        assert not spectrum(SemitransparentBC.delta(-3.0), 1.0).positive
        assert not spectrum(SemitransparentBC.delta_prime(-1.5), 1.0).positive

    def test_positivity_names_the_lower_rate(self):
        # Lambda_minus < Lambda_plus, so a wall that fails positivity fails
        # it at Lambda_minus first, whether or not Lambda_plus fails too
        for bc in (SemitransparentBC.delta_prime(-1.5), SemitransparentBC.delta_prime(-0.2)):
            with pytest.raises(ParameterError, match="^Lambda_minus = .* violates positivity"):
                bc.check_positive(1.0)

    def test_rate_ordering_strict(self):
        for bc in (SemitransparentBC.delta_prime(0.3), mixed_bc(2.0, 1.0, 1.0),
                   mixed_bc(0.8, -0.5, 0.4)):
            lam_p, lam_m = bc.lambda_pm()
            assert lam_p > lam_m


class TestDiagonalCoefficients:
    def test_pure_delta(self):
        co = diagonal_coefficients(SemitransparentBC.delta(2.0), 0.7)
        assert co.L == 0.0
        assert co.M_plus is None

    def test_skew_delta_is_odd(self):
        bc = SemitransparentBC(2.0, 0.0, 1.0, 0.5)
        assert diagonal_coefficients(bc, 0.7).L == pytest.approx(0.6, rel=1e-15)
        assert diagonal_coefficients(bc, -0.7).L == pytest.approx(-0.6, rel=1e-15)

    def test_zero_trace_delta_prime_has_no_L(self):
        # alpha + sigma = 0: the delta-family L is undefined, M+- are not
        bc = SemitransparentBC(1.0, 1.0, -2.0, -1.0)
        co = diagonal_coefficients(bc, 0.7)
        assert co.L is None
        lam_p, lam_m = bc.lambda_pm()
        assert bc.images(0.7, 0.7).terms == ((2.0 * co.M_plus, lam_p), (-2.0 * co.M_minus, lam_m))

    def test_pure_delta_prime_weights(self):
        # kernel-normalized weights: M_plus = -Lambda_plus, M_minus = 0
        co = diagonal_coefficients(SemitransparentBC.delta_prime(1.0), 0.5)
        assert co.M_plus == pytest.approx(-2.0, rel=1e-15)
        assert co.M_minus == 0.0

    def test_diagonal_identity(self):
        # 1 + M+/L+ - M-/L- = -1 whenever both rates are nonzero
        for bc in (mixed_bc(2.0, 1.0, 1.0), mixed_bc(0.8, -0.5, 0.4), mixed_bc(1.2, 0.5, 0.4)):
            lam_p, lam_m = bc.lambda_pm()
            for x1 in (0.7, -0.7):
                co = diagonal_coefficients(bc, x1)
                assert 1.0 + co.M_plus / lam_p - co.M_minus / lam_m == pytest.approx(
                    -1.0, abs=1e-12
                )

    def test_omega_does_not_enter(self):
        bc = mixed_bc(1.2, 0.5, 0.4)
        bcw = mixed_bc(1.2, 0.5, 0.4, OMEGA)
        assert diagonal_coefficients(bc, 0.7) == diagonal_coefficients(bcw, 0.7)


class TestPlaneTerm:
    def test_free_wall_silent(self):
        cfg = FieldConfig(2, 1.0)
        assert plane_term(cfg, SemitransparentBC.free(), 0.9) == 0.0

    def test_delta_d1_oracle(self):
        cfg = FieldConfig(1, 1.0)
        bc = SemitransparentBC.delta(2.0)
        assert plane_term(cfg, bc, 0.5) == pytest.approx(
            plane_term_oracle(cfg, bc, 0.5), rel=1e-8
        )

    def test_delta_prime_d2_oracle(self):
        cfg = FieldConfig(2, 1.0)
        bc = SemitransparentBC.delta_prime(1.0)
        assert plane_term(cfg, bc, 1.0) == pytest.approx(
            plane_term_oracle(cfg, bc, 1.0), rel=1e-8
        )

    @pytest.mark.parametrize("x1", (0.7, -0.7))
    def test_zero_trace_delta_prime_oracle(self, x1):
        # alpha + sigma = 0 is a valid beta != 0 wall (rates +-sqrt(2)); only
        # the beta = 0 weight L divides by it
        cfg = FieldConfig(3, 2.0)
        bc = SemitransparentBC(1.0, 1.0, -2.0, -1.0)
        assert plane_term(cfg, bc, x1) == pytest.approx(
            plane_term_oracle(cfg, bc, x1), rel=1e-8
        )

    @pytest.mark.parametrize("d", (5, 8, 11))
    def test_delta_prime_oracle_high_d(self, d):
        # the validation oracle grid stops at d = 3; spot checks up to d = 11
        cfg = FieldConfig(d, 1.0)
        bc = SemitransparentBC.delta_prime(1.0)
        assert plane_term(cfg, bc, 0.5) == pytest.approx(
            plane_term_oracle(cfg, bc, 0.5), rel=1e-8
        )

    def test_near_threshold_bound_state_converges(self):
        # gamma/(alpha+sigma) = -m/2 sits halfway to the positivity boundary
        cfg = FieldConfig(2, 1.0)
        bc = SemitransparentBC.delta(-1.0)
        assert plane_term(cfg, bc, 0.8) == pytest.approx(
            plane_term_oracle(cfg, bc, 0.8), rel=1e-8
        )

    @pytest.mark.parametrize("d", (1, 3, 7, 11))
    def test_oracle_up_to_threshold(self, d):
        # c = gamma/2 = -(1 - 1e-4) m: a bound state just above the threshold
        cfg = FieldConfig(d, 1.0)
        bc = SemitransparentBC.delta(-2.0 * (1.0 - 1e-4) * cfg.m)
        assert plane_term_oracle(cfg, bc, 0.7) == pytest.approx(
            plane_term(cfg, bc, 0.7), rel=1e-8
        )

    def test_parity_for_symmetric_matrix(self):
        cfg = FieldConfig(3, 1.0)
        for bc in (SemitransparentBC.delta(1.5), SemitransparentBC.delta_prime(0.7)):
            assert plane_term(cfg, bc, 0.6) == pytest.approx(
                plane_term(cfg, bc, -0.6), rel=1e-14
            )

    def test_skew_matrix_breaks_parity(self):
        cfg = FieldConfig(2, 1.0)
        bc = SemitransparentBC(2.0, 0.0, 1.0, 0.5)
        assert plane_term(cfg, bc, 0.5) != pytest.approx(plane_term(cfg, bc, -0.5), rel=1e-3)

    def test_omega_independence(self):
        cfg = FieldConfig(2, 1.0)
        assert plane_term(cfg, mixed_bc(1.2, 0.5, 0.4), 0.7) == plane_term(
            cfg, mixed_bc(1.2, 0.5, 0.4, OMEGA), 0.7
        )

    def test_positivity_gate(self):
        cfg = FieldConfig(2, 1.0)
        with pytest.raises(ParameterError):
            plane_term(cfg, SemitransparentBC.delta(-3.0), 1.0)
        with pytest.raises(ParameterError):
            plane_term(cfg, SemitransparentBC.delta_prime(-1.0), 1.0)  # Lambda_- = -2

    def test_bound_state_oracle_matches(self):
        # a bound state slows the oracle's decay in tau, not its accuracy
        cfg, bc = FieldConfig(2, 1.0), SemitransparentBC.delta(-1.0)
        assert plane_term_oracle(cfg, bc, 0.8) == pytest.approx(plane_term(cfg, bc, 0.8), rel=1e-8)


class TestRegularized:
    def test_strip_consistency_both_branches(self):
        for bc in (SemitransparentBC.delta(2.0), SemitransparentBC.delta_prime(1.0)):
            for d in (1, 2):
                cfg = FieldConfig(d, 1.0)
                u = d + 0.5
                assert regularized_polarization(cfg, bc, 0.7, u) == pytest.approx(
                    regularized_polarization_oracle(cfg, bc, 0.7, u), rel=1e-8
                )

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_regulator_is_named(self, u):
        cfg = FieldConfig(3, 1.0)
        for bc in (SemitransparentBC.delta(2.0), SemitransparentBC.delta_prime(1.0)):
            with pytest.raises(ParameterError, match="^u "):
                regularized_polarization(cfg, bc, 0.7, u)
            with pytest.raises(ParameterError, match="^u "):
                regularized_polarization_oracle(cfg, bc, 0.7, u)

    def test_even_d_at_zero(self):
        cfg = FieldConfig(2, 1.0)
        bc = SemitransparentBC.delta_prime(1.0)
        closed = free_term(cfg) + plane_term(cfg, bc, 0.9)
        assert regularized_polarization(cfg, bc, 0.9, 0.0) == pytest.approx(closed, abs=1e-12)

    def test_d1_residue_bc_independent(self):
        for bc in (SemitransparentBC.delta(2.0), SemitransparentBC.delta_prime(1.0),
                   mixed_bc(1.2, 0.5, 0.4)):
            fit = laurent_coefficients(FieldConfig(1, 1.0), bc, 0.8)
            assert fit.c_m1 == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-6)

    def test_renormalize_consistency(self):
        for bc in (SemitransparentBC.delta(2.0), SemitransparentBC.delta_prime(1.0)):
            for d in (1, 2, 3):
                value = renormalize_at_zero(FieldConfig(d, 1.0), bc, 0.8)
                assert value.total == value.free_term + value.plane_term


class TestAsymptotics:
    def test_laws_take_arrays(self):
        # the delta family's head flips with the side: one batch per side
        cfg, bc = FieldConfig(2, 1.0), SemitransparentBC(2.0, 0.0, 1.0, 0.5)
        xs = [-0.4, 0.1, -3.0, 5.0]
        for law in (small_x_asymptotic, large_x_asymptotic):
            assert list(law(cfg, bc, xs)) == [law(cfg, bc, x) for x in xs]

    def test_small_x_vanishes_for_pure_delta(self):
        cfg = FieldConfig(3, 1.0)
        for x1 in (0.5, -0.5):
            assert small_x_asymptotic(cfg, SemitransparentBC.delta(7.0), x1) == 0.0

    def test_small_x_beta_branch_matches_reflecting(self):
        # for beta != 0 the leading near-wall term coincides with the
        # reflecting one, for every dimension
        for d in (1, 2, 3, 5):
            cfg = FieldConfig(d, 1.0)
            semi = small_x_asymptotic(cfg, SemitransparentBC.delta_prime(2.0), 0.2)
            refl = reflecting_small_x(cfg, ReflectingBC.neumann(), 0.2)
            assert semi == refl

    def test_small_x_skew_delta(self):
        cfg = FieldConfig(2, 1.0)
        bc = SemitransparentBC(2.0, 0.0, 1.0, 0.5)
        base = 1.0 / (8.0 * math.pi * 0.01)
        assert small_x_asymptotic(cfg, bc, 0.01) == pytest.approx(0.6 * base, rel=1e-14)
        assert small_x_asymptotic(cfg, bc, -0.01) == pytest.approx(-0.6 * base, rel=1e-14)

    def test_softening_witness(self):
        # |x|^(d-1) plane -> 0 for the pure delta wall
        cfg = FieldConfig(2, 1.0)
        bc = SemitransparentBC.delta(1.0)
        vals = [abs(x * plane_term(cfg, bc, x)) for x in (1e-2, 1e-3, 1e-4)]
        assert vals[2] < vals[1] < vals[0]
        assert vals[2] < vals[0] / 10.0

    def test_large_x_free_case_zero(self):
        cfg = FieldConfig(2, 1.0)
        assert large_x_asymptotic(cfg, SemitransparentBC.free(), 3.0) == 0.0

    def test_large_x_delta_ratio(self):
        # coupling ratio -gamma/((alpha+sigma) m + gamma) = -1/2 at gamma = 2
        cfg = FieldConfig(2, 1.0)
        bc = SemitransparentBC.delta(2.0)
        envelope = math.exp(-6.0) / (8.0 * math.pi * 3.0)
        assert large_x_asymptotic(cfg, bc, 3.0) == pytest.approx(-0.5 * envelope, rel=1e-14)

    def test_large_x_delta_prime_ratio(self):
        # kernel-normalized weights give beta m^2/(beta m^2 + 2 m) = 1/3 here
        cfg = FieldConfig(2, 1.0)
        bc = SemitransparentBC.delta_prime(1.0)
        envelope = math.exp(-6.0) / (8.0 * math.pi * 3.0)
        assert large_x_asymptotic(cfg, bc, 3.0) == pytest.approx(envelope / 3.0, rel=1e-14)
        # and the plane term approaches the law
        ratio = plane_term(cfg, bc, 8.0) / large_x_asymptotic(cfg, bc, 8.0)
        assert abs(ratio - 1.0) < 0.05

    def test_large_x_delta_prime_channel_decomposition(self):
        # pure delta-prime = (Neumann + Robin(2/beta))/2 on the half-line,
        # hence the same split holds for the plane term itself
        from vacpol.reflecting import plane_term as refl_plane

        cfg = FieldConfig(2, 1.0)
        beta = 1.0
        for x1 in (0.5, 1.0, 2.5):
            semi = plane_term(cfg, SemitransparentBC.delta_prime(beta), x1)
            neumann = refl_plane(cfg, ReflectingBC.neumann(), x1)
            robin = refl_plane(cfg, ReflectingBC.robin(2.0 / beta), x1)
            assert semi == pytest.approx(0.5 * (neumann + robin), rel=1e-10)


class TestMassless:
    def test_delta_d1_value(self):
        # (1/2pi)[0 - EULER_GAMMA + e Gamma(0,1)] at gamma=2, kappa=1, x=1/2
        value = massless_value(FieldConfig(1, 0.0), SemitransparentBC.delta(2.0), 0.5)
        expected = (-EULER_GAMMA + math.e * upper_gamma(0.0, 1.0)) / (2.0 * math.pi)
        assert value.total == pytest.approx(expected, rel=1e-12)
        assert value.total == pytest.approx(0.003044904214395939, rel=1e-10)

    def test_delta_prime_d1_infrared(self):
        with pytest.raises(InfraredDivergenceError):
            massless_value(FieldConfig(1, 0.0), SemitransparentBC.delta_prime(1.0), 0.5)

    def test_delta_gamma_zero_d1_infrared(self):
        bc = SemitransparentBC(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(InfraredDivergenceError):
            massless_value(FieldConfig(1, 0.0), bc, 0.5)

    def test_pure_delta_d1_finite_near_wall(self):
        # alpha = sigma: the massless value stays finite as the wall is approached
        bc = SemitransparentBC.delta(2.0)
        vals = [massless_value(FieldConfig(1, 0.0), bc, x).total for x in (1e-2, 1e-4, 1e-6)]
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
        assert abs(vals[2]) < 1.0

    def test_massless_positivity(self):
        with pytest.raises(ParameterError):
            massless_value(FieldConfig(2, 0.0), SemitransparentBC.delta(-1.0), 1.0)

    def test_d2_delta_prime_value_and_massive_limit(self):
        bc = SemitransparentBC.delta_prime(1.0)
        target = massless_value(FieldConfig(2, 0.0), bc, 1.0).total
        cfg = FieldConfig(2, 1e-4)
        massive = free_term(cfg) + plane_term(cfg, bc, 1.0)
        assert abs(massive - target) < 1e-3

    def test_d3_large_x_limit(self):
        # both coupling families (with strictly positive rates) approach
        # -Gamma((d-1)/2)/((4 pi)^((d+1)/2) |x|^(d-1))
        amp = lambda x: math.gamma(1.0) / (4.0 * math.pi) ** 2 / x**2
        for bc in (SemitransparentBC.delta(2.0), mixed_bc(1.2, 0.5, 0.4)):
            x = 120.0
            got = massless_value(FieldConfig(3, 0.0), bc, x).total
            assert got == pytest.approx(-amp(x), rel=0.05)

    def test_d3_pure_delta_prime_tail_cancels(self):
        # at the threshold rate (pure delta-prime) even the leading massless
        # tail cancels: the decay is faster than |x|^-(d-1)
        bc = SemitransparentBC.delta_prime(1.5)
        amp = lambda x: math.gamma(1.0) / (4.0 * math.pi) ** 2 / x**2
        for x in (30.0, 60.0):
            got = massless_value(FieldConfig(3, 0.0), bc, x).total
            assert abs(got) < 0.05 * amp(x)

    def test_d2_delta_prime_zero_rate_is_finite(self):
        # Lambda_minus = 0 forces M_minus = 0; no logarithmic obstruction
        value = massless_value(FieldConfig(2, 0.0), SemitransparentBC.delta_prime(1.0), 0.5)
        assert math.isfinite(value.total)


def test_validation_suite_passes():
    for result in check_semitransparent():
        assert result.passed, f"{result.name}: {result.deviation} > {result.tolerance}"
