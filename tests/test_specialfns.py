import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies
from scipy.integrate import quad

from vacpol.errors import ParameterError
from vacpol.specialfns import (
    EULER_GAMMA,
    bessel_k_weighted,
    bessel_k_weighted_scaled,
    erf,
    erfc,
    erfcx,
    harmonic_number,
    upper_gamma,
    upper_gamma_scaled,
)
from vacpol.validation import check_specialfns


def bessel_k_series_oracle(nu, w, terms=200):
    """K_nu by the defining I-series, K = pi/2 (I_-nu - I_nu)/sin(pi nu);
    independent of the production algorithm (non-integer nu, small w)."""

    def bessel_i(order, arg):
        acc = 0.0
        for k in range(terms):
            term = (0.5 * arg) ** (2 * k + order) / (
                math.gamma(k + 1) * math.gamma(k + order + 1)
            )
            acc += term
            if k > 3 and abs(term) < 1e-18 * abs(acc):
                break
        return acc

    return 0.5 * math.pi * (bessel_i(-nu, w) - bessel_i(nu, w)) / math.sin(math.pi * nu)


def erf_taylor_oracle(z, terms=60):
    acc = 0.0
    for n in range(terms):
        acc += (-1) ** n * z ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * acc


class TestWeightedBesselK:
    def test_half_order_closed_form(self):
        # w^(1/2) K_(1/2)(w) = sqrt(pi/2) e^-w
        assert bessel_k_weighted(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-14
        )
        # series oracle agrees
        oracle = math.sqrt(1.0) * bessel_k_series_oracle(0.5, 1.0)
        assert bessel_k_weighted(0.5, 1.0) == pytest.approx(oracle, rel=1e-12)

    def test_half_order_scaled_identity_everywhere(self):
        for w in [0.01, 0.05, 0.3, 1.0, 4.0, 17.0, 50.0]:
            val = bessel_k_weighted(0.5, w) * math.exp(w)
            assert abs(val - math.sqrt(math.pi / 2.0)) < 1e-12

    def test_small_argument_log_regime(self):
        # nu = 0: F(w) = -log(w/2) - EULER_GAMMA + O(w^2 log w)
        w = 0.001
        got = bessel_k_weighted(0.0, w)
        assert got == pytest.approx(7.023688800562381, rel=1e-12)  # 30-digit reference
        assert abs(got - (-math.log(0.5 * w) - EULER_GAMMA)) < 1e-5

    def test_small_argument_limit_positive_order(self):
        # F(nu, 0+) = 2^(nu-1) Gamma(nu)
        for nu in (0.75, 1.0, 2.5, 4.0):
            got = bessel_k_weighted(nu, 1e-8)
            assert got == pytest.approx(2.0 ** (nu - 1.0) * math.gamma(nu), rel=1e-7)

    def test_series_oracle_grid(self):
        for nu in (0.3, 0.8, 1.2, 2.7):
            for w in (0.05, 0.4, 1.5):
                oracle = w**nu * bessel_k_series_oracle(nu, w)
                assert bessel_k_weighted(nu, w) == pytest.approx(oracle, rel=1e-11)

    def test_negative_order_weighting(self):
        # K is even in nu; only the power weight changes
        for w in (0.2, 3.0):
            assert bessel_k_weighted(-0.7, w) == pytest.approx(
                bessel_k_weighted(0.7, w) * w ** (-1.4), rel=1e-13
            )

    def test_recurrence(self):
        # F(nu+1) = 2 nu F(nu) + w^2 F(nu-1)
        for nu in (0.0, 0.4, 1.0, 3.3):
            for w in (0.02, 1.0, 9.0, 40.0):
                lhs = bessel_k_weighted(nu + 1.0, w)
                rhs = 2.0 * nu * bessel_k_weighted(nu, w) + w * w * bessel_k_weighted(nu - 1.0, w)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_scaled_variant_consistency(self):
        for nu in (0.0, 1.5, 4.2):
            for w in (0.3, 2.5, 60.0, 300.0):
                assert bessel_k_weighted_scaled(nu, w) == pytest.approx(
                    bessel_k_weighted(nu, w) * math.exp(w), rel=1e-12
                )

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            bessel_k_weighted(1.0, 0.0)
        with pytest.raises(ParameterError):
            bessel_k_weighted(1.0, -2.0)
        with pytest.raises(ParameterError):
            bessel_k_weighted(51.0, 1.0)
        with pytest.raises(ParameterError):
            bessel_k_weighted(math.nan, 1.0)

    @pytest.mark.parametrize(
        "fn, nu, w",
        [
            (bessel_k_weighted, -3.0, 1e-120),
            (bessel_k_weighted_scaled, -3.0, 1e-120),
            (bessel_k_weighted_scaled, 50.0, 1e13),
            (bessel_k_weighted_scaled, 50.0, 1.8e6),
        ],
    )
    def test_past_double_range_is_a_parameter_error(self, fn, nu, w):
        with pytest.raises(ParameterError, match=r"nu=.*w="):
            fn(nu, w)

    @pytest.mark.parametrize("nu, w", [(50.0, 1e13), (50.0, 1.8e6), (3.0, 1e300)])
    def test_past_the_subnormal_range_is_zero(self, nu, w):
        # the scaled value is inf here, and e^{-w/2} is 0
        assert bessel_k_weighted(nu, w) == 0.0

    def test_arrays_match_points(self):
        # one code path: every edge (w**nu split, Hankel, small-w series,
        # underflow past the subnormal range) gives each array element its
        # single-point value
        edges = [2e9, 1e-310, 0.7, 800.0]
        cases = [(50.0, [1.5e6, 3e-5, 0.7])] + [(nu, edges) for nu in (0.0, 0.3, 2.5, -0.2)]
        for fn in (bessel_k_weighted, bessel_k_weighted_scaled):
            for nu, w in cases:
                got = fn(nu, w)
                assert list(got) == [fn(nu, x) for x in w]
        with pytest.raises(ParameterError, match="w=-1.0"):
            bessel_k_weighted_scaled(1.0, [1.0, -1.0])

    def test_representable_edge_values_do_not_raise(self):
        # w**nu alone overflows here, the product does not
        assert math.isfinite(bessel_k_weighted_scaled(50.0, 1.5e6))
        # K_50 overflows, the weighted value does not
        assert bessel_k_weighted(50.0, 1e-6) == pytest.approx(2.0**49 * math.gamma(50.0), rel=1e-12)
        # below the floor of the scipy kernel, order 0 keeps its logarithm
        w = 1e-310
        assert bessel_k_weighted(0.0, w) == pytest.approx(-math.log(0.5 * w) - EULER_GAMMA, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    k=strategies.integers(-100, 100),
    offset=strategies.sampled_from((-1e-14, 1e-14)),
    w=strategies.floats(-3.0, math.log10(600.0)).map(lambda e: 10.0**e),
)
def test_no_jump_between_exact_orders_and_kve(k, offset, w):
    # an order n = k/2 takes k0e / k1e or the closed half order and the
    # recurrence; n +- 1e-14 takes kve.  On w in [1e-3, 600] the true value
    # moves by under 1e-13 relative over that step
    n = 0.5 * k
    near = n + offset if abs(n + offset) <= 50.0 else n - offset
    try:
        exact, other = bessel_k_weighted(n, w), bessel_k_weighted(near, w)
    except ParameterError:  # a negative order past double range at small w
        exact = other = math.nan
    assume(exact >= sys.float_info.min)
    assert other == pytest.approx(exact, rel=1e-12, abs=0.0)


class TestUpperGamma:
    @pytest.mark.parametrize("a, z", [(-20.0, 1e-20), (-19.5, 1e-20)])
    def test_past_double_range_is_a_parameter_error(self, a, z):
        with pytest.raises(ParameterError, match=r"a=.*z="):
            upper_gamma(a, z)

    def test_a1_exact(self):
        assert upper_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_a0_quadrature_oracle(self):
        oracle, _ = quad(lambda t: math.exp(-t) / t, 1.0, 200.0, epsabs=1e-14, epsrel=1e-13)
        assert upper_gamma(0.0, 1.0) == pytest.approx(oracle, rel=1e-12)
        assert upper_gamma(0.0, 1.0) == pytest.approx(0.21938393439552026, rel=1e-12)

    def test_negative_a_recurrence_value(self):
        expected = (upper_gamma(0.0, 1.0) - math.exp(-1.0)) / (-1.0)
        assert upper_gamma(-1.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert upper_gamma(-1.0, 1.0) == pytest.approx(0.14849550677592205, rel=1e-10)

    def test_recurrence_identity(self):
        for a in (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0):
            for z in (0.1, 1.0, 10.0):
                lhs = upper_gamma(a + 1.0, z)
                rhs = a * upper_gamma(a, z) + z**a * math.exp(-z)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-280)

    def test_deep_negative_large_z(self):
        # the continued-fraction route avoids the recurrence cancellation
        assert upper_gamma(-20.0, 100.0) == pytest.approx(3.0787996825236984e-86, rel=1e-10)

    def test_scaled_combination(self):
        # e^w w^n Gamma(-n, w): finite limit 1/n at w -> 0, ~1/w at w -> inf
        for n in (1, 2, 5, 9):
            assert upper_gamma_scaled(n, 0.0) == pytest.approx(1.0 / n, abs=0.0)
            assert upper_gamma_scaled(n, 1e-10) == pytest.approx(1.0 / n, rel=1e-8)
            big = upper_gamma_scaled(n, 5000.0)
            assert big == pytest.approx(1.0 / 5000.0, rel=1e-2)

    def test_scaled_matches_plain(self):
        for n in (0, 1, 3, 8):
            for w in (0.05, 0.9, 1.5, 30.0):
                plain = math.exp(w) * w**n * upper_gamma(-float(n), w)
                assert upper_gamma_scaled(n, w) == pytest.approx(plain, rel=1e-9)

    def test_scaled_n0_large_no_overflow(self):
        assert upper_gamma_scaled(0, 1e5) == pytest.approx(1e-5, rel=1e-3)

    @pytest.mark.parametrize("n, w", [(0, 5.23606797749979e100), (0, 1e300), (4, 3.7e150),
                                      (10, 2.5e20)])
    def test_scaled_huge_argument_against_mpmath(self, n, w):
        # the continued fraction stops within one ulp of 1: at w ~ 5e100 its
        # step sat one ulp from 1, below a stop at 1e-16, until it gave up
        import mpmath

        with mpmath.workdps(50):
            z = mpmath.mpf(w)
            ref = mpmath.exp(z) * z**n * mpmath.gammainc(-n, z)
        assert upper_gamma_scaled(n, w) == pytest.approx(float(ref), rel=1e-15)

    @pytest.mark.parametrize("w", [0.0, -1.0, math.nan])
    def test_scaled_n0_needs_positive_w(self, w):
        # exp(w) E_1(w) diverges logarithmically at w = 0
        with pytest.raises(ParameterError, match="w > 0"):
            upper_gamma_scaled(0, w)

    def test_domain(self):
        with pytest.raises(ParameterError):
            upper_gamma(0.0, 0.0)
        with pytest.raises(ParameterError):
            upper_gamma(0.0, -1.0)

    @pytest.mark.parametrize(
        "fn, args, name",
        [
            (upper_gamma, (math.nan, 1.0), "a"),
            (upper_gamma, (math.inf, 1.0), "a"),
            (upper_gamma, (-math.inf, 1.0), "a"),
            (upper_gamma, (1.0, math.inf), "z"),
            (upper_gamma, (-2.5, math.nan), "z"),
            (upper_gamma_scaled, (math.nan, 1.0), "n"),
            (upper_gamma_scaled, (math.inf, 1.0), "n"),
            (upper_gamma_scaled, (1, math.nan), "w"),
            (upper_gamma_scaled, (0, math.inf), "w"),
            (upper_gamma_scaled, (3, math.inf), "w"),
        ],
    )
    def test_non_finite_arguments_are_named(self, fn, args, name):
        with pytest.raises(ParameterError, match=rf"finite {name}\b.*got {name}="):
            fn(*args)


class TestErf:
    def test_reference_value(self):
        oracle = erf_taylor_oracle(1.0)
        assert erf(1.0) == pytest.approx(oracle, abs=1e-14)
        assert erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-12)

    def test_odd(self):
        for z in (0.0, 0.3, 1.7, 4.0):
            assert erf(-z) == -erf(z)

    def test_complement(self):
        for z in (0.1, 1.0, 3.0):
            assert erf(z) + erfc(z) == pytest.approx(1.0, abs=1e-14)

    def test_erfcx_matches_direct_product(self):
        for z in (0.0, 0.5, 3.0, 10.0, 19.9):
            assert erfcx(z) == pytest.approx(math.exp(z * z) * erfc(z), rel=1e-12)

    def test_erfcx_huge_argument(self):
        z = 1e4
        assert erfcx(z) == pytest.approx(1.0 / (z * math.sqrt(math.pi)), rel=1e-6)


def test_harmonic_numbers():
    assert harmonic_number(0) == 0.0
    assert harmonic_number(1) == 1.0
    assert harmonic_number(4) == pytest.approx(25.0 / 12.0, rel=1e-15)
    with pytest.raises(ParameterError):
        harmonic_number(-1)


def test_euler_gamma_constant():
    assert EULER_GAMMA == 0.5772156649015329
    assert math.exp(EULER_GAMMA) == pytest.approx(1.7810724179901979, rel=1e-14)


def test_validation_suite_passes():
    for result in check_specialfns():
        assert result.passed, f"{result.name}: {result.deviation} > {result.tolerance}"
