import cmath
import math

import pytest

from conftest import edge_extrapolate, scattering_kernel
from hypothesis import given, settings
from hypothesis import strategies

from vacpol import reflecting as rf
from vacpol import semitransparent as st
from vacpol.errors import ParameterError
from vacpol.heatkernel import (
    DIRICHLET,
    HeatQuery,
    ReflectingBC,
    SemitransparentBC,
    reflecting_kernel,
    robin_half_line_kernel,
    robin_half_line_kernel_wform,
    semitransparent_kernel,
    spectral_oracle_robin,
    wall_kernel,
)
from vacpol.quadrature import QuadSpec, integrate_semi_infinite
from vacpol.validation import check_heatkernel

OMEGA = cmath.exp(0.6j)


class TestTypes:
    def test_heat_query_validation(self):
        with pytest.raises(ParameterError):
            HeatQuery(0.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            HeatQuery(1.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "field, args",
        [
            ("tau", (math.nan, 1.0, 1.0)),
            ("tau", (math.inf, 1.0, 1.0)),
            ("x1", (1.0, math.nan, 1.0)),
            ("x1", (1.0, math.inf, 1.0)),
            ("x1", (1.0, -math.inf, 1.0)),
            ("y1", (1.0, 1.0, math.nan)),
            ("y1", (1.0, 1.0, -math.inf)),
            ("y1", (1.0, 1.0, 0.0)),
        ],
    )
    def test_heat_query_names_the_bad_field(self, field, args):
        with pytest.raises(ParameterError, match=f"^{field} "):
            HeatQuery(*args)

    def test_reflecting_positivity(self):
        ReflectingBC(-0.5, 2.0).check_positive(1.0)
        with pytest.raises(ParameterError):
            ReflectingBC(-2.0, 0.0).check_positive(1.0)
        with pytest.raises(ParameterError):
            ReflectingBC(-0.1, 0.0).check_positive(0.0)
        ReflectingBC.dirichlet().check_positive(0.0)

    @pytest.mark.parametrize("field", ["b_plus", "b_minus"])
    def test_reflecting_nan_face_is_named(self, field):
        with pytest.raises(ParameterError, match=f"^{field} "):
            ReflectingBC(**{"b_plus": 0.0, "b_minus": 0.0, field: math.nan})
        ReflectingBC(**{field: DIRICHLET})  # +inf is the Dirichlet marker

    @given(
        strategies.floats(-3.0, 3.0),
        strategies.floats(-3.0, 3.0),
        strategies.floats(-3.0, 3.0),
        strategies.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_positivity_check_is_the_spectrum_verdict(self, first, second, third, m):
        # check_positive raises exactly when spectrum() reports a non-positive
        # operator, naming a rate the wall lists
        semi = (SemitransparentBC(first, second, (first * third - 1.0) / second, third)
                if abs(second) > 1e-6 else SemitransparentBC.delta(third))
        for mod, bc in ((rf, ReflectingBC(first, second)), (st, semi)):
            positive = mod.spectrum(bc, m).positive
            try:
                bc.check_positive(m)
                assert positive
            except ParameterError as exc:
                assert not positive
                assert str(exc).split(" = ")[0] in dict(bc.rates())

    def test_semitransparent_structure(self):
        with pytest.raises(ParameterError):
            SemitransparentBC(1.0, 1.0, 1.0, 1.0)  # det = 0
        with pytest.raises(ParameterError):
            SemitransparentBC(1.0, 0.0, 0.0, 1.0, 2.0 + 0.0j)  # |omega| != 1
        bc = SemitransparentBC.delta_prime(1.0)
        lam_p, lam_m = bc.lambda_pm()
        assert (lam_p, lam_m) == (2.0, 0.0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma_coupling", "sigma_param", "omega"])
    def test_semitransparent_nan_is_named(self, field):
        # nan compares false with every tolerance, so it must be caught by name
        params = {"alpha": 1.0, "beta": 0.0, "gamma_coupling": 1.5, "sigma_param": 1.0,
                  "omega": OMEGA, field: math.nan}
        with pytest.raises(ParameterError, match=f"^{field} "):
            SemitransparentBC(**params)

    def test_lambda_sign_flip_relation(self):
        # direct formula evaluation: flipping (beta, alpha-sigma) -- realized
        # by swapping alpha and sigma and negating both off-diagonal couplings
        # -- negates and swaps the two rates
        a, b, g = 1.4, 0.6, 0.5
        s = (1.0 + b * g) / a
        lam_p, lam_m = SemitransparentBC(a, b, g, s).lambda_pm()
        flip_p, flip_m = SemitransparentBC(s, -b, -g, a).lambda_pm()
        assert flip_p == pytest.approx(-lam_m, rel=1e-14)
        assert flip_m == pytest.approx(-lam_p, rel=1e-14)


class TestRobinHalfLine:
    def test_neumann_closed_value(self):
        q = HeatQuery(1.0, 1.0, 1.0)
        expected = (1.0 + math.exp(-1.0)) / math.sqrt(4.0 * math.pi)
        assert robin_half_line_kernel(q, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_dirichlet_limit_value(self):
        q = HeatQuery(1.0, 1.0, 1.0)
        expected = (1.0 - math.exp(-1.0)) / math.sqrt(4.0 * math.pi)
        assert reflecting_kernel(q, ReflectingBC.dirichlet()) == pytest.approx(expected, rel=1e-13)
        # huge coupling approaches the Dirichlet form
        big = robin_half_line_kernel(q, 1e6)
        assert big == pytest.approx(expected, abs=1e-5)

    def test_mass_shift_identity(self):
        q = HeatQuery(0.7, 0.8, 1.4)
        for b in (-0.5, 0.0, 2.0):
            assert robin_half_line_kernel(q, b, 1.3) == pytest.approx(
                math.exp(-1.3**2 * 0.7) * robin_half_line_kernel(q, b, 0.0), rel=1e-15
            )

    def test_nan_coupling_is_named(self):
        with pytest.raises(ParameterError, match="^b "):
            robin_half_line_kernel(HeatQuery(1.0, 1.0, 1.0), math.nan)

    def test_past_double_range_is_a_parameter_error(self):
        # below -m the bound state grows like e^{tau b^2}: e^4760 here
        with pytest.raises(ParameterError, match="past double range"):
            robin_half_line_kernel(HeatQuery(3.0, 0.5, 0.5), -40.0)

    def test_wform_oracle_agreement(self):
        for tau, x, y, b in ((0.5, 0.7, 0.4, 1.0), (1.0, 1.0, 1.0, -0.5), (0.2, 0.3, 1.2, 2.0)):
            q = HeatQuery(tau, x, y)
            assert robin_half_line_kernel(q, b) == pytest.approx(
                robin_half_line_kernel_wform(q, b), abs=1e-10
            )

    def test_wform_bound_state_peak_far_out(self):
        # b = -1 at tau = 300 puts the Gaussian peak of the w-integral at
        # w* = 600 - 1.3, which one rule over the whole half-line missed
        q = HeatQuery(300.0, 0.5, 0.8)
        assert robin_half_line_kernel_wform(q, -1.0) == pytest.approx(
            robin_half_line_kernel(q, -1.0), rel=1e-10
        )

    def test_spectral_oracle_agreement(self):
        points = [
            (0.5, 0.7, 0.4, 1.0, 0.0),
            (1.0, 1.0, 1.0, -1.0, 0.0),
            (0.5, 0.3, 0.7, 5.0, 0.0),
            (0.8, 1.5, 0.2, -0.3, 0.7),
        ]
        for tau, x, y, b, m in points:
            q = HeatQuery(tau, x, y)
            assert spectral_oracle_robin(q, b, m) == pytest.approx(
                robin_half_line_kernel(q, b, m), abs=1e-7
            )

    def test_spectral_bound_state_term(self):
        # b = -1, tau = 1, x = y = 1: bound-state piece is 2 e^(1-2)
        q = HeatQuery(1.0, 1.0, 1.0)
        continuum_only = spectral_oracle_robin(q, -1.0) - 2.0 * math.exp(-1.0)
        assert continuum_only < robin_half_line_kernel(q, -1.0)
        assert 2.0 * math.exp(-1.0) == pytest.approx(0.7357588823428847, rel=1e-13)

    def test_boundary_condition_at_wall(self):
        for b, tau, y in ((0.7, 0.6, 0.9), (-0.4, 0.8, 1.2)):
            k = lambda xx: robin_half_line_kernel(HeatQuery(tau, xx, y), b)
            val0, der0 = edge_extrapolate(k, 1e-4)
            assert -der0 + b * val0 == pytest.approx(0.0, abs=1e-6)


class TestReflecting:
    def test_vanishes_across_wall(self):
        q = HeatQuery(1.0, 1.0, -1.0)
        assert reflecting_kernel(q, ReflectingBC.neumann()) == 0.0

    def test_reflection_identity(self):
        bc = ReflectingBC(b_plus=5.0, b_minus=0.0)
        q_minus = HeatQuery(1.0, -1.0, -1.0)
        q_plus = HeatQuery(1.0, 1.0, 1.0)
        assert reflecting_kernel(q_minus, bc) == pytest.approx(
            robin_half_line_kernel(q_plus, 0.0), rel=1e-14
        )

    def test_symmetry(self):
        bc = ReflectingBC(0.8, -0.2)
        for tau, x, y in ((0.5, 0.4, 1.7), (1.2, -0.6, -0.3)):
            a = reflecting_kernel(HeatQuery(tau, x, y), bc, 0.5)
            b = reflecting_kernel(HeatQuery(tau, y, x), bc, 0.5)
            assert a == pytest.approx(b, rel=1e-14)

    def test_positivity_gate(self):
        with pytest.raises(ParameterError):
            reflecting_kernel(HeatQuery(1.0, 1.0, 1.0), ReflectingBC(-2.0, 0.0), 1.0)

    def test_neumann_conservation(self):
        spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-11, max_subdivisions=400)
        total, _ = integrate_semi_infinite(
            lambda y: robin_half_line_kernel(HeatQuery(0.5, 0.7, y + 1e-14), 0.0), spec
        )
        assert total == pytest.approx(1.0, abs=1e-8)


class TestSemitransparent:
    def test_free_wall_is_gaussian(self):
        q = HeatQuery(0.7, 0.9, -0.3)
        expected = math.exp(-0.25 * 0.7 - 1.2**2 / (4 * 0.7)) / math.sqrt(4 * math.pi * 0.7)
        got = semitransparent_kernel(q, SemitransparentBC.free(), 0.5)
        assert got.real == pytest.approx(expected, rel=1e-14)
        assert got.imag == 0.0

    @pytest.mark.parametrize(
        "bc",
        [
            SemitransparentBC.delta(1.5),
            SemitransparentBC.delta(0.7),
            SemitransparentBC(2.0, 0.0, 1.0, 0.5, OMEGA),
            SemitransparentBC.delta_prime(0.8),
            SemitransparentBC(1.2, 0.5, 0.4, 1.0),
            SemitransparentBC(1.2, 0.5, 0.4, 1.0, OMEGA),
        ],
    )
    def test_matches_scattering_truth(self, bc):
        # first-principles eigenfunction expansion, massless, no bound states
        for tau, x, y in ((0.6, 0.9, 0.5), (0.6, 0.9, -0.5), (0.5, -0.7, -0.4), (0.4, -1.1, 0.3)):
            truth = scattering_kernel(bc, tau, x, y)
            got = semitransparent_kernel(HeatQuery(tau, x, y), bc, 0.0)
            assert abs(got - truth) < 1e-9

    def test_transfer_relation_with_bound_state(self):
        # beta < 0 has Lambda rates below zero; the scattering oracle does not
        # apply, but the jump conditions still pin the kernel down
        bc = SemitransparentBC.delta_prime(-1.5)
        m, tau, y = 1.6, 0.6, 0.9
        k = lambda xx: semitransparent_kernel(HeatQuery(tau, xx, y), bc, m)
        val_p, der_p = edge_extrapolate(k, 1e-4)
        val_m, der_m = edge_extrapolate(k, -1e-4)
        (t11, t12), (t21, t22) = bc.transfer_matrix()
        assert abs(val_p - (t11 * val_m + t12 * der_m)) < 1e-6
        assert abs(der_p - (t21 * val_m + t22 * der_m)) < 1e-6

    def test_hermitian_with_complex_omega(self):
        bc = SemitransparentBC(1.0, 0.4, 0.3, 1.12, OMEGA)
        for x, y in ((0.5, -0.8), (-1.1, 0.3), (0.7, 0.9)):
            a = semitransparent_kernel(HeatQuery(0.7, x, y), bc, 0.5)
            b = semitransparent_kernel(HeatQuery(0.7, y, x), bc, 0.5)
            assert a == pytest.approx(b.conjugate(), abs=1e-12)

    def test_real_for_real_omega(self):
        bc = SemitransparentBC(1.2, 0.5, 0.4, 1.0)
        got = semitransparent_kernel(HeatQuery(0.5, 0.4, -0.9), bc, 0.3)
        assert got.imag == pytest.approx(0.0, abs=1e-15)

    def test_positivity_gate(self):
        with pytest.raises(ParameterError):
            semitransparent_kernel(
                HeatQuery(1.0, 1.0, 1.0), SemitransparentBC.delta(-3.0), 1.0
            )


class TestWallKernel:
    def test_positivity_is_checked_once_up_front(self):
        with pytest.raises(ParameterError, match="b_plus"):
            wall_kernel(ReflectingBC(-5.0, 0.0), 1.0)
        with pytest.raises(ParameterError, match="Lambda_minus"):
            wall_kernel(SemitransparentBC.delta_prime(-1.5), 0.0)

    @pytest.mark.parametrize("field, args", [
        ("tau", (0.0, 1.0, 1.0)), ("tau", (math.nan, 1.0, 1.0)), ("tau", (math.inf, 1.0, 1.0)),
        ("x1", (1.0, 0.0, 1.0)), ("x1", (1.0, math.nan, 1.0)), ("y1", (1.0, 1.0, -math.inf)),
    ])
    def test_each_point_is_checked(self, field, args):
        kernel = wall_kernel(SemitransparentBC(1.0, 0.4, 0.3, 1.12, OMEGA), 0.5)
        kernel(1.0, 1.0, 1.0)  # the record of this side pair exists
        with pytest.raises(ParameterError, match=f"^{field} "):
            kernel(*args)

    def test_value_types(self):
        # the one-value kernels: real for a reflecting wall, complex for a
        # semitransparent one, on one side as across the wall
        for one, bc, kind in (
            (reflecting_kernel, ReflectingBC.robin(2.0), float),
            (semitransparent_kernel, SemitransparentBC.delta(1.0), complex),
        ):
            assert {type(one(HeatQuery(0.5, 0.7, y), bc, 0.5)) for y in (0.3, -0.3)} == {kind}


@pytest.mark.parametrize("m", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "kernel, bc, y",
    [
        # b_plus = -5 violates positivity for every m < 5, but the gate only
        # looks at m > 0 and m = 0
        (reflecting_kernel, ReflectingBC(-5.0, 0.0), 0.3),
        (reflecting_kernel, ReflectingBC(-5.0, 0.0), -0.3),
        (semitransparent_kernel, SemitransparentBC(1.0, 0.4, 0.3, 1.12, OMEGA), 0.3),
        (semitransparent_kernel, SemitransparentBC(1.0, 0.4, 0.3, 1.12, OMEGA), -0.3),
        (robin_half_line_kernel, -5.0, 0.3),
    ],
)
def test_bad_mass_is_named(kernel, bc, y, m):
    with pytest.raises(ParameterError, match="^m "):
        kernel(HeatQuery(0.5, 0.7, y), bc, m)


@pytest.mark.parametrize("tau", [0.3, 1.8, 3.0])
def test_deep_bound_state_against_mpmath(tau):
    # rate c = -20 with m = 20.5: from tau ~ 1.8 on, e^{-m^2 tau} underflows or
    # the bound-state growth e^{tau c^2 + c s} overflows alone; their product
    # is in range
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    c, m, x = -20.0, 20.5, 0.5
    got = semitransparent_kernel(HeatQuery(tau, x, x), SemitransparentBC.delta(2.0 * c), m)
    assert got.imag == 0.0
    t, s = mpmath.mpf(tau), mpmath.mpf(2.0 * x)
    peak = -2 * c * t - s
    image = mpmath.quad(lambda w: mpmath.exp(-c * w - (w + s) ** 2 / (4 * t)),
                        [0, peak, peak + 40 * mpmath.sqrt(t), mpmath.inf])
    scale = mpmath.exp(-m * m * t) / mpmath.sqrt(4 * mpmath.pi * t)
    # pure delta wall: head 0 and the image (-2c, c)
    ref = scale * (1 - c * image)
    assert float(abs(got.real - ref) / ref) < 1e-12
    # Robin face b = c: head 1 and the image (-4c, c)
    robin = reflecting_kernel(HeatQuery(tau, x, x), ReflectingBC.robin(c), m)
    ref = scale * (1 + mpmath.exp(-s * s / (4 * t)) - 2 * c * image)
    assert float(abs(robin - ref) / ref) < 1e-12


def test_validation_suite_passes():
    for result in check_heatkernel():
        assert result.passed, f"{result.name}: {result.deviation} > {result.tolerance}"
