import cmath
import math

import pytest

from vacpol.core import FieldConfig, PolarizationValue, fit_laurent_at_zero, sign
from vacpol.errors import ParameterError


class TestFieldConfig:
    def test_valid_range(self):
        cfg = FieldConfig(3, 1.0, kappa=2.0)
        assert (cfg.d, cfg.m, cfg.kappa) == (3, 1.0, 2.0)
        FieldConfig(1, 0.0)
        FieldConfig(11, 5.0)

    @pytest.mark.parametrize("d", [0, 12, -1, 2.5])
    def test_bad_dimension(self, d):
        with pytest.raises(ParameterError):
            FieldConfig(d, 1.0)

    def test_bad_mass_and_scale(self):
        with pytest.raises(ParameterError):
            FieldConfig(2, -1.0)
        with pytest.raises(ParameterError):
            FieldConfig(2, 1.0, kappa=0.0)

    def test_infinite_scale_is_named(self):
        # an infinite kappa used to pass and surface as an infinite massless
        # value or a plane term "past double range"
        with pytest.raises(ParameterError, match="^kappa "):
            FieldConfig(1, 0.0, math.inf)
        with pytest.raises(ParameterError, match="^kappa "):
            FieldConfig(3, 1.0, math.inf)


@pytest.mark.parametrize("m", [-1.0, math.nan, math.inf])
def test_bad_mass_is_named_everywhere(m):
    from vacpol import reflecting as rf
    from vacpol import semitransparent as st
    from vacpol.core import SpectrumReport
    from vacpol.heatkernel import ReflectingBC, SemitransparentBC

    entries = [
        lambda: FieldConfig(3, m),
        lambda: SpectrumReport.from_rates(m, (1.0,)),
        lambda: rf.spectrum(ReflectingBC.robin(1.0), m),
        lambda: st.spectrum(SemitransparentBC.delta_prime(1.0), m),
    ]
    for entry in entries:
        with pytest.raises(ParameterError, match="^m "):
            entry()


def test_polarization_value_split_is_exact():
    value = PolarizationValue.build(0.125, -0.5, "test")
    assert value.total == value.free_term + value.plane_term


@pytest.mark.parametrize("wall", ["robin", "delta_prime"])
@pytest.mark.parametrize("d, u", [(1, -1.0), (3, -1.0), (5, -3.0), (3, -5.0)])
def test_continuation_vanishes_where_its_gamma_factor_does(wall, d, u):
    # at odd d the zeros u = -1, -3, ... of 1/Gamma((u+1)/2) are off the pole
    # lattice, and the continuation passes through 0 there
    from vacpol import reflecting as rf
    from vacpol import semitransparent as st
    from vacpol.heatkernel import ReflectingBC, SemitransparentBC

    mod, bc = {"robin": (rf, ReflectingBC.robin(1.0)),
               "delta_prime": (st, SemitransparentBC.delta_prime(1.0))}[wall]
    cfg = FieldConfig(d, 1.0)
    assert mod.regularized_polarization(cfg, bc, 0.7, u) == 0.0
    above, below = (mod.regularized_polarization(cfg, bc, 0.7, u + e) for e in (1e-9, -1e-9))
    assert above == pytest.approx(-below, rel=1e-6, abs=0.0)
    assert 0.0 < abs(above) < 1e-9


def test_sign_excludes_the_wall():
    assert sign(2.0) == 1.0
    assert sign(-0.3) == -1.0
    with pytest.raises(ParameterError):
        sign(0.0)


class TestLaurentFit:
    def test_synthetic_meromorphic_function(self):
        # f(u) = 3/u - 2 + 0.5 u + 7 u^2 - 4 u^3: the u^3 term aliases onto
        # c_m1 at 4|c3| eps^4 and onto c1 at 5|c3| eps^2; c0 is clean
        f = lambda u: 3.0 / u - 2.0 + 0.5 * u + 7.0 * u * u - 4.0 * u**3
        fit = fit_laurent_at_zero(f, eps=1e-3)
        assert fit.c_m1 == pytest.approx(3.0, abs=2e-11)
        assert fit.c0 == pytest.approx(-2.0, abs=1e-11)
        assert fit.c1 == pytest.approx(0.5, abs=3e-5)
        assert fit.c2 == pytest.approx(7.0, abs=1e-4)

    def test_quadratic_term_does_not_bias_c0(self):
        # the failure mode of a plain 3-parameter least-squares fit
        f = lambda u: 1.0 / u + 5.0 * u * u
        fit = fit_laurent_at_zero(f, eps=1e-3)
        assert fit.c0 == pytest.approx(0.0, abs=1e-12)

    def test_analytic_function_has_no_pole(self):
        fit = fit_laurent_at_zero(math.exp, eps=1e-3)
        assert fit.c_m1 == pytest.approx(0.0, abs=1e-12)
        assert fit.c0 == pytest.approx(1.0, abs=1e-12)
        assert fit.c1 == pytest.approx(1.0, abs=1e-6)

    def test_bad_eps(self):
        with pytest.raises(ParameterError):
            fit_laurent_at_zero(math.exp, eps=0.0)


def _x1_entry_points():
    from vacpol import reflecting as rf
    from vacpol import semitransparent as st
    from vacpol.heatkernel import ReflectingBC, SemitransparentBC

    cfg, cfg0 = FieldConfig(3, 1.0), FieldConfig(3, 0.0)
    calls = {"semitransparent.diagonal_coefficients":
                 lambda x1: st.diagonal_coefficients(SemitransparentBC.delta_prime(1.0), x1)}
    for mod, bc in ((rf, ReflectingBC.robin(2.0)), (st, SemitransparentBC.delta_prime(1.0))):
        name = mod.__name__.rpartition(".")[2]
        for fn in ("plane_term", "plane_term_oracle", "laurent_coefficients",
                   "renormalize_at_zero", "small_x_asymptotic", "large_x_asymptotic"):
            calls[f"{name}.{fn}"] = lambda x1, f=getattr(mod, fn), bc=bc: f(cfg, bc, x1)
        calls[f"{name}.regularized_polarization"] = (
            lambda x1, f=mod.regularized_polarization, bc=bc: f(cfg, bc, x1, 0.5))
        calls[f"{name}.regularized_polarization_oracle"] = (
            lambda x1, f=mod.regularized_polarization_oracle, bc=bc: f(cfg, bc, x1, 3.5))
        calls[f"{name}.massless_value"] = lambda x1, f=mod.massless_value, bc=bc: f(cfg0, bc, x1)
    return calls


X1_ENTRY_POINTS = _x1_entry_points()


@pytest.mark.parametrize("x1", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("entry", sorted(X1_ENTRY_POINTS))
def test_bad_x1_is_named_at_the_entry(entry, x1):
    with pytest.raises(ParameterError, match="x1"):
        X1_ENTRY_POINTS[entry](x1)


def _high_d_near_wall():
    from vacpol import reflecting as rf
    from vacpol import semitransparent as st
    from vacpol.heatkernel import ReflectingBC, SemitransparentBC

    walls = ((rf, ReflectingBC.neumann()), (rf, ReflectingBC.robin(2.0)),
             (st, SemitransparentBC.delta_prime(1.0)), (st, SemitransparentBC(2.0, 0.0, 1.0, 0.5)))
    return [(mod, bc, d) for mod, bc in walls for d in (9, 11)]


@pytest.mark.parametrize("mod, bc, d", _high_d_near_wall())
def test_renormalize_consistency_scales_with_the_value(mod, bc, d):
    # at |x1| = 0.05 these values reach 1e5..1e8; an absolute 1e-6 bound
    # used to reject their 1e-12 relative Laurent rounding
    cfg = FieldConfig(d, 1.0)
    value = mod.renormalize_at_zero(cfg, bc, 0.05)
    assert abs(value.total) > 1e5
    assert value.plane_term == mod.plane_term(cfg, bc, 0.05)


@pytest.mark.parametrize("mod, bc, d", _high_d_near_wall()[::3])
def test_renormalize_consistency_still_rejects_relative_mismatch(monkeypatch, mod, bc, d):
    from vacpol import core
    from vacpol.errors import NumericalFailureError

    # the stencil values of the Laurent fit, one batch with the plane term
    exact = core._with_continued_free_term
    monkeypatch.setattr(core, "_with_continued_free_term",
                        lambda cfg, us, planes: [v * (1.0 + 1e-5) for v in exact(cfg, us, planes)])
    with pytest.raises(NumericalFailureError):
        mod.renormalize_at_zero(FieldConfig(d, 1.0), bc, 0.05)


def _d1_walls():
    from vacpol import reflecting as rf
    from vacpol import semitransparent as st
    from vacpol.heatkernel import DIRICHLET, ReflectingBC, SemitransparentBC

    return {
        "dirichlet": (rf, ReflectingBC.dirichlet(), 0.7),
        "robin_1": (rf, ReflectingBC.robin(1.0), 0.7),
        "delta_1": (st, SemitransparentBC.delta(1.0), 0.7),
        "skew_delta": (st, SemitransparentBC(2.0, 0.0, 1.0, 0.5), -0.7),
        "general": (st, SemitransparentBC(2.0, 1.0, 1.0, 1.0, cmath.exp(0.6j)), 1.0),
        "weak_gamma_delta_prime": (st, SemitransparentBC(1.0, 1.0, 1e-3, 1.0 + 1e-3), 0.7),
        "dirichlet_face": (rf, ReflectingBC(0.0, DIRICHLET), -0.5),
    }


def _d1_divergent_walls():
    from vacpol import reflecting as rf
    from vacpol import semitransparent as st
    from vacpol.heatkernel import DIRICHLET, ReflectingBC, SemitransparentBC

    return {
        "neumann": (rf, ReflectingBC.neumann(), 0.5),
        "neumann_face": (rf, ReflectingBC(0.0, DIRICHLET), 0.5),
        "delta_prime": (st, SemitransparentBC.delta_prime(1.0), 0.5),
        "free": (st, SemitransparentBC.free(), 0.5),
        "skew_gamma_0": (st, SemitransparentBC(2.0, 0.0, 0.0, 0.5), 0.5),
    }


class TestInfraredRule:
    """Massless d = 1 is decided once, by the record: finite exactly where the
    coupling ratio head + sum weight/(2 rate) is -1."""

    @pytest.mark.parametrize("name", list(_d1_walls()))
    def test_value_is_the_zero_mass_limit_less_euler_gamma_over_pi(self, name):
        from vacpol.specialfns import EULER_GAMMA

        mod, bc, x1 = _d1_walls()[name]
        value = mod.massless_value(FieldConfig(1, 0.0), bc, x1).total
        cfg = FieldConfig(1, 1e-10)
        limit = mod.free_term(cfg) + mod.plane_term(cfg, bc, x1) - EULER_GAMMA / math.pi
        assert abs(value - limit) <= 1e-12 * max(1.0, abs(limit))

    def test_dirichlet_face_is_the_dirichlet_value(self):
        from vacpol import reflecting as rf
        from vacpol.heatkernel import DIRICHLET, ReflectingBC

        cfg = FieldConfig(1, 0.0)
        value = rf.massless_value(cfg, ReflectingBC(0.0, DIRICHLET), -0.5).total
        assert value == rf.massless_value(cfg, ReflectingBC.dirichlet(), -0.5).total
        assert value == pytest.approx(-0.0918667263, abs=1e-10)

    @pytest.mark.parametrize("name", list(_d1_divergent_walls()))
    def test_uncancelled_logarithm_raises(self, name):
        from vacpol.errors import InfraredDivergenceError

        mod, bc, x1 = _d1_divergent_walls()[name]
        with pytest.raises(InfraredDivergenceError, match="coupling ratio"):
            mod.massless_value(FieldConfig(1, 0.0), bc, x1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_weak_coupling_delta_prime_is_finite(self, d):
        # gamma = 1e-20: Lambda_minus is 5e-21, not a cancelled 0
        from vacpol import semitransparent as st
        from vacpol.heatkernel import SemitransparentBC

        bc = SemitransparentBC(1.0, 1.0, 1e-20, 1.0)
        assert bc.lambda_pm()[1] == pytest.approx(5e-21, rel=1e-15)
        for x1 in (-0.7, 0.05, 3.0):
            assert math.isfinite(st.massless_value(FieldConfig(d, 0.0), bc, x1).total)


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 1.0), (3.0, 2.0), (1.0, -1.0),
                                         (0.5, -3.0)])
def test_lambda_pm_matches_50_digit_roots(alpha, beta):
    # the roots of beta L^2 - (alpha+sigma) L + gamma at the wall's own floats,
    # down to the weak couplings where a difference of the two would cancel
    import mpmath

    from vacpol.heatkernel import SemitransparentBC

    for exponent in range(3, 21):
        gamma = 10.0 ** -exponent
        bc = SemitransparentBC(alpha, beta, gamma, (1.0 + beta * gamma) / alpha)
        with mpmath.workdps(50):
            a, b = mpmath.mpf(beta), -(mpmath.mpf(alpha) + mpmath.mpf(bc.sigma_param))
            root = mpmath.sqrt(b * b - 4 * a * gamma)
            exact = sorted(((-b + root) / (2 * a), (-b - root) / (2 * a)), reverse=True)
            for got, want in zip(bc.lambda_pm(), exact):
                assert abs(got - want) <= 1e-15 * abs(want), (gamma, got, want)


class TestPastDoubleRange:
    def test_massless_law_names_the_distance(self):
        from vacpol import reflecting as rf
        from vacpol.heatkernel import ReflectingBC

        with pytest.raises(ParameterError, match=r"massless law .* \|x1\| = 1e-40$"):
            rf.massless_value(FieldConfig(11, 0.0), ReflectingBC.robin(2.0), 1e-40)
        with pytest.raises(ParameterError, match=r"\|x1\| = 1e-32$"):
            rf.massless_value(FieldConfig(11, 0.0), ReflectingBC.dirichlet(), 1e-32)

    @pytest.mark.parametrize("d", [3, 11])
    def test_massless_law_underflows_to_zero(self, d):
        # |x1|^(d-1) overflows
        from vacpol import reflecting as rf
        from vacpol.heatkernel import ReflectingBC

        assert rf.massless_value(FieldConfig(d, 0.0), ReflectingBC.robin(2.0), 1e200).total == 0.0

    @pytest.mark.parametrize("d", [6, 11])
    def test_free_terms_name_the_mass(self, d):
        from vacpol.core import _continued_free_term, free_term

        cfg = FieldConfig(d, 1e70)
        with pytest.raises(ParameterError, match="at m = 1e[+]70$"):
            free_term(cfg)
        with pytest.raises(ParameterError, match="at m = 1e[+]70$"):
            _continued_free_term(cfg, 0.5)

    def test_far_wall_law_underflows_at_a_huge_mass(self):
        from vacpol import reflecting as rf
        from vacpol.heatkernel import ReflectingBC

        cfg = FieldConfig(11, 1e70)
        assert list(rf.large_x_asymptotic(cfg, ReflectingBC.robin(2.0), [0.1, 5.0])) == [0.0, 0.0]

    @pytest.mark.parametrize("oracle", [False, True])
    def test_plane_term_is_zero_where_2m_x1_overflows(self, oracle):
        from vacpol import reflecting as rf
        from vacpol import semitransparent as st
        from vacpol.heatkernel import ReflectingBC, SemitransparentBC

        cfg, xs = FieldConfig(1, 1e300), [-1e200, -1e10, 1e-300, 1e10, 1e200]
        for mod, bc in ((rf, ReflectingBC.neumann()), (rf, ReflectingBC(2.0, 0.5)),
                        (st, SemitransparentBC(2.0, 1.0, 1.0, 1.0))):
            plane = mod.plane_term_oracle if oracle else mod.plane_term
            values = plane(cfg, bc, xs)
            assert list(values[[0, 1, 3, 4]]) == [0.0] * 4
            assert values[2] == plane(cfg, bc, 1e-300)
