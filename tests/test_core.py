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
