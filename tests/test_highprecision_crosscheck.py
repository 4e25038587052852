"""Cross-checks against an arbitrary-precision reference (optional).

These run only when mpmath is installed (it is listed in the ``test``
extra); they pin the special-function accuracy claims on a random grid
rather than a handful of frozen literals.
"""

import json
import math
import os
import random
import sys

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from vacpol import reflecting as rf
from vacpol import semitransparent as st
from vacpol.core import FieldConfig
from vacpol.errors import ParameterError
from vacpol.heatkernel import DIRICHLET, ReflectingBC, SemitransparentBC
from vacpol.specialfns import (
    bessel_k_weighted,
    bessel_k_weighted_scaled,
    expn_scaled,
    upper_gamma,
    upper_gamma_scaled,
)

mpmath.mp.dps = 30


def test_weighted_bessel_random_grid():
    rng = random.Random(181)
    cases = [(rng.uniform(0.0, 10.0), 10 ** rng.uniform(-6, math.log10(50))) for _ in range(300)]
    cases += [(rng.uniform(-1.0, 0.0), 10 ** rng.uniform(-6, 1.0)) for _ in range(60)]
    cases += [(0.0, 1e-6), (0.5, 50.0), (10.0, 50.0), (3.0, 2.0), (3.0, 2.0000001)]
    assert _worst_relative_error(bessel_k_weighted, cases) < 1e-12


def test_upper_gamma_random_grid():
    rng = random.Random(182)
    worst = 0.0
    for _ in range(200):
        a = rng.uniform(-9.5, 2.0)
        z = 10 ** rng.uniform(-3, 2.3)
        got = upper_gamma(a, z)
        assert math.isfinite(got), (a, z)  # a nan error would slip through max
        ref = float(mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(z), mpmath.inf))
        if ref == 0.0:
            continue
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-10, worst


def test_upper_gamma_deep_orders():
    # below the orders of the random grid, at small z: expn for integer a,
    # the downward recurrence for fractional a
    rng = random.Random(188)
    cases = [(float(a), 10 ** rng.uniform(-3, 0)) for a in range(-20, -9) for _ in range(10)]
    cases += [(rng.uniform(-20.0, -9.5), 10 ** rng.uniform(-3, 0)) for _ in range(200)]
    cases += [(-20.0, 1e-3), (-20.0, 1.0), (-19.999, 1e-3), (-9.5, 1.0)]
    worst = 0.0
    for a, z in cases:
        ref = mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(z), mpmath.inf)
        error = float(abs(upper_gamma(a, z) - ref) / abs(ref))
        worst = max(worst, math.inf if math.isnan(error) else error)
    assert worst < 1e-10, worst


def test_upper_gamma_scaled_random_grid():
    rng = random.Random(183)
    worst = 0.0
    for _ in range(150):
        n = rng.randrange(0, 10)
        w = 10 ** rng.uniform(-10, 3)
        got = upper_gamma_scaled(n, w)
        assert math.isfinite(got), (n, w)
        ref = float(
            mpmath.exp(w) * mpmath.mpf(w) ** n * mpmath.gammainc(mpmath.mpf(-n), mpmath.mpf(w), mpmath.inf)
        )
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-11, worst


def test_expn_scaled_against_mpmath():
    # e^c E_p(c) for p = 1..10 from the smallest subnormal to 1e300, on both
    # sides of the switch to the uniform series at c = 600; an array gives each
    # element its one-point value bit for bit, and upper_gamma_scaled(p - 1, c)
    # is that value
    rng = random.Random(191)
    cs = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-100, 1e-8, 0.5, 1.0, 2.0, 30.0, 599.0,
          600.0, 600.0000000000001, 601.0, 700.0, 710.0, 745.0, 1e3, 1e8, 1e300]
    cs += [10 ** rng.uniform(-323.0, 300.0) for _ in range(40)]
    cs += [rng.uniform(550.0, 650.0) for _ in range(20)]
    orders = list(range(1, 11))
    table = expn_scaled(np.array(orders)[:, None], np.array(cs))
    worst = 0.0
    for i, p in enumerate(orders):
        for j, c in enumerate(cs):
            assert expn_scaled(p, c) == table[i, j] == upper_gamma_scaled(p - 1, c), (p, c)
            ref = mpmath.exp(mpmath.mpf(c)) * mpmath.expint(p, mpmath.mpf(c))
            error = float(abs(table[i, j] - ref) / ref)
            worst = max(worst, math.inf if math.isnan(error) else error)
    assert worst < 1e-14, worst


@pytest.mark.parametrize("p, c", [(51, 10.0), (60, 1e-3), (100, 50.0), (200, 100.0), (590, 300.0),
                                  (1000, 0.0), (1000, 500.0), (99, 700.0)])
def test_expn_scaled_large_orders(p, c):
    # above order 50 the uniform series serves every c: scipy's own large-order
    # expn is off by 1e-7 at (100, 50) and 2e-8 at (200, 100).  The reference is
    # the integral int_0^inf e^{-c v} (1+v)^-p dv itself
    pm, cm = mpmath.mpf(p), mpmath.mpf(c)
    width = 1 / (cm + pm)
    ref = mpmath.quad(lambda v: mpmath.exp(-cm * v - pm * mpmath.log1p(v)),
                      [0, width, 10 * width, 60 * width, mpmath.inf])
    assert float(abs(upper_gamma_scaled(p - 1, c) - ref) / ref) < 1e-14


def _weighted_bessel_mp(nu, w, scaled=False):
    nu, w = mpmath.mpf(nu), mpmath.mpf(w)
    value = w**nu * mpmath.besselk(nu, w)
    return value * mpmath.exp(w) if scaled else value


def _worst_relative_error(fn, cases, scaled=False):
    worst = 0.0
    for nu, w in cases:
        ref = _weighted_bessel_mp(nu, w, scaled)
        error = float(abs(fn(nu, w) - ref) / abs(ref))
        worst = max(worst, math.inf if math.isnan(error) else error)  # nan must not slip through max
    return worst


def test_weighted_bessel_beyond_1e9():
    # Hankel's expansion takes over from the scipy kernel above w = 1e9
    rng = random.Random(184)
    cases = [(rng.uniform(-20.0, 20.0), 10 ** rng.uniform(9, 13)) for _ in range(100)]
    cases += [(0.5, 2.3e10), (0.0, 1e13), (20.0, 1e13), (34.0, 1.0000001e9), (-30.0, 1.0000001e9)]
    assert _worst_relative_error(bessel_k_weighted_scaled, cases, scaled=True) < 1e-12


def test_weighted_bessel_where_k_overflows():
    # K_nu(w) itself is past double range, w^nu K_nu(w) is not
    rng = random.Random(185)
    cases = [(10.0, 1e-30), (50.0, 1e-6), (2.5, 1e-300), (50.0, 2.4e-5), (47.0, 9e-6), (2.0, 1e-160)]
    while len(cases) < 80:
        nu, w = rng.uniform(2.0, 50.0), 10 ** rng.uniform(-300, -4)
        if mpmath.besselk(nu, w) > mpmath.mpf(2) ** 1024:
            cases.append((nu, w))
    assert _worst_relative_error(bessel_k_weighted, cases) < 1e-12


def test_weighted_bessel_below_the_scipy_floor():
    # scipy's kve returns inf below w ~ 2e-305 for every order
    rng = random.Random(186)
    cases = [(rng.uniform(0.0, 50.0), 10 ** rng.uniform(-323, -305)) for _ in range(60)]
    cases += [(nu, w) for nu in (0.0, 1e-9, 0.3, 0.5, 1.0) for w in (5e-324, 1e-310, 2e-305)]
    assert _worst_relative_error(bessel_k_weighted, cases) < 1e-12


def test_weighted_bessel_gradual_underflow():
    # e^{-w} leaves the normal range near w = 708: the value stays right
    # wherever it is a normal double, and below that it underflows gradually
    rng = random.Random(189)
    cases = [(rng.uniform(-5.0, 50.0), rng.uniform(700.0, 760.0)) for _ in range(200)]
    cases += [(1.0, 705.4), (5.0, 705.4), (0.5, 708.0), (50.0, 760.0), (0.0, 745.0)]
    normal = [(nu, w) for nu, w in cases if _weighted_bessel_mp(nu, w) >= sys.float_info.min]
    assert len(normal) > 100
    assert _worst_relative_error(bessel_k_weighted, normal) < 1e-12
    for nu, w in set(cases) - set(normal):
        assert abs(bessel_k_weighted(nu, w) - _weighted_bessel_mp(nu, w)) < 1e-322, (nu, w)


def test_weighted_bessel_high_orders():
    rng = random.Random(187)
    cases = [(rng.uniform(10.0, 50.0), 10 ** rng.uniform(-6, math.log10(700))) for _ in range(150)]
    cases += [(-rng.uniform(10.0, 50.0), 10 ** rng.uniform(-1, math.log10(50))) for _ in range(50)]
    cases += [(50.0, 1e-3), (50.0, 700.0), (49.5, 3.0)]
    assert _worst_relative_error(bessel_k_weighted, cases) < 1e-12


# Whole and half-integer orders do not go through kve: k0e / k1e or the
# closed half orders start an upward recurrence.  Each regime is (function,
# w drawn from rng, w pinned at its edges); every exact order |nu| <= 50 sees
# two draws and the edges.
_EXACT_ORDER_REGIMES = {
    "below_the_kve_floor": (bessel_k_weighted, lambda rng: 10 ** rng.uniform(-323.3, -305.0),
                            (5e-324, 1e-310, 2.2250738585072014e-308, 2e-305)),
    "where_k_overflows": (bessel_k_weighted, lambda rng: 10 ** rng.uniform(-300.0, -6.0),
                          (1e-300, 1e-6)),
    "bulk": (bessel_k_weighted, lambda rng: 10 ** rng.uniform(-6.0, math.log10(700.0)),
             (1e-3, 1.0, 100.0, 700.0)),
    "gradual_underflow": (bessel_k_weighted, lambda rng: rng.uniform(700.0, 760.0), (745.0,)),
    "beyond_1e9": (bessel_k_weighted_scaled, lambda rng: 10 ** rng.uniform(9.0, 13.0),
                   (1.0000001e9, 1e13)),
}


@pytest.mark.parametrize("regime", _EXACT_ORDER_REGIMES)
def test_weighted_bessel_exact_orders(regime):
    # relative where the value is a normal double, gradual underflow below
    # that (as in test_weighted_bessel_gradual_underflow), ParameterError past
    # double range
    fn, draw, edges = _EXACT_ORDER_REGIMES[regime]
    scaled = fn is bessel_k_weighted_scaled
    rng = random.Random(190)
    orders = [0.0] + [sign * 0.5 * k for k in range(1, 101) for sign in (1, -1)]
    worst, normal = 0.0, 0
    for nu in orders:
        for w in (draw(rng), draw(rng)) + edges:
            ref = _weighted_bessel_mp(nu, w, scaled)
            if ref > sys.float_info.max:
                with pytest.raises(ParameterError):
                    fn(nu, w)
            elif ref < sys.float_info.min:
                assert abs(fn(nu, w) - ref) < 1e-322, (nu, w)
            else:
                normal += 1
                error = float(abs(fn(nu, w) - ref) / ref)
                worst = max(worst, math.inf if math.isnan(error) else error)
    assert normal > 100
    assert worst < 1e-12, worst


# Golden-grid points whose coupling integrals cancel strongly against the head
# term (by up to 1800x at d = 9), so the plane value carries the quadrature's
# 1e-12 target and the rounding of each term amplified: (golden key,
# observable, wall, d, x1, u).  Their 40-digit references are pinned in
# cancelling_refs.json, written by make_cancelling_refs.py, which states the
# reference route.
_WALLS = {"robin_2": ReflectingBC.robin(2.0), "dirichlet_robin": ReflectingBC(DIRICHLET, 2.0),
          "robin_pm": ReflectingBC(1.5, -0.4),
          "general": SemitransparentBC(2.0, 1.0, 1.0, 1.0, complex(math.cos(0.6), math.sin(0.6)))}
_CANCELLING_GOLDEN_POINTS = [
    (f"{quantity}/{wall}/d{d}/x{x1!r}", quantity, wall, d, x1, None)
    for quantity in ("plane_term", "renormalize")
    for wall, d, x1 in (("robin_2", 5, -1.4), ("robin_2", 5, 1.4), ("dirichlet_robin", 5, -1.4),
                        ("robin_pm", 1, 0.3), ("robin_pm", 3, 1.4), ("robin_pm", 9, 5.0),
                        ("general", 11, -5.0))
] + [
    (f"regularized/robin_pm/d{d}/x0.05/u{u!r}", "regularized", "robin_pm", d, 0.05, u)
    for d, u in ((1, -0.5), (2, 0.5))
]
with open(os.path.join(os.path.dirname(__file__), "cancelling_refs.json"), encoding="utf-8") as fh:
    _CANCELLING_REFS = {point["key"]: point for point in json.load(fh)["points"]}


def _wall_fields(bc, x1):
    # how cancelling_refs.json names a wall: the face b, or the transfer matrix
    if isinstance(bc, ReflectingBC):
        return {"b": bc.side(x1)}
    return {"transfer": [bc.alpha, bc.beta, bc.gamma_coupling, bc.sigma_param]}


@pytest.mark.parametrize("key, quantity, wall, d, x1, u", _CANCELLING_GOLDEN_POINTS,
                         ids=[point[0] for point in _CANCELLING_GOLDEN_POINTS])
def test_cancelling_golden_points_against_mpmath(key, quantity, wall, d, x1, u):
    # the coupling integral's target is about 1e-12 relative: its trapezoid
    # sums at h and 2h agree within 1e-6 (the error goes as that gap squared),
    # else it raises NumericalFailureError
    cfg, bc = FieldConfig(d, 1.0), _WALLS[wall]
    mod = rf if isinstance(bc, ReflectingBC) else st
    pinned = _CANCELLING_REFS[key]
    fields = _wall_fields(bc, x1)
    assert {name: pinned[name] for name in fields} == fields
    assert (pinned["quantity"], pinned["d"], pinned["x1"], pinned["u"]) == (quantity, d, x1, u)
    ref = mpmath.mpf(pinned["ref"])
    if quantity == "plane_term":
        got = mod.plane_term(cfg, bc, x1)
    elif quantity == "renormalize":
        got = mod.renormalize_at_zero(cfg, bc, x1).plane_term
    else:
        got = mod.regularized_polarization(cfg, bc, x1, u)
    assert float(abs(got - ref) / abs(ref)) < 1e-12
