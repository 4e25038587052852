"""The plane term at even ``d`` (``u = 0``) as a closed sum of scaled
exponential integrals (``core.ImageSum._even_plane``): against the coupling
trapezoid by property, against 40-digit mpmath sums at the corners of its
range (``corner_refs.json``, written by ``make_corner_refs.py``) and on the
even-``d`` entries of ``coupling_refs.json``, and against the proper-time
oracle at subnormal couplings.
"""

import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vacpol import reflecting as rf
from vacpol import semitransparent as stm
from vacpol.core import FieldConfig, ImageSum, _coupling_integrals
from vacpol.errors import NumericalFailureError
from vacpol.heatkernel import DIRICHLET, ReflectingBC, SemitransparentBC
from vacpol.specialfns import bessel_k_weighted

mpmath = pytest.importorskip("mpmath")

from make_corner_refs import SUBNORMAL, closed_sum  # noqa: E402
from make_coupling_refs import images as coupling_images  # noqa: E402

HERE = os.path.dirname(__file__)
with open(os.path.join(HERE, "corner_refs.json"), encoding="utf-8") as fh:
    CORNERS = json.load(fh)["points"]
with open(os.path.join(HERE, "coupling_refs.json"), encoding="utf-8") as fh:
    COUPLING_REFS = json.load(fh)

TINY = sys.float_info.min


def _trapezoid_plane(record, cfg, ax):
    # the plane term of the coupling trapezoid: P(d, x1) [head F((d-1)/2, 2m|x1|)
    # + sum weight |x1| I(rate)], I(rate) from core._coupling_integrals.  Each
    # weight multiplies last: a subnormal weight times |x1| would keep only
    # part of its bits, even where the plane term itself is a normal double
    d, m = cfg.d, cfg.m
    prefactor = 1.0 / (2.0 ** (0.5 * (3 * d - 1)) * math.pi ** (0.5 * (d + 1)) * ax ** (d - 1))
    value = record.head * (prefactor * bessel_k_weighted(0.5 * (d - 1), 2.0 * m * ax))
    for weight, rate in record.terms:
        integral = _coupling_integrals(d, m, ax, rate, (0.0,))[0][:, 0]
        value = value + weight * (prefactor * ax * integral)
    return value


def _near_threshold(m):
    # a bound state between 0.9 m and 1e-10 m from the threshold -m
    return st.floats(1.0, 10.0).map(lambda k: -m * (1.0 - 10.0**-k))


def _face(m):
    return st.one_of(st.just(DIRICHLET), st.just(0.0), st.floats(-0.999 * m, 50.0 * (1.0 + m)),
                     _near_threshold(m))


def _log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


@st.composite
def walls(draw):
    """``(wall, m)``: a reflecting wall, or a delta-family, delta-prime or
    general semitransparent wall, admissible at ``m``; bound states down to
    1e-10 m from the threshold."""
    m = draw(_log_uniform(1e-3, 1e3))
    kind = draw(st.sampled_from(("reflecting", "delta", "delta_prime", "general")))
    if kind == "reflecting":
        return ReflectingBC(draw(_face(m)), draw(_face(m))), m
    if kind == "delta":
        rate = draw(st.one_of(st.floats(-0.999 * m, 50.0 * (1.0 + m)), _near_threshold(m)))
        return SemitransparentBC.delta(2.0 * rate), m
    beta = draw(st.floats(1e-3, 5.0)) * draw(st.sampled_from((1.0, -1.0)))
    if kind == "delta_prime":
        bc = SemitransparentBC.delta_prime(beta)
    else:
        alpha = draw(st.floats(0.2, 3.0))
        gamma = draw(st.floats(-3.0, 3.0))
        bc = SemitransparentBC(alpha, beta, gamma, (1.0 + beta * gamma) / alpha)
    assume(stm.spectrum(bc, m).positive)
    return bc, m


@settings(max_examples=150, deadline=None)
@given(walls(), st.sampled_from((2, 4, 6, 8, 10)), _log_uniform(1e-8, 40.0),
       st.sampled_from((1.0, -1.0)))
@example((ReflectingBC.robin(-(1.0 - 1e-10) * 7.0), 7.0), 10, 1e-8, 1.0)
@example((SemitransparentBC(2.0, 1.0, 1.0, 1.0), 1e3), 2, 0.3, -1.0)
@example((SemitransparentBC.delta(TINY), 1.0), 4, math.exp(-9.0), 1.0)
def test_closed_sum_matches_the_trapezoid(wall, d, ax, side):
    # each term alone (the head, and each coupling integral times its weight)
    # has no cancellation: relative at 1e-12 wherever the trapezoid's value is a
    # normal double.  The whole plane term then agrees to 1e-12 of its parts
    bc, m = wall
    cfg = FieldConfig(d, m)
    record = bc.images(side * ax, side * ax)
    points = np.array([ax])
    parts = [ImageSum(record.head)] + [ImageSum(0.0, (term,)) for term in record.terms]
    scale = 0.0
    for part in parts:
        try:
            reference = float(_trapezoid_plane(part, cfg, points)[0])
        except NumericalFailureError:  # the trapezoid's own range, not the sum's
            return
        closed = float(part._even_plane(cfg, points)[0])
        if abs(reference) >= TINY:
            assert abs(closed - reference) <= 1e-12 * abs(reference), (part, closed, reference)
        scale += abs(reference)
    if scale >= TINY:
        whole = float(record._even_plane(cfg, points)[0])
        assert abs(whole - float(_trapezoid_plane(record, cfg, points)[0])) <= 1e-12 * scale


_EVEN_COUPLING_CASES = [c for c in COUPLING_REFS["cases"] if c["d"] % 2 == 0]


def test_even_coupling_refs_are_36():
    assert len(_EVEN_COUPLING_CASES) == 36


@pytest.mark.parametrize("case", _EVEN_COUPLING_CASES,
                         ids=[f"{c['kind']}{c['coupling']!r}/d{c['d']}/x{c['x1']!r}"
                              for c in _EVEN_COUPLING_CASES])
def test_coupling_refs_from_the_closed_sum(case):
    # the quadrature references of make_coupling_refs.py, re-derived from the
    # mpmath expint sum over the same image map
    with mpmath.workdps(40):
        head, terms = coupling_images(case["kind"], case["coupling"])
        value = closed_sum(head, terms, case["d"], COUPLING_REFS["m"], case["x1"])
        ref = mpmath.mpf(case["plane"])
        assert abs(value - ref) <= mpmath.mpf(1e-25) * abs(ref)


def _corner_wall(point):
    if "b" in point:
        return rf, ReflectingBC.robin(point["b"])
    return stm, SemitransparentBC(*point["transfer"])


@pytest.mark.parametrize("point", CORNERS, ids=[
    f"{p['quantity']}/{'b' if 'b' in p else 'transfer'}/d{p['d']}/m{p['m']!r}/x{p['x1']!r}"
    for p in CORNERS])
def test_range_corners_against_mpmath(point):
    # relative at 1e-12 where the reference is a normal double, the smallest
    # normal double absolute below it
    mod, bc = _corner_wall(point)
    cfg = FieldConfig(point["d"], point["m"])
    if point["quantity"] == "massless":
        got = mod.massless_value(cfg, bc, point["x1"]).plane_term
    else:
        got = mod.plane_term(cfg, bc, point["x1"])
    ref = float(mpmath.mpf(point["ref"]))
    assert abs(got - ref) <= (1e-12 * abs(ref) if abs(ref) >= TINY else TINY)


def test_far_wall_band_has_normal_values():
    # the band holds values that only a shared exponent reaches, not only zeros
    far = [p for p in CORNERS if p["quantity"] == "plane_term" and p["m"] >= 1e3
           and abs(float(p["ref"])) >= TINY and "gamma" not in p]
    assert len(far) >= 10


@pytest.mark.parametrize("d, m, gamma, x1", SUBNORMAL)
def test_subnormal_coupling_matches_the_oracle(d, m, gamma, x1):
    # each weight multiplies after the prefactor, so a subnormal delta
    # coupling forms no subnormal product before |x1|^{2-d} lifts it
    cfg, bc = FieldConfig(d, m), SemitransparentBC.delta(gamma)
    closed = stm.plane_term(cfg, bc, x1)
    assert abs(stm.plane_term_oracle(cfg, bc, x1) - closed) <= 1e-8 * max(abs(closed), TINY)


@pytest.mark.parametrize("d", (2, 4, 6, 8, 10))
def test_no_bessel_call_and_no_quadrature(monkeypatch, d):
    # even d at u = 0 has one route: the closed sum, for plane_term and for
    # renormalize_at_zero; the continuation off u = 0 keeps the trapezoid
    from vacpol import core

    def forbidden(*args, **kwargs):
        raise AssertionError("the coupling trapezoid or a Bessel call was used")

    cfg, bc = FieldConfig(d, 1.3), ReflectingBC(2.0, -0.4)
    expected = rf.plane_term(cfg, bc, np.array([0.05, -0.7, 3.0]))
    with monkeypatch.context() as patch:
        for name in ("_log_trapezoid", "bessel_k_weighted", "bessel_k_weighted_scaled"):
            patch.setattr(core, name, forbidden)
        assert (rf.plane_term(cfg, bc, np.array([0.05, -0.7, 3.0])) == expected).all()
        assert rf.renormalize_at_zero(cfg, bc, -0.7).plane_term == expected[1]
        with pytest.raises(AssertionError, match="trapezoid"):
            rf.regularized_polarization(cfg, bc, -0.7, 0.5)
