"""Properties of the heat kernels over random walls, phases and points.

Every kernel is one image sum (``core.ImageSum.kernel``), so these hold for
both wall families at once.
"""

import cmath
import math
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vacpol.core import _w_image
from vacpol.heatkernel import (
    DIRICHLET,
    HeatQuery,
    ReflectingBC,
    SemitransparentBC,
    reflecting_kernel,
    semitransparent_kernel,
    wall_kernel,
)

FAST = settings(max_examples=200, deadline=100)

taus = st.floats(0.01, 3.0)
coordinates = st.floats(0.01, 4.0)
sides = st.sampled_from((1.0, -1.0))
phases = st.floats(-math.pi, math.pi).map(lambda theta: cmath.exp(1j * theta))


@st.composite
def unitary_walls(draw):
    """A unit-determinant transfer matrix of either family, with a phase."""
    alpha = draw(st.floats(0.3, 3.0))
    beta = draw(st.one_of(st.just(0.0), st.floats(0.2, 2.0), st.floats(-2.0, -0.2)))
    gamma = draw(st.floats(-2.0, 2.0))
    return SemitransparentBC(alpha, beta, gamma, (1.0 + beta * gamma) / alpha, draw(phases))


def _admissible_mass(bc):
    # a mass above every bound-state rate keeps the wall positive
    slowest = bc.delta_ratio if bc.is_delta_family else bc.lambda_pm()[1]
    return max(0.0, -slowest) + 0.5


@FAST
@given(unitary_walls(), taus, coordinates, sides, coordinates, sides)
def test_hermitian(bc, tau, x, sx, y, sy):
    m = _admissible_mass(bc)
    forward = semitransparent_kernel(HeatQuery(tau, sx * x, sy * y), bc, m)
    backward = semitransparent_kernel(HeatQuery(tau, sy * y, sx * x), bc, m)
    assert cmath.isclose(forward, backward.conjugate(), rel_tol=1e-13, abs_tol=1e-300)


@FAST
@given(unitary_walls(), phases, taus, coordinates, coordinates, sides)
def test_same_side_values_ignore_omega(bc, omega, tau, x, y, side):
    other = SemitransparentBC(bc.alpha, bc.beta, bc.gamma_coupling, bc.sigma_param, omega)
    q, m = HeatQuery(tau, side * x, side * y), _admissible_mass(bc)
    value = semitransparent_kernel(q, bc, m)
    assert value == semitransparent_kernel(q, other, m)
    assert value.imag == 0.0


@FAST
@given(taus, coordinates, sides, coordinates, sides, st.floats(0.0, 3.0))
def test_free_wall_is_the_gaussian(tau, x, sx, y, sy, m):
    q = HeatQuery(tau, sx * x, sy * y)
    u = q.x1 - q.y1
    gaussian = math.exp(-u * u / (4.0 * tau)) / math.sqrt(4.0 * math.pi * tau)
    value = semitransparent_kernel(q, SemitransparentBC.free(), m)
    assert value.real == math.exp(-m * m * tau) * gaussian
    assert value.imag == 0.0


faces = st.one_of(st.just(DIRICHLET), st.floats(-0.9, 20.0))


@FAST
@given(faces, faces, taus, coordinates, coordinates, sides, st.floats(1.0, 3.0))
def test_reflecting_kernel_vanishes_across_the_wall(b_plus, b_minus, tau, x, y, side, m):
    q = HeatQuery(tau, side * x, -side * y)
    assert reflecting_kernel(q, ReflectingBC(b_plus, b_minus), m) == 0.0


@st.composite
def kernel_walls(draw):
    """A wall of either family with a mass that keeps it positive; the faces
    and rates reach bound states (a negative rate above ``-m``)."""
    if draw(st.booleans()):
        bc = draw(unitary_walls())
        return bc, _admissible_mass(bc) + draw(st.floats(0.0, 1.0))
    return ReflectingBC(draw(faces), draw(faces)), draw(st.floats(1.0, 3.0))


@FAST
@given(kernel_walls(), st.lists(st.tuples(taus, coordinates, sides, coordinates, sides),
                                min_size=1, max_size=12))
def test_table_values_match_one_value_calls(wall, points):
    # one wall_kernel over a table, reusing one ImageSum per side pair, gives
    # bit for bit the per-value public kernel and a fresh record of the pair
    bc, m = wall
    kernel = wall_kernel(bc, m)
    one = semitransparent_kernel if isinstance(bc, SemitransparentBC) else reflecting_kernel
    for tau, x, sx, y, sy in points:
        q = HeatQuery(tau, sx * x, sy * y)
        value = kernel(q.tau, q.x1, q.y1)
        assert repr(value) == repr(bc.images(q.x1, q.y1).kernel(tau, q.x1, q.y1, m))
        expected = one(q, bc, m)
        assert repr(type(expected)(value)) == repr(expected)


def _image_reference(rate, s, tau, m):
    # int_0^inf dw e^{-m^2 tau - rate w - (w+s)^2/(4 tau)} by 30-digit mpmath.quad,
    # with breakpoints at the integrand's maximum (the Gaussian peak w* where it
    # is inside the range) and at doubling distances of its width around it;
    # the integrand is scaled to 1 there, since the quadrature's error control
    # is absolute
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        c, s, t, m = (mpmath.mpf(v) for v in (rate, s, tau, m))

        def exponent(w):
            return -m * m * t - c * w - (w + s) ** 2 / (4 * t)

        peak = -2 * c * t - s
        width = mpmath.sqrt(2 * t)
        if peak < 0:  # the integrand falls from w = 0 at the rate c + s/(2 tau) at least
            width = min(width, 1 / (c + s / (2 * t)))
        centre = max(peak, 0)
        top = exponent(centre)
        points = {centre} | {centre + side * width * 2**k for k in range(6) for side in (-1, 1)}
        points = [0] + sorted(p for p in points if p > 0) + [mpmath.inf]
        return float(mpmath.exp(top) * mpmath.quad(lambda w: mpmath.exp(exponent(w) - top), points))


@st.composite
def images(draw):
    """A mass, an admissible image rate in (-0.999 m, 50] (a bound state as
    often as not), a distance and a proper time."""
    m = draw(st.floats(0.1, 2.0))
    rate = draw(st.one_of(st.floats(-0.999 * m, 0.0, exclude_min=True), st.floats(0.0, 50.0)))
    return rate, 2.0 * draw(st.floats(0.01, 10.0)), draw(st.floats(1e-3, 1e3)), m


@settings(max_examples=60, deadline=None)
@given(images())
@example((-1.3994, 2 * 0.8184, 103.13, 1.5359))  # w* = 287: QUADPACK over w missed it
def test_erfcx_image_against_mpmath(image):
    # the kernel's closed form of the image integral, which the proper-time
    # oracles integrate in place of a quadrature in w (ImageSum._proper_time_integrand,
    # the same terms over arrays of tau): sqrt(4 pi tau) (e^{-m^2 tau} decaying + growing)
    rate, s, tau, m = image
    decaying, growing = _w_image(rate, s, tau, m)
    got = math.sqrt(4.0 * math.pi * tau) * (math.exp(-m * m * tau) * decaying + growing)
    ref = _image_reference(rate, s, tau, m)
    # relative, against the smallest normal double below it
    assert abs(got - ref) <= 1e-12 * max(ref, sys.float_info.min)


@pytest.mark.parametrize("rate, m, tau", [(-1.998, 2.0, 1e3), (-0.99999, 1.0, 1e5)])
def test_bound_state_image_near_threshold(rate, m, tau):
    # near the threshold c^2 - m^2 cancels in the bound-state exponent; its
    # rounding, multiplied by tau, cost 1.1e-13 and 8.3e-13 here when the
    # exponent was formed as tau (c c - m m) rather than tau (c - m)(c + m)
    mpmath = pytest.importorskip("mpmath")
    s = 1.4
    decaying, growing = _w_image(rate, s, tau, m)
    got = math.exp(-m * m * tau) * decaying + growing
    with mpmath.workdps(40):
        c, s, t, m = (mpmath.mpf(v) for v in (rate, s, tau, m))
        arg = c * mpmath.sqrt(t) + s / (2 * mpmath.sqrt(t))
        ref = mpmath.exp(t * (c * c - m * m) + c * s) * mpmath.erfc(arg) / 2
    assert abs(got - ref) <= 1e-14 * ref
