"""The dimensional recurrence of the plane term.

The transverse heat kernel of ``d`` dimensions is that of ``d - 2`` times
``(4 pi tau)^{-1}``, and the wall does not depend on the mass, so
``plane_{d-2}(m, x1) = -(2 pi/m) d/dm plane_d(m, x1)`` for every wall.  It
ties each even ``d`` to ``d - 2`` through the closed sum, and each odd ``d``
to ``d - 2`` through the coupling trapezoid.
"""

import math

import pytest

from vacpol import reflecting as rf
from vacpol import semitransparent as st
from vacpol.core import FieldConfig
from vacpol.heatkernel import ReflectingBC, SemitransparentBC

WALLS = {
    "robin_2": (rf, ReflectingBC.robin(2.0)),
    "robin_0.7": (rf, ReflectingBC.robin(0.7)),
    "delta_1.5": (st, SemitransparentBC.delta(1.5)),
    "delta_prime_1": (st, SemitransparentBC.delta_prime(1.0)),
    "general": (st, SemitransparentBC(2.0, 1.0, 1.0, 1.0)),
}


def _mass_derivative(f, m):
    # Richardson-extrapolated central difference, step 3e-3 m: error O(h^4)
    def central(h):
        return (f(m + h) - f(m - h)) / (2.0 * h)

    h = 3e-3 * m
    return (4.0 * central(0.5 * h) - central(h)) / 3.0


@pytest.mark.parametrize("wall", WALLS)
@pytest.mark.parametrize("d", range(3, 12))
def test_plane_term_steps_down_two_dimensions(wall, d):
    mod, bc = WALLS[wall]
    for m in (0.5, 1.3):
        for x1 in (0.2, 1.5, -0.7):
            lower = mod.plane_term(FieldConfig(d - 2, m), bc, x1)
            slope = _mass_derivative(lambda mass: mod.plane_term(FieldConfig(d, mass), bc, x1), m)
            assert -2.0 * math.pi / m * slope == pytest.approx(lower, rel=1e-8, abs=0.0), (m, x1)
