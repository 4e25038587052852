"""The two sides of a wall: a mirror-symmetric wall is even in ``x1`` bit
for bit, an array of points on both sides gives each point the value a
single call gives, whichever batch it lands in, and every point is checked
before the wall."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vacpol import core
from vacpol import reflecting as rf
from vacpol import semitransparent as stm
from vacpol.core import FieldConfig
from vacpol.errors import ParameterError
from vacpol.heatkernel import DIRICHLET, ReflectingBC, SemitransparentBC

OBSERVABLES = ("plane_term", "plane_term_oracle", "small_x_asymptotic", "large_x_asymptotic")


def _bits(values):
    # the bytes of the doubles, so that 0.0 and -0.0 differ
    return np.asarray(values, dtype=float).tobytes()


def _record_bits(record):
    return _bits([record.head, *(v for term in record.terms for v in term)])


@st.composite
def mirror_walls(draw):
    """``(module, wall, m)``: equal Robin faces (Dirichlet and Neumann among
    them), a delta or delta-prime wall, or a transfer matrix with
    ``alpha = sigma`` and ``beta != 0``; only admissible walls."""
    m = draw(st.floats(0.2, 3.0))
    kind = draw(st.sampled_from(("reflecting", "delta", "delta_prime", "general")))
    if kind == "reflecting":
        b = draw(st.one_of(st.just(DIRICHLET), st.just(0.0), st.floats(-0.999 * m, 50.0)))
        return rf, ReflectingBC.robin(b), m
    if kind == "delta":
        return stm, SemitransparentBC.delta(draw(st.floats(-1.998 * m, 50.0))), m
    # |beta| >= 1e-3: below it the oracle loses about 1e-16/|beta| (test_oracle.py)
    beta = draw(st.floats(1e-3, 5.0)) * draw(st.sampled_from((1.0, -1.0)))
    if kind == "delta_prime":
        bc = SemitransparentBC.delta_prime(beta)
    else:
        a = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from((1.0, -1.0)))
        bc = SemitransparentBC(a, beta, (a * a - 1.0) / beta, a)
    assume(stm.spectrum(bc, m).positive)
    return stm, bc, m


ASYMMETRIC_WALLS = [(rf, ReflectingBC(1.5, -0.4), 1.0), (rf, ReflectingBC(DIRICHLET, 2.0), 1.0),
                    (stm, SemitransparentBC(2.0, 0.0, 1.0, 0.5), 1.0),
                    (stm, SemitransparentBC(2.0, 1.0, 1.0, 1.0), 1.0)]


def _log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


@settings(max_examples=100, deadline=None)
@given(mirror_walls(), st.integers(1, 11), _log_uniform(1e-6, 40.0))
def test_mirror_symmetric_wall_is_even(wall, d, ax):
    mod, bc, m = wall
    cfg = FieldConfig(d, m)
    assert _record_bits(bc.images(1.0, 1.0)) == _record_bits(bc.images(-1.0, -1.0))
    for name in OBSERVABLES:
        observable = getattr(mod, name)
        value = observable(cfg, bc, ax)
        assert _bits(observable(cfg, bc, -ax)) == _bits(value)
        assert _bits(observable(cfg, bc, [ax, -ax])) == _bits([value, value])


@settings(max_examples=60, deadline=None)
@given(st.one_of(mirror_walls(), st.sampled_from(ASYMMETRIC_WALLS)), st.integers(1, 11),
       st.lists(_log_uniform(1e-6, 40.0), min_size=1, max_size=4), st.data())
def test_mixed_side_batch_matches_single_points(wall, d, distances, data):
    # a distance may come twice, on one side or on both
    mod, bc, m = wall
    cfg = FieldConfig(d, m)
    picks = data.draw(st.lists(st.tuples(st.sampled_from(distances), st.sampled_from((1.0, -1.0))),
                               min_size=1, max_size=8))
    points = np.array([side * ax for ax, side in picks])
    for name in OBSERVABLES:
        observable = getattr(mod, name)
        assert _bits(observable(cfg, bc, points)) == _bits([observable(cfg, bc, x) for x in points])


@pytest.mark.parametrize("bc, merged", [(ReflectingBC.robin(2.0), True),
                                        (SemitransparentBC.delta(1.0), True),
                                        (ReflectingBC(1.5, -0.4), False),
                                        (SemitransparentBC(2.0, 0.0, 1.0, 0.5), False)])
def test_one_batch_per_distinct_side_record(monkeypatch, bc, merged):
    calls = []
    method = core.ImageSum.plane_term

    def recorded(self, cfg, x1):
        calls.append(list(x1))
        return method(self, cfg, x1)

    monkeypatch.setattr(core.ImageSum, "plane_term", recorded)
    mod = rf if isinstance(bc, ReflectingBC) else stm
    mod.plane_term(FieldConfig(3, 1.0), bc, [0.5, -0.5, 0.1, 0.5])
    assert calls == ([[0.1, 0.5]] if merged else [[0.5, 0.1, 0.5], [-0.5]])
    calls.clear()
    mod.plane_term(FieldConfig(3, 1.0), bc, [-0.5, -0.1, -0.5])  # one side: as given
    assert calls == [[-0.5, -0.1, -0.5]]


_WALL_ERROR = "x1 = 0 sits on the wall, where the observable is singular"


def _finite_error(x):
    return f"x1 must be a finite distance from the wall, got {x}"


@pytest.mark.parametrize("points, message", [
    ([0.5, 0.0, math.inf], _WALL_ERROR),
    ([-0.0, math.nan], _WALL_ERROR),
    ([0.5, -math.inf, 0.0, math.nan], _finite_error(-math.inf)),
    ([2.0, math.inf, -1.0, 0.0], _finite_error(math.inf)),
    ([math.nan, 0.0, -math.inf], _finite_error(math.nan)),
    ([1.0, -1.0, 3.0, math.nan], _finite_error(math.nan)),
])
@pytest.mark.parametrize("mod, bc", [(rf, ReflectingBC.robin(-2.0)),
                                     (stm, SemitransparentBC.delta(-3.0))])
@pytest.mark.parametrize("name", OBSERVABLES)
def test_first_bad_point_raises_before_positivity(points, message, mod, bc, name):
    # the wall violates positivity at m = 1; the first bad point names itself first
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        getattr(mod, name)(FieldConfig(3, 1.0), bc, np.array(points))


def test_merged_range_error_names_the_smallest_x1():
    # a side's own batch names its first failing point, a merged batch the
    # smallest failing |x1|
    cfg, points = FieldConfig(11, 1.0), [1e-40, -1e-41, 1.0, -1e-39]
    with pytest.raises(ParameterError, match=r"near-wall law .* \|x1\| = 1e-41$"):
        rf.small_x_asymptotic(cfg, ReflectingBC.neumann(), points)
    with pytest.raises(ParameterError, match=r"near-wall law .* \|x1\| = 1e-40$"):
        rf.small_x_asymptotic(cfg, ReflectingBC(0.0, DIRICHLET), points)
