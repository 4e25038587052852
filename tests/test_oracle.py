"""The proper-time oracles: a trapezoid in ``s = ln tau`` over the erfcx
image, checked against the closed forms by property, batch by batch, and
through the QUADPACK fallback of the shared rule."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vacpol import core
from vacpol import reflecting as rf
from vacpol import semitransparent as stm
from vacpol.core import FieldConfig
from vacpol.errors import ParameterError
from vacpol.heatkernel import DIRICHLET, ReflectingBC, SemitransparentBC


def _near_threshold(m):
    # a bound state between 0.9 m and 1e-10 m from the threshold -m
    return st.floats(1.0, 10.0).map(lambda k: -m * (1.0 - 10.0**-k))


def _face(m):
    return st.one_of(st.just(DIRICHLET), st.just(0.0), st.floats(-0.999 * m, 50.0),
                     _near_threshold(m))


@st.composite
def walls(draw):
    """``(module, wall, m)``: a reflecting wall with two faces, or a
    delta-family, delta-prime or general semitransparent wall; bound states
    down to 1e-10 m from the threshold, and only admissible walls."""
    m = draw(st.floats(0.2, 3.0))
    kind = draw(st.sampled_from(("reflecting", "delta", "delta_prime", "general")))
    if kind == "reflecting":
        return rf, ReflectingBC(draw(_face(m)), draw(_face(m))), m
    if kind == "delta":
        # the image rate is gamma / 2
        rate = draw(st.one_of(st.floats(-0.999 * m, 25.0), _near_threshold(m)))
        return stm, SemitransparentBC.delta(2.0 * rate), m
    # |beta| >= 1e-3: as beta -> 0 the plane term is O(beta) while its head and
    # image parts stay O(1), and both routes lose about 1e-16/|beta| to that
    # cancellation (the closed form 4e-4 relative at beta = 1e-12)
    beta = draw(st.floats(1e-3, 5.0)) * draw(st.sampled_from((1.0, -1.0)))
    if kind == "delta_prime":
        bc = SemitransparentBC.delta_prime(beta)
    else:
        alpha = draw(st.floats(0.2, 3.0))
        gamma = draw(st.floats(-3.0, 3.0))
        bc = SemitransparentBC(alpha, beta, gamma, (1.0 + beta * gamma) / alpha)
    assume(stm.spectrum(bc, m).positive)
    return stm, bc, m


def _log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


@settings(max_examples=150, deadline=500)
@given(walls(), st.integers(1, 11), _log_uniform(1e-8, 50.0), st.sampled_from((1.0, -1.0)))
@example((rf, ReflectingBC.robin(-(1.0 - 1e-10)), 1.0), 3, 0.7, 1.0)
@example((rf, ReflectingBC.robin(2.0), 1.0), 11, 1e-8, -1.0)
@example((stm, SemitransparentBC.delta(-2.0 * (1.0 - 1e-10)), 1.0), 1, 50.0, 1.0)
def test_closed_form_matches_oracle(wall, d, ax, side):
    mod, bc, m = wall
    cfg, x1 = FieldConfig(d, m), side * ax
    closed = mod.plane_term(cfg, bc, x1)
    # relative, against the smallest normal double below it
    assert abs(mod.plane_term_oracle(cfg, bc, x1) - closed) <= 1e-8 * max(abs(closed),
                                                                          sys.float_info.min)


_BATCH_WALLS = [(rf, ReflectingBC(2.0, -0.4)), (rf, ReflectingBC(DIRICHLET, -(1.0 - 1e-10))),
                (stm, SemitransparentBC.delta(-1.0)), (stm, SemitransparentBC(2.0, 1.0, 1.0, 1.0))]


@pytest.mark.parametrize("mod, bc", _BATCH_WALLS)
@pytest.mark.parametrize("d", (1, 4, 11))
def test_batch_matches_single_points(mod, bc, d):
    # each point has its own nodes, step and sum, so a batch gives each point
    # the value a single call gives, and the two sides come back in input order
    cfg = FieldConfig(d, 1.0)
    points = [0.7, -1e-8, 3.0, -0.05, 1e-8, -200.0, 40.0, -0.7]
    batch = mod.plane_term_oracle(cfg, bc, np.array(points))
    assert isinstance(batch, np.ndarray) and batch.shape == (len(points),)
    singles = [mod.plane_term_oracle(cfg, bc, x) for x in points]
    assert all(type(v) is float for v in singles)
    assert list(batch) == singles
    assert mod.plane_term_oracle(cfg, bc, np.array([])).shape == (0,)


def test_every_point_checked_before_positivity():
    cfg = FieldConfig(3, 1.0)
    with pytest.raises(ParameterError, match="x1"):
        rf.plane_term_oracle(cfg, ReflectingBC.robin(-2.0), np.array([0.5, 0.0]))
    with pytest.raises(ParameterError, match="positivity"):
        rf.plane_term_oracle(cfg, ReflectingBC.robin(-2.0), np.array([0.5, -0.5]))


def _oracle_trapezoids(monkeypatch):
    # every (value, err_est, fallback) the shared rule returns while recording
    calls = []
    rule = core._log_trapezoid

    def recorded(*args):
        calls.append(rule(*args))
        return calls[-1]

    monkeypatch.setattr(core, "_log_trapezoid", recorded)
    return calls


def test_rule_needs_no_fallback_on_the_validate_grids(monkeypatch):
    from vacpol.validation import reflecting_oracle_grid, semitransparent_oracle_grid

    grid = [(rf, d, m, ReflectingBC.robin(b), ax) for d, m, b, ax in reflecting_oracle_grid()]
    grid += [(stm, d, m, bc, ax) for d, m, bc, ax in semitransparent_oracle_grid()]
    closed = [mod.plane_term(FieldConfig(d, m), bc, ax) for mod, d, m, bc, ax in grid]
    calls = _oracle_trapezoids(monkeypatch)
    for (mod, d, m, bc, ax), value in zip(grid, closed):
        assert mod.plane_term_oracle(FieldConfig(d, m), bc, ax) == pytest.approx(value, rel=1e-13)
    assert len(calls) == len(grid)
    for value, err_est, fallback in calls:
        assert not fallback.any()
        assert (err_est <= 1e-13 * np.abs(value)).all()


@pytest.mark.parametrize("u_above", (1e-6, 0.5, 3.3))
@pytest.mark.parametrize("b", (2.0, -(1.0 - 1e-8)))
def test_fallback_agrees_with_the_rule(monkeypatch, b, u_above):
    # QUADPACK over the same range in s takes over where the h and 2h sums
    # disagree; the strip oracle adds its free part's closed left tail to both
    cfg, bc = FieldConfig(4, 1.0), ReflectingBC.robin(b)
    xs = np.array([1e-8, 0.7, 30.0])
    u = cfg.d - 1 + u_above
    rule = (rf.plane_term_oracle(cfg, bc, xs), rf.regularized_polarization_oracle(cfg, bc, 0.7, u))
    monkeypatch.setattr(core, "_FALLBACK_DISAGREEMENT", -1.0)  # every point
    calls = _oracle_trapezoids(monkeypatch)
    quadpack = (rf.plane_term_oracle(cfg, bc, xs), rf.regularized_polarization_oracle(cfg, bc, 0.7, u))
    assert all(fallback.all() for _, _, fallback in calls)
    assert quadpack[0] == pytest.approx(rule[0], rel=1e-12, abs=0.0)
    assert quadpack[1] == pytest.approx(rule[1], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d", (1, 2, 5, 11))
@pytest.mark.parametrize("u_above", (1e-8, 1e-4, 1e-2))
def test_strip_oracle_next_to_the_pole(d, u_above):
    # the free part e^{-m^2 tau} tau^{(u-d-1)/2} is integrable only for u > d - 1,
    # and its integrand in s decays like e^{(u-d+1) s / 2} to the left: ever
    # more slowly towards the pole at u = d - 1
    cfg, bc = FieldConfig(d, 1.0), ReflectingBC.robin(2.0)
    u = d - 1 + u_above
    assert rf.regularized_polarization_oracle(cfg, bc, 0.7, u) == pytest.approx(
        rf.regularized_polarization(cfg, bc, 0.7, u), rel=1e-8
    )


def test_past_double_range_is_a_parameter_error():
    # as for the closed form (tests/test_coupling_integral.py)
    with pytest.raises(ParameterError, match="past double range"):
        rf.plane_term_oracle(FieldConfig(3, 1.0), ReflectingBC.robin(2.0), 1e-200)
