"""The proper-time oracles: a trapezoid in ``s = ln tau`` over the erfcx
image, checked against the closed forms by property and batch by batch;
and the shared rule's contract where its ``h`` and ``2h`` sums disagree."""

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
from vacpol.errors import NumericalFailureError, ParameterError
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
    # every (value, err_est) the shared rule returns while recording
    calls = []
    rule = core._log_trapezoid

    def recorded(*args):
        calls.append(rule(*args))
        return calls[-1]

    monkeypatch.setattr(core, "_log_trapezoid", recorded)
    return calls


def test_rule_resolves_the_validate_grids(monkeypatch):
    from vacpol.validation import reflecting_oracle_grid, semitransparent_oracle_grid

    grid = [(rf, d, m, ReflectingBC.robin(b), ax) for d, m, b, ax in reflecting_oracle_grid()]
    grid += [(stm, d, m, bc, ax) for d, m, bc, ax in semitransparent_oracle_grid()]
    closed = [mod.plane_term(FieldConfig(d, m), bc, ax) for mod, d, m, bc, ax in grid]
    calls = _oracle_trapezoids(monkeypatch)
    for (mod, d, m, bc, ax), value in zip(grid, closed):
        assert mod.plane_term_oracle(FieldConfig(d, m), bc, ax) == pytest.approx(value, rel=1e-13)
    assert len(calls) == len(grid)
    for value, err_est in calls:
        assert (err_est <= 1e-13 * np.abs(value)).all()


def _rule_entries():
    # (id, call) of each route through the shared rule; each call's first
    # value is the sum of its first point and row
    xs = np.array([1e-8, 0.7, 30.0])
    cfg = FieldConfig(4, 1.0)
    entries = []
    for b in (2.0, -(1.0 - 1e-8)):
        bc = ReflectingBC.robin(b)
        entries.append((f"coupling/b{b!r}",
                        lambda b=b: core._coupling_integrals(3, 1.0, xs, b, (0.0, 1e-3))[0][0, 0]))
        entries.append((f"plane_oracle/b{b!r}",
                        lambda bc=bc: rf.plane_term_oracle(cfg, bc, xs)[0]))
        for u_above in (1e-6, 0.5, 3.3):  # the strip oracle adds its free part's closed left tail
            entries.append((f"strip_oracle/b{b!r}/u{u_above!r}",
                            lambda bc=bc, u=cfg.d - 1 + u_above:
                            rf.regularized_polarization_oracle(cfg, bc, 0.7, u)))
    return entries


_RULE_ENTRIES = _rule_entries()


@pytest.mark.parametrize("call", [c for _, c in _RULE_ENTRIES], ids=[i for i, _ in _RULE_ENTRIES])
def test_unresolved_sums_raise_with_the_rule_value(monkeypatch, call):
    # where the h and 2h sums disagree the rule raises, naming its range in s
    # and carrying the h sum; forced at every point by a threshold below 0
    value = call()
    monkeypatch.setattr(core, "_MAX_DISAGREEMENT", -1.0)
    with pytest.raises(NumericalFailureError, match="trapezoid in s on") as info:
        call()
    assert info.value.best_estimate == value
    assert info.value.error_bound >= 0.0


def test_weak_delta_prime_wall_raises_with_a_finite_estimate():
    # a delta-prime wall of strength 1e-12 cancels its head against its image
    # to O(beta), past what the oracle's sums resolve: a NumericalFailureError,
    # not a silently wrong value
    cfg, bc = FieldConfig(1, 1.0), SemitransparentBC.delta_prime(1e-12)
    with pytest.raises(NumericalFailureError) as info:
        stm.plane_term_oracle(cfg, bc, 1.0)
    assert math.isfinite(info.value.best_estimate)


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


@pytest.mark.parametrize("mod, bc", [(rf, ReflectingBC.robin(2.0)), (rf, ReflectingBC.dirichlet()),
                                     (stm, SemitransparentBC.delta(1.0))])
@pytest.mark.parametrize("d", (1, 4, 11))
def test_strip_oracle_far_above_the_pole(mod, bc, d):
    # at u = d - 1 + 40 the free part tau^20 e^{-m^2 tau} peaks about 1/sqrt(20)
    # wide in s, narrower than the step that resolves the plane part alone; the
    # continuation's coupling integrand narrows in the same way
    cfg, u = FieldConfig(d, 1.0), d - 1 + 40.0
    assert mod.regularized_polarization_oracle(cfg, bc, 0.3, u) == pytest.approx(
        mod.regularized_polarization(cfg, bc, 0.3, u), rel=1e-8
    )


@pytest.mark.parametrize("d, m, x1, u", [(3, 1.0, 0.7, 345.3), (3, 1.0, 0.7, 400.3),
                                         (1, 2.0, 0.3, 360.5), (11, 1.0, 0.7, 400.3)])
def test_strip_oracle_past_the_gamma_range(d, m, x1, u):
    # Gamma((u-d+1)/2) alone is past double range, and so is the free part's
    # Gamma ratio unless it is formed from lgamma; the Dirichlet total is
    # Gamma(q) m^{-2q} - 2 (|x1|/m)^q K_q(2m|x1|), q = (u-d+1)/2, over
    # 2 (4 pi)^{d/2} Gamma((u+1)/2)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q, mm, x = (mpmath.mpf(u) - d + 1) / 2, mpmath.mpf(m), mpmath.mpf(x1)
        exact = (mpmath.gamma(q) * mm ** (-2 * q) - 2 * (x / mm) ** q * mpmath.besselk(q, 2 * mm * x)) / (
            2 * (4 * mpmath.pi) ** (mpmath.mpf(d) / 2) * mpmath.gamma((mpmath.mpf(u) + 1) / 2))
    got = rf.regularized_polarization_oracle(FieldConfig(d, m), ReflectingBC.dirichlet(), x1, u)
    assert got == pytest.approx(float(exact), rel=1e-8, abs=0.0)


@pytest.mark.parametrize("d, mod, bc", [(1, rf, ReflectingBC.robin(20.0)),
                                        (11, rf, ReflectingBC.robin(-(1.0 - 1e-10) * 10.0)),
                                        (11, stm, SemitransparentBC.delta(-1.9999999 * 10.0))])
def test_far_wall_integrals_near_underflow_keep_their_values(d, mod, bc):
    # at 2m|x1| from 600 to 800 the integrals fall below the smallest normal
    # double, where their h and 2h sums differ in the last subnormal digits:
    # they pass rather than raise
    cfg, xs = FieldConfig(d, 10.0), np.linspace(30.0, 40.0, 101)
    assert np.isfinite(mod.plane_term(cfg, bc, xs)).all()
    assert np.isfinite(mod.plane_term_oracle(cfg, bc, xs)).all()


@pytest.mark.parametrize("d, m, mod, bc", [(3, 1e3, rf, ReflectingBC.neumann()),
                                           (3, 1e3, rf, ReflectingBC.robin(2e3)),
                                           (11, 1e4, stm, SemitransparentBC.delta_prime(1.0))])
def test_far_wall_head_past_705_keeps_its_value(d, m, mod, bc):
    # at 2m|x1| = 705.4 the head F((d-1)/2, 2m|x1|) is still a normal double,
    # and so is the plane term: a large prefactor P carries it
    cfg, x1 = FieldConfig(d, m), 705.4 / (2.0 * m)
    assert mod.plane_term(cfg, bc, x1) == pytest.approx(mod.plane_term_oracle(cfg, bc, x1),
                                                        rel=1e-12, abs=0.0)


def test_past_double_range_is_a_parameter_error():
    # as for the closed form (tests/test_coupling_integral.py)
    with pytest.raises(ParameterError, match="past double range"):
        rf.plane_term_oracle(FieldConfig(3, 1.0), ReflectingBC.robin(2.0), 1e-200)
