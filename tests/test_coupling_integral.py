"""The coupling integral against 30-digit mpmath image sums.

``coupling_refs.json`` (written by ``make_coupling_refs.py``, which states
the reference route) holds 146 plane terms at ``m = 1``: near the wall
down to ``|x1| = 1e-10``, at regular distances, and within ``eps = 1e-3``
to ``1e-10`` (times ``m``) of the positivity threshold.  Each is a head
term plus one coupling integral, so its error is the rule's.
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from vacpol import core
from vacpol import reflecting as rf
from vacpol import semitransparent as st
from vacpol.core import FieldConfig
from vacpol.errors import NumericalFailureError, ParameterError
from vacpol.heatkernel import ReflectingBC, SemitransparentBC

with open(os.path.join(os.path.dirname(__file__), "coupling_refs.json"), encoding="utf-8") as fh:
    REFS = json.load(fh)
CASES = REFS["cases"]


def _wall(kind, coupling):
    if kind == "robin":
        return rf, ReflectingBC.robin(coupling)
    if kind == "delta":
        return st, SemitransparentBC.delta(coupling)
    return st, SemitransparentBC.delta_prime(coupling)


@pytest.mark.parametrize("case", CASES, ids=[f"{c['kind']}{c['coupling']!r}/d{c['d']}/x{c['x1']!r}"
                                             for c in CASES])
def test_plane_term_against_mpmath(case):
    mod, bc = _wall(case["kind"], case["coupling"])
    got = mod.plane_term(FieldConfig(case["d"], REFS["m"]), bc, case["x1"])
    ref = float(case["plane"])
    assert abs(got - ref) <= 1e-12 * abs(ref)


def _groups():
    groups = {}
    for c in CASES:
        groups.setdefault((c["kind"], c["coupling"], c["d"]), []).append(c["x1"])
    return groups


def test_batch_matches_single_points():
    # a batch holds one sum per point, so each value is the one a single call gives
    for (kind, coupling, d), xs in _groups().items():
        mod, bc = _wall(kind, coupling)
        cfg = FieldConfig(d, REFS["m"])
        points = sorted(xs + [-x for x in xs])
        assert list(mod.plane_term(cfg, bc, points)) == [mod.plane_term(cfg, bc, x) for x in points]


def test_rule_resolves_the_set():
    for (kind, coupling, d), xs in _groups().items():
        _, bc = _wall(kind, coupling)
        for _, rate in bc.images(1.0, 1.0).terms:
            value, err_est = core._coupling_integrals(d, REFS["m"], np.array(xs), rate, (0.0,))
            assert (err_est <= 1e-13 * value).all()


@settings(max_examples=150, deadline=None)
@given(
    d=strategies.integers(1, 11),
    # rate + m from 1e-10 m (the positivity threshold) to 1e3 m
    rate=strategies.floats(-10.0, 3.0).map(lambda e: -1.0 + 10.0**e),
    ax=strategies.floats(-8.0, math.log10(30.0)).map(lambda e: 10.0**e),
    row=strategies.sampled_from(("u0", "laurent", "strip")),
)
def test_left_tail_is_the_sum_of_the_nodes_it_replaces(d, rate, ax, row):
    # left of its first node the rule adds g(first) H/expm1(H) to the sum of
    # step H (H = h, 2h); each must match those nodes summed one by one
    m, x = 1.0, np.array([ax])
    us = {"u0": (0.0,), "laurent": (0.0,) + core._stencil(core._LAURENT_EPS),
          "strip": (d + 0.5,)}[row]
    value = core._coupling_integrals(d, m, x, rate, us)[0][0]
    h = core._STEP / math.sqrt(max(1.0, 0.5 * (max(us) - d) + 1.0))
    c = 2.0 * (rate + m) * x
    first = core._S_FIRST - np.maximum(np.log(c), 0.0)

    def integrand(point, s):
        return core._log_integrand(d, m, rate, us, x[point], s)

    bare = core._log_trapezoid(integrand, first, core._S_LAST - np.log(c), h)[0][0]
    first_node = integrand(np.zeros(1, dtype=int), first)[:, 0]
    for step, tail in ((h, value - bare), (2.0 * h, first_node * (2.0 * h / np.expm1(2.0 * h)))):
        k = np.arange(1, math.ceil(40.0 / step) + 1)
        nodes = step * integrand(np.zeros(len(k), dtype=int), first[0] - step * k).sum(axis=1)
        assert (np.abs(tail - nodes) <= 1e-15 * np.abs(value)).all()


@pytest.mark.parametrize("d, b, x1, error", [
    (3, 2.0, 1e-200, ParameterError),  # the plane term itself is past double range
    (1, 2.0, 5e-324, NumericalFailureError),  # the integrand spans v past double range
    (1, -(1.0 - 1e-10), 1e-305, NumericalFailureError),
])
def test_distances_past_double_range_raise_typed_errors(d, b, x1, error):
    with pytest.raises(error, match="past double range|double range of v"):
        rf.plane_term(FieldConfig(d, 1.0), ReflectingBC.robin(b), x1)
