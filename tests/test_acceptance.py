"""Acceptance suite: one test per exit criterion, each printing a PASS line
with the measured deviation next to its stated tolerance.

Criteria (tolerances pinned here, nothing deferred):
  1. reflecting oracle equivalence, rel 1e-8, 192-point grid (about 0.1 s;
     a 2 min cap catches a stalled integral)
  2. semitransparent oracle equivalence (both coupling families), rel 1e-8
     (about 0.1 s; a 3 min cap)
  3. heat-kernel cross-validation (spectral 1e-7, semigroup 1e-6, Robin
     boundary residual 1e-6, Neumann conservation 1e-8)
  4. renormalization consistency (c0 vs closed 1e-6; |c_m1| < 1e-8 for d=2;
     c_m1 = 1/(2 pi) +- 1e-6 for d=1, independent of the boundary condition)
  5. asymptotic laws (small-x ratio in [0.99, 1.01] at m|x| = 1e-3 for d >= 2,
     both geometries; large-x ratio in [0.99, 1.01] at m|x| = 20; measured
     decay rate = 2m within 1%)
  6. pure-delta softening (>= 10x drop of |x|^(d-1) plane between 1e-2 and
     1e-4 for d in {2, 3}; skew control approaches a nonzero constant within 5%)
  7. massless consistency (<= 1e-3 against m = 1e-4 at five points per
     geometry; d=1 Dirichlet value = -EULER_GAMMA/(2 pi) to 1e-9)
  8. divergence guards (infrared errors; CLI exit code 2 on positivity)
  9. special functions (half-order identity 1e-12 on [0.01, 50]; Gamma
     recurrence 1e-10; erf oddness and erf(1) to 1e-12)
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from vacpol import reflecting as rf
from vacpol import semitransparent as st
from vacpol.core import FieldConfig
from vacpol.errors import InfraredDivergenceError
from vacpol.heatkernel import (
    HeatQuery,
    ReflectingBC,
    SemitransparentBC,
    reflecting_kernel,
    robin_half_line_kernel,
    spectral_oracle_robin,
)
from vacpol.quadrature import QuadSpec, integrate_semi_infinite
from vacpol.specialfns import EULER_GAMMA, bessel_k_weighted, erf, upper_gamma
from vacpol.validation import reflecting_oracle_grid, semitransparent_oracle_grid


def report(criterion, description, deviation, tolerance):
    status = "PASS" if deviation <= tolerance else "FAIL"
    print(f"{status} criterion {criterion}: {description} "
          f"(measured {deviation:.3e}, tolerance {tolerance:.1e})")
    assert deviation <= tolerance


def test_criterion_1_reflecting_oracle_equivalence():
    start = time.monotonic()
    grid = reflecting_oracle_grid()
    assert len(grid) == 192
    worst = 0.0
    for d, m, b, ax in grid:
        cfg = FieldConfig(d, m)
        bc = ReflectingBC.robin(b)
        closed = rf.plane_term(cfg, bc, ax)
        oracle = rf.plane_term_oracle(cfg, bc, ax)
        worst = max(worst, abs(closed - oracle) / abs(closed))
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0, f"grid took {elapsed:.1f}s > 2 min"
    report(1, f"reflecting plane term vs oracle on 192 points in {elapsed:.1f}s",
           worst, 1e-8)


def test_criterion_2_semitransparent_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for d, m, bc, ax in semitransparent_oracle_grid():
        cfg = FieldConfig(d, m)
        closed = st.plane_term(cfg, bc, ax)
        oracle = st.plane_term_oracle(cfg, bc, ax)
        worst = max(worst, abs(closed - oracle) / max(abs(closed), 1e-300))
    elapsed = time.monotonic() - start
    assert elapsed <= 180.0, f"grid took {elapsed:.1f}s > 3 min"
    report(2, f"semitransparent plane term vs oracle (both families) in {elapsed:.1f}s",
           worst, 1e-8)


def test_criterion_3_heat_kernel_cross_validation():
    rng = np.random.default_rng(20240817)
    dev_spectral = 0.0
    points = []
    for _ in range(16):
        tau = float(rng.uniform(0.1, 1.5))
        x = float(rng.uniform(0.1, 2.0))
        y = float(rng.uniform(0.1, 2.0))
        b = float(rng.uniform(0.1, 4.0))
        points.append((tau, x, y, b, 0.0))
    # the b < 0 corner with its bound-state term, massive and massless
    points += [(1.0, 1.0, 1.0, -1.0, 0.0), (0.8, 1.2, 0.5, -0.6, 0.0),
               (0.5, 0.7, 1.1, -0.3, 0.7), (1.2, 0.4, 0.9, -0.9, 1.0)]
    assert len(points) == 20
    for tau, x, y, b, m in points:
        q = HeatQuery(tau, x, y)
        dev_spectral = max(
            dev_spectral,
            abs(robin_half_line_kernel(q, b, m) - spectral_oracle_robin(q, b, m)),
        )
    report(3, "closed Robin kernel vs spectral oracle at 20 points", dev_spectral, 1e-7)

    spec = QuadSpec(abs_tol=1e-11, rel_tol=1e-9, max_subdivisions=400)
    bc = ReflectingBC(1.0, -0.3)
    dev_semigroup = 0.0
    for tau1, tau2 in ((0.5, 0.5), (0.3, 0.7)):
        def product(z):
            return reflecting_kernel(HeatQuery(tau1, 0.8, z), bc, 0.5) * reflecting_kernel(
                HeatQuery(tau2, z, 1.3), bc, 0.5
            )

        conv = integrate_semi_infinite(lambda z: product(z + 1e-13), spec)[0]
        conv += integrate_semi_infinite(lambda z: product(-z - 1e-13), spec)[0]
        direct = reflecting_kernel(HeatQuery(tau1 + tau2, 0.8, 1.3), bc, 0.5)
        dev_semigroup = max(dev_semigroup, abs(conv - direct))
    report(3, "semigroup property", dev_semigroup, 1e-6)

    dev_bc = 0.0
    h = 1e-4
    for b, tau, y, m in ((0.7, 0.6, 0.9, 0.0), (-0.4, 0.8, 1.2, 0.5), (3.0, 0.3, 0.5, 1.0)):
        k = lambda xx: robin_half_line_kernel(HeatQuery(tau, xx, y), b, m)
        f1, f2, f3 = k(h), k(2 * h), k(3 * h)
        val0 = 3 * f1 - 3 * f2 + f3
        der0 = (-5 * f1 + 8 * f2 - 3 * f3) / (2 * h)
        dev_bc = max(dev_bc, abs(-der0 + b * val0) / max(abs(der0), 1.0))
    report(3, "Robin boundary-condition residual", dev_bc, 1e-6)

    spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-11, max_subdivisions=400)
    total, _ = integrate_semi_infinite(
        lambda y: robin_half_line_kernel(HeatQuery(0.5, 0.7, y + 1e-14), 0.0), spec
    )
    report(3, "Neumann conservation", abs(total - 1.0), 1e-8)


def test_criterion_4_renormalization_consistency():
    dev_c0 = 0.0
    for d, bc_r, bc_s in (
        (1, ReflectingBC.robin(1.0), SemitransparentBC.delta(2.0)),
        (2, ReflectingBC.robin(0.5), SemitransparentBC.delta_prime(1.0)),
        (3, ReflectingBC.neumann(), SemitransparentBC.delta(1.0)),
    ):
        cfg = FieldConfig(d, 1.0)
        fit = rf.laurent_coefficients(cfg, bc_r, 0.8)
        closed = rf.free_term(cfg) + rf.plane_term(cfg, bc_r, 0.8)
        dev_c0 = max(dev_c0, abs(fit.c0 - closed))
        fit = st.laurent_coefficients(cfg, bc_s, 0.8)
        closed = st.free_term(cfg) + st.plane_term(cfg, bc_s, 0.8)
        dev_c0 = max(dev_c0, abs(fit.c0 - closed))
    report(4, "Laurent c0 equals free + plane for d in {1,2,3}", dev_c0, 1e-6)

    fit = rf.laurent_coefficients(FieldConfig(2, 1.0), ReflectingBC.robin(0.5), 0.8)
    report(4, "no pole at even dimension (|c_m1|, d=2)", abs(fit.c_m1), 1e-8)

    dev_res = 0.0
    for bc in (ReflectingBC.neumann(), ReflectingBC.robin(3.0), ReflectingBC.dirichlet()):
        fit = rf.laurent_coefficients(FieldConfig(1, 1.0), bc, 0.8)
        dev_res = max(dev_res, abs(fit.c_m1 - 1.0 / (2.0 * math.pi)))
    for bc in (SemitransparentBC.delta(2.0), SemitransparentBC.delta_prime(1.0)):
        fit = st.laurent_coefficients(FieldConfig(1, 1.0), bc, 0.8)
        dev_res = max(dev_res, abs(fit.c_m1 - 1.0 / (2.0 * math.pi)))
    report(4, "d=1 residue 1/(2 pi), boundary-condition independent", dev_res, 1e-6)


def test_criterion_5_asymptotic_laws():
    dev_small = 0.0
    for d in (2, 3, 4):
        cfg = FieldConfig(d, 1.0)
        bc = ReflectingBC.robin(0.1)
        x1 = 1e-3
        dev_small = max(dev_small, abs(
            rf.plane_term(cfg, bc, x1) / rf.small_x_asymptotic(cfg, bc, x1) - 1.0
        ))
    for d, bc in ((2, SemitransparentBC.delta_prime(5.0)), (3, SemitransparentBC.delta_prime(1.0))):
        cfg = FieldConfig(d, 1.0)
        x1 = 1e-3
        dev_small = max(dev_small, abs(
            st.plane_term(cfg, bc, x1) / st.small_x_asymptotic(cfg, bc, x1) - 1.0
        ))
    report(5, "small-x ratio at m|x| = 1e-3 (d >= 2, both geometries)", dev_small, 0.01)

    dev_large = 0.0
    for d, bc in ((2, ReflectingBC.neumann()), (2, ReflectingBC.robin(0.1)),
                  (2, ReflectingBC.dirichlet()), (3, ReflectingBC.neumann())):
        cfg = FieldConfig(d, 1.0)
        dev_large = max(dev_large, abs(
            rf.plane_term(cfg, bc, 20.0) / rf.large_x_asymptotic(cfg, bc, 20.0) - 1.0
        ))
    for bc in (SemitransparentBC.delta(5.0), SemitransparentBC.delta_prime(5.0)):
        cfg = FieldConfig(2, 1.0)
        dev_large = max(dev_large, abs(
            st.plane_term(cfg, bc, 20.0) / st.large_x_asymptotic(cfg, bc, 20.0) - 1.0
        ))
    report(5, "large-x ratio at m|x| = 20", dev_large, 0.01)

    dev_rate = 0.0
    for d, b, m in ((2, 0.5, 1.0), (3, -0.3, 1.0), (2, 2.0, 0.5)):
        cfg = FieldConfig(d, m)
        bc = ReflectingBC.robin(b)
        xs = np.linspace(5.0 / m, 10.0 / m, 6)
        logs = [math.log(abs(rf.plane_term(cfg, bc, x)) * x ** (0.5 * d)) for x in xs]
        slope = np.polyfit(xs, logs, 1)[0]
        dev_rate = max(dev_rate, abs(-slope / (2.0 * m) - 1.0))
    report(5, "measured decay rate equals 2m over |x| in [5, 10]/m", dev_rate, 0.01)


def test_criterion_6_pure_delta_softening():
    dev_drop = 0.0
    for d in (2, 3):
        cfg = FieldConfig(d, 1.0)
        soft = SemitransparentBC.delta(1.0)
        w = lambda x: abs(x ** (d - 1) * st.plane_term(cfg, soft, x))
        drop = w(1e-4) / w(1e-2)
        dev_drop = max(dev_drop, drop)
    report(6, "pure-delta witness |x|^(d-1) plane drops >= 10x", dev_drop, 0.1)

    dev_ctrl = 0.0
    for d in (2, 3):
        cfg = FieldConfig(d, 1.0)
        hard = SemitransparentBC(2.0, 0.0, 1.0, 0.5)
        # nonzero limiting constant = the skew-delta leading asymptote
        ratio = st.plane_term(cfg, hard, 1e-4) / st.small_x_asymptotic(cfg, hard, 1e-4)
        dev_ctrl = max(dev_ctrl, abs(ratio - 1.0))
    report(6, "skew control converges to its nonzero constant", dev_ctrl, 0.05)


def test_criterion_7_massless_consistency():
    dev = 0.0
    reflecting_points = [
        (2, ReflectingBC.robin(1.0), 1.0),
        (2, ReflectingBC.neumann(), 0.7),
        (3, ReflectingBC.robin(0.5), 1.2),
        (3, ReflectingBC.dirichlet(), 0.8),
        (4, ReflectingBC.robin(2.0), 1.0),
    ]
    for d, bc, x1 in reflecting_points:
        target = rf.massless_value(FieldConfig(d, 0.0), bc, x1).total
        cfg = FieldConfig(d, 1e-4)
        massive = rf.free_term(cfg) + rf.plane_term(cfg, bc, x1)
        dev = max(dev, abs(massive - target))
    semitransparent_points = [
        (2, SemitransparentBC.delta(1.0), 1.0),
        (2, SemitransparentBC.delta_prime(1.0), 0.7),
        (3, SemitransparentBC.delta(5.0), 1.2),
        (3, SemitransparentBC.delta_prime(0.5), 0.8),
        (3, SemitransparentBC(2.0, 0.0, 1.0, 0.5), 1.0),
    ]
    for d, bc, x1 in semitransparent_points:
        target = st.massless_value(FieldConfig(d, 0.0), bc, x1).total
        cfg = FieldConfig(d, 1e-4)
        massive = st.free_term(cfg) + st.plane_term(cfg, bc, x1)
        dev = max(dev, abs(massive - target))
    report(7, "massless value vs m = 1e-4 at five points per geometry", dev, 1e-3)

    value = rf.massless_value(FieldConfig(1, 0.0, kappa=1.0), ReflectingBC.dirichlet(), 0.5)
    report(7, "d=1 Dirichlet massless value = -EULER_GAMMA/(2 pi)",
           abs(value.total + EULER_GAMMA / (2.0 * math.pi)), 1e-9)


def test_criterion_8_divergence_guards():
    with pytest.raises(InfraredDivergenceError):
        rf.massless_value(FieldConfig(1, 0.0), ReflectingBC.neumann(), 0.5)
    with pytest.raises(InfraredDivergenceError):
        st.massless_value(FieldConfig(1, 0.0), SemitransparentBC.delta_prime(1.0), 0.5)
    print("PASS criterion 8: massless d=1 infrared guards raise")

    cli = [sys.executable, "-m", "vacpol.cli"]
    out = subprocess.run(cli + ["spectrum", "--geometry", "reflecting",
                                "--b-plus", "-2", "--b-minus", "0", "--m", "1"],
                         capture_output=True)
    assert out.returncode == 2
    out = subprocess.run(cli + ["profile", "--geometry", "semitransparent",
                                "--beta", "1", "--gamma", "-9", "--sigma", "-8",
                                "--d", "2", "--m", "1", "--points", "2"],
                         capture_output=True)
    assert out.returncode == 2  # Lambda_minus < -m
    out = subprocess.run(cli + ["profile", "--d", "2", "--m", "1",
                                "--b-plus", "-2", "--b-minus", "0", "--points", "2"],
                         capture_output=True)
    assert out.returncode == 2  # b <= -m
    print("PASS criterion 8: positivity violations exit with code 2 through the CLI")


def test_criterion_9_special_functions():
    dev = max(
        abs(bessel_k_weighted(0.5, w) * math.exp(w) - math.sqrt(math.pi / 2.0))
        for w in np.geomspace(0.01, 50.0, 200)
    )
    report(9, "half-order weighted Bessel identity on [0.01, 50]", dev, 1e-12)

    dev = 0.0
    for a in (-3.0, -2.0, -1.0, 0.0, 1.0):
        for z in (0.1, 1.0, 10.0):
            lhs = upper_gamma(a + 1.0, z)
            rhs = a * upper_gamma(a, z) + z**a * math.exp(-z)
            dev = max(dev, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    report(9, "incomplete-Gamma recurrence", dev, 1e-10)

    dev = max(abs(erf(z) + erf(-z)) for z in np.linspace(0.0, 5.0, 101))
    dev = max(dev, abs(erf(1.0) - 0.8427007929497149))
    report(9, "erf oddness and reference value erf(1)", dev, 1e-12)
