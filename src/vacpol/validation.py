"""Built-in cross-validation suites.

Every invariant the library promises is implemented here as a named check
returning its measured deviation and tolerance, so that ``vacpol validate``
can report machine-readable pass/fail lines.  The test suite reuses these
functions.  The oracle-equivalence grids integrate the proper-time
representation of each plane term, one trapezoid batch in ``ln tau`` per
``(d, m, wall)`` run of distances.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import heatkernel as hk
from . import reflecting as rf
from . import semitransparent as st
from .core import FieldConfig
from .quadrature import QuadSpec, integrate_finite, integrate_semi_infinite
from .specialfns import EULER_GAMMA, bessel_k_weighted, erf, erfc, upper_gamma

__all__ = ["CheckResult", "SUITES", "run_suite", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    passed: bool
    detail: str = ""


def _check(name, deviation, tolerance, detail=""):
    return CheckResult(name, deviation, tolerance, bool(deviation <= tolerance), detail)


# ---------------------------------------------------------------------------
# specialfns
# ---------------------------------------------------------------------------

def check_specialfns():
    results = []

    # the Bessel grids are arrays: one call per order, as the coupling
    # integral makes them
    ws = np.geomspace(0.01, 50.0, 120)
    dev = float(np.max(np.abs(bessel_k_weighted(0.5, ws) * np.exp(ws) - math.sqrt(math.pi / 2))))
    results.append(_check("bessel.half_order_exact", dev, 1e-12,
                          "F(1/2, w) e^w = sqrt(pi/2) on w in [0.01, 50]"))

    # whole and half-integer orders are computed by this recurrence, so at
    # 0, 1, 2.5 and 4 it holds by construction; 0.3, 1.7 and 6.3 test kve
    dev = 0.0
    ws = np.array([0.01, 0.1, 1.0, 5.0, 20.0])
    for nu in (0.0, 0.3, 1.0, 1.7, 2.5, 4.0, 6.3):
        lhs = bessel_k_weighted(nu + 1.0, ws)
        rhs = 2.0 * nu * bessel_k_weighted(nu, ws) + ws * ws * bessel_k_weighted(nu - 1.0, ws)
        dev = max(dev, float(np.max(np.abs(lhs - rhs) / np.abs(lhs))))
    results.append(_check("bessel.recurrence", dev, 1e-10,
                          "three-term recurrence across a (nu, w) grid"))

    dev = 0.0
    ws = np.geomspace(1e-3, 30.0, 60)
    for nu in (0.0, 0.5, 1.0, 2.0, 3.5):
        vals = bessel_k_weighted(nu, ws)
        if (vals <= 0.0).any():
            dev = max(dev, 1.0)
        grow = float(np.max((vals[1:] - vals[:-1]) / vals[:-1]))
        dev = max(dev, max(0.0, grow))
    results.append(_check("bessel.positive_decreasing", dev, 1e-12,
                          "positivity and strict monotone decay in w for nu >= 0"))

    dev = 0.0
    for a in (-3.0, -2.0, -1.0, 0.0, 1.0):
        for z in (0.1, 1.0, 10.0):
            lhs = upper_gamma(a + 1.0, z)
            rhs = a * upper_gamma(a, z) + z**a * math.exp(-z)
            scale = max(abs(lhs), abs(rhs), 1e-300)
            dev = max(dev, abs(lhs - rhs) / scale)
    results.append(_check("gamma.recurrence", dev, 1e-10, "Gamma(a+1,z) = a Gamma(a,z) + z^a e^-z"))

    zs = np.linspace(-6.0, 6.0, 121)
    dev = max(abs(erf(z) + erf(-z)) for z in zs)
    dev = max(dev, max(abs(erf(z) + erfc(z) - 1.0) for z in zs if z >= 0))
    mono = min(erf(zs[i + 1]) - erf(zs[i]) for i in range(len(zs) - 1))
    dev = max(dev, max(0.0, -mono))
    results.append(_check("erf.odd_complement_monotone", dev, 1e-14))

    dev = abs(EULER_GAMMA - 0.5772156649015329)
    dev = max(dev, abs(bessel_k_weighted(0.0, 1e-8) + math.log(0.5e-8) + EULER_GAMMA))
    results.append(_check("euler_gamma.value_and_bessel_limit", dev, 1e-12))

    return results


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def check_quadrature():
    results = []
    spec = QuadSpec()

    cases = [
        ("exp", lambda v: math.exp(-v), 1.0),
        ("gaussian", lambda v: math.exp(-v * v), 0.5 * math.sqrt(math.pi)),
        ("exp_over_shift", lambda v: math.exp(-v) / (v + 1.0), math.e * upper_gamma(0.0, 1.0)),
    ]
    dev = 0.0
    bound_ok = True
    for _, f, exact in cases:
        value, err = integrate_semi_infinite(f, spec)
        dev = max(dev, abs(value - exact))
        bound_ok = bound_ok and abs(value - exact) <= max(err, 1e-15)
    results.append(_check("quad.semi_infinite_closed_forms", dev, 1e-10))
    results.append(_check("quad.error_estimate_bounds", 0.0 if bound_ok else 1.0, 0.5,
                          "reported estimate bounds the true error"))

    value, _ = integrate_finite(math.sin, 0.0, math.pi, spec)
    dev = abs(value - 2.0)
    value, _ = integrate_finite(math.log, 0.0, 1.0, spec)
    dev = max(dev, abs(value + 1.0))
    results.append(_check("quad.finite_closed_forms", dev, 1e-10))

    f = lambda v: math.exp(-v)
    g = lambda v: math.exp(-v * v)
    combo, _ = integrate_semi_infinite(lambda v: 2.0 * f(v) - 3.0 * g(v), spec)
    parts = 2.0 * integrate_semi_infinite(f, spec)[0] - 3.0 * integrate_semi_infinite(g, spec)[0]
    results.append(_check("quad.linearity", abs(combo - parts), 1e-10))

    return results


# ---------------------------------------------------------------------------
# heat kernels
# ---------------------------------------------------------------------------

def _edge_extrapolate(f, h):
    """Quadratic extrapolation of f and f' to x = 0 from x = h, 2h, 3h.

    Works from either side (pass a negative ``h`` for the ``0-`` face);
    accurate to O(h^3) and O(h^2) respectively.
    """
    f1, f2, f3 = f(h), f(2.0 * h), f(3.0 * h)
    value = 3.0 * f1 - 3.0 * f2 + f3
    deriv = (-5.0 * f1 + 8.0 * f2 - 3.0 * f3) / (2.0 * h)
    return value, deriv


def _kernel_on_line(bc, m):
    """``(tau, x, y) -> Re K(tau; x, y)`` of the wall ``bc``, through one
    :func:`~vacpol.heatkernel.wall_kernel`."""
    kernel = hk.wall_kernel(bc, m)
    return lambda tau, x, y: kernel(tau, x, y).real


def _semigroup_deviation(kernel, tau1, tau2, x, y):
    spec = QuadSpec(abs_tol=1e-11, rel_tol=1e-9, max_subdivisions=400)

    def product(z):
        return kernel(tau1, x, z) * kernel(tau2, z, y)

    plus, _ = integrate_semi_infinite(lambda z: product(z + 1e-13), spec)
    minus, _ = integrate_semi_infinite(lambda z: product(-z - 1e-13), spec)
    direct = kernel(tau1 + tau2, x, y)
    return abs(plus + minus - direct)


def check_heatkernel():
    results = []

    # closed erf-form vs w-integral form vs spectral expansion
    points = [
        (0.5, 0.7, 0.4, 1.0, 0.0),
        (1.0, 1.0, 1.0, 0.0, 0.0),
        (1.0, 1.0, 1.0, -0.5, 0.5),
        (0.2, 0.3, 1.2, 2.0, 1.0),
        (0.05, 1.5, 0.5, 5.0, 0.0),
    ]
    dev_w = dev_s = 0.0
    for tau, x, y, b, m in points:
        q = hk.HeatQuery(tau, x, y)
        closed = hk.robin_half_line_kernel(q, b, m)
        dev_w = max(dev_w, abs(closed - hk.robin_half_line_kernel_wform(q, b, m)))
        dev_s = max(dev_s, abs(closed - hk.spectral_oracle_robin(q, b, m)))
    results.append(_check("kernel.robin_erf_vs_wform", dev_w, 1e-9))
    results.append(_check("kernel.robin_vs_spectral", dev_s, 1e-7))

    dev = 0.0
    rk = _kernel_on_line(hk.ReflectingBC(b_plus=1.0, b_minus=-0.3), 0.5)
    sk = _kernel_on_line(hk.SemitransparentBC(1.0, 0.5, -0.4, 0.8), 0.5)
    for tau1, tau2 in ((0.5, 0.5), (0.3, 0.7)):
        dev = max(dev, _semigroup_deviation(rk, tau1, tau2, 0.8, 1.3))
        dev = max(dev, _semigroup_deviation(sk, tau1, tau2, 0.8, -1.3))
    results.append(_check("kernel.semigroup", dev, 1e-6))

    # heat equation away from x = y and the wall, both families
    dev = 0.0
    h = 1e-4
    sbc = hk.SemitransparentBC(1.2, 0.5, 0.4, 1.0)
    for bc, tau, x, y, m in (
        (hk.ReflectingBC.robin(0.8), 0.7, 1.1, 0.4, 0.5),
        (hk.ReflectingBC.robin(-0.2), 0.4, 0.6, 1.5, 1.0),
        (sbc, 0.7, 1.1, 0.4, 0.5),
        (sbc, 0.6, -0.8, 0.9, 0.5),
    ):
        k = _kernel_on_line(bc, m)
        dtau = (k(tau + h, x, y) - k(tau - h, x, y)) / (2.0 * h)
        dxx = (k(tau, x + h, y) - 2.0 * k(tau, x, y) + k(tau, x - h, y)) / (h * h)
        resid = dtau - dxx + m * m * k(tau, x, y)
        dev = max(dev, abs(resid) / max(abs(dtau), 1e-12))
    results.append(_check("kernel.heat_equation", dev, 1e-4,
                          "central differences, both wall families"))

    # Robin boundary condition -d_x K + b K = 0 at x -> 0+ (quadratic
    # extrapolation of value and derivative to the wall)
    dev = 0.0
    h = 1e-4
    for b, tau, y, m in ((0.7, 0.6, 0.9, 0.0), (-0.4, 0.8, 1.2, 0.5), (3.0, 0.3, 0.5, 1.0)):
        kernel = hk.wall_kernel(hk.ReflectingBC.robin(b), m)
        val0, der0 = _edge_extrapolate(lambda xx: kernel(tau, xx, y), h)
        resid = -der0 + b * val0
        dev = max(dev, abs(resid) / max(abs(der0), 1.0))
    results.append(_check("kernel.robin_boundary_condition", dev, 1e-6))

    # Neumann conservation: int_0^inf K(tau; x, y) dy = 1 at b = 0, m = 0
    spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-11, max_subdivisions=400)
    dev = 0.0
    kernel = hk.wall_kernel(hk.ReflectingBC.neumann())
    for tau, x in ((0.5, 0.7), (1.5, 2.0)):
        total, _ = integrate_semi_infinite(lambda y: kernel(tau, x, y + 1e-14), spec)
        dev = max(dev, abs(total - 1.0))
    results.append(_check("kernel.neumann_conservation", dev, 1e-8))

    # transfer relation at the wall for both coupling families (complex omega)
    dev = 0.0
    omega = complex(math.cos(0.6), math.sin(0.6))
    for bc, m in (
        (hk.SemitransparentBC(1.0, 0.0, 1.5, 1.0, omega), 0.5),
        (hk.SemitransparentBC(2.0, 0.0, 1.0, 0.5, omega), 0.5),
        (hk.SemitransparentBC(1.2, 0.8, -0.2, (1.0 + 0.8 * -0.2) / 1.2, omega), 0.5),
        (hk.SemitransparentBC.delta_prime(0.8), 0.5),
        (hk.SemitransparentBC.delta_prime(-1.5), 1.6),  # bound-state rates
    ):
        tau, y = 0.6, 0.9
        h = 1e-4
        kernel = hk.wall_kernel(bc, m)
        k = lambda xx: kernel(tau, xx, y)
        val_p, der_p = _edge_extrapolate(k, h)
        val_m, der_m = _edge_extrapolate(k, -h)
        (t11, t12), (t21, t22) = bc.transfer_matrix()
        dev = max(dev, abs(val_p - (t11 * val_m + t12 * der_m)))
        dev = max(dev, abs(der_p - (t21 * val_m + t22 * der_m)))
    results.append(_check("kernel.transfer_relation", dev, 1e-5))

    # Hermiticity with genuinely complex omega
    dev = 0.0
    kernel = hk.wall_kernel(hk.SemitransparentBC(1.0, 0.4, 0.3, (1.0 + 0.4 * 0.3), omega), 0.5)
    for x, y in ((0.5, -0.8), (-1.1, 0.3), (0.7, 0.9)):
        dev = max(dev, abs(kernel(0.7, x, y) - kernel(0.7, y, x).conjugate()))
    results.append(_check("kernel.hermitian", dev, 1e-10))

    # mass shift K_m = e^{-m^2 tau} K_0, exact by construction
    q = hk.HeatQuery(0.8, 1.1, 0.6)
    dev = abs(
        hk.robin_half_line_kernel(q, 0.9, 1.3)
        - math.exp(-1.3**2 * 0.8) * hk.robin_half_line_kernel(q, 0.9, 0.0)
    )
    results.append(_check("kernel.mass_shift", dev, 1e-15))

    return results


# ---------------------------------------------------------------------------
# contracts shared by both geometry modules
# ---------------------------------------------------------------------------

def _oracle_deviation(mod, grid):
    """Max relative closed-form vs proper-time-oracle gap over ``(d, m, bc, |x1|)``;
    the distances at one ``(d, m, bc)`` are one batch of each."""
    runs = {}
    for d, m, bc, ax in grid:
        runs.setdefault((d, m, bc), []).append(ax)
    dev = 0.0
    for (d, m, bc), axs in runs.items():
        cfg, xs = FieldConfig(d, m), np.array(axs)
        closed = mod.plane_term(cfg, bc, xs)
        oracle = mod.plane_term_oracle(cfg, bc, xs)
        gaps = np.abs(closed - oracle) / np.maximum(np.abs(closed), 1e-300)
        dev = max(dev, float(gaps.max()))
    return dev


def _strip_deviation(mod, cases):
    """Max relative continuation vs strip-oracle gap over ``(d, bc, u)``."""
    dev = 0.0
    for d, bc, u in cases:
        cfg = FieldConfig(d, 1.0)
        a1 = mod.regularized_polarization(cfg, bc, 0.7, u)
        a2 = mod.regularized_polarization_oracle(cfg, bc, 0.7, u)
        dev = max(dev, abs(a1 - a2) / max(abs(a1), 1e-12))
    return dev


def _laurent_deviations(mod, cases):
    """Largest even-``d`` pole, odd-``d`` residue error and ``c0`` gap over ``(d, bc)``."""
    dev_even = dev_res = dev_c0 = 0.0
    for d, bc in cases:
        cfg = FieldConfig(d, 1.0)
        fit = mod.laurent_coefficients(cfg, bc, 0.8)
        closed = mod.free_term(cfg) + mod.plane_term(cfg, bc, 0.8)
        if d % 2 == 0:
            dev_even = max(dev_even, abs(fit.c_m1))
        else:
            residue = 1.0 / (2.0 * math.pi) if d == 1 else -cfg.m**2 / (8.0 * math.pi**2)
            dev_res = max(dev_res, abs(fit.c_m1 - residue))
        dev_c0 = max(dev_c0, abs(fit.c0 - closed))
    return dev_even, dev_res, dev_c0


def _massless_limit_deviation(mod, cases):
    """Gap of massive ``free + plane`` to ``massless_value`` at m = 1e-4; 1 if not monotone."""
    dev = 0.0
    for d, bc in cases:
        target = mod.massless_value(FieldConfig(d, 0.0), bc, 1.0).total
        errs = []
        for m in (1e-2, 1e-3, 1e-4):
            cfg = FieldConfig(d, m)
            errs.append(abs(mod.free_term(cfg) + mod.plane_term(cfg, bc, 1.0) - target))
        monotone = errs[0] > errs[1] > errs[2]
        dev = max(dev, errs[-1] if monotone else 1.0)
    return dev


# ---------------------------------------------------------------------------
# reflecting polarization
# ---------------------------------------------------------------------------

def reflecting_oracle_grid():
    """The full oracle-equivalence grid: 192 (d, m, b, |x1|) points."""
    grid = []
    for d in (1, 2, 3, 4):
        for m in (0.5, 1.0, 2.0):
            for b in (-0.4 * m, 0.0, 1.0, 10.0):
                for ax in (0.1, 0.5, 1.0, 3.0):
                    grid.append((d, m, b, ax))
    return grid


def check_reflecting():
    results = []

    # parity
    cfg = FieldConfig(3, 1.0)
    bc = hk.ReflectingBC.robin(0.7)
    dev = abs(rf.plane_term(cfg, bc, 0.8) - rf.plane_term(cfg, bc, -0.8))
    results.append(_check("reflecting.parity", dev, 1e-15))

    # oracle equivalence
    grid = [(d, m, hk.ReflectingBC.robin(b), ax)
            for d, m, b, ax in reflecting_oracle_grid()]
    results.append(_check("reflecting.oracle_equivalence", _oracle_deviation(rf, grid), 1e-8,
                          "closed form vs proper-time quadrature"))

    # Neumann/Dirichlet sandwich and monotonicity in b
    cfg = FieldConfig(3, 1.0)
    x1 = 0.6
    neu = rf.plane_term(cfg, hk.ReflectingBC.neumann(), x1)
    dir_ = rf.plane_term(cfg, hk.ReflectingBC.dirichlet(), x1)
    values = [rf.plane_term(cfg, hk.ReflectingBC.robin(b), x1) for b in (0.1, 0.5, 2.0, 10.0, 50.0)]
    ok = all(dir_ < v < neu for v in values)
    ok = ok and all(values[i + 1] < values[i] for i in range(len(values) - 1))
    results.append(_check("reflecting.nd_sandwich", 0.0 if ok else 1.0, 0.5,
                          "Robin values interpolate monotonically between D and N"))

    # strip consistency
    robin = hk.ReflectingBC.robin(1.0)
    dev = _strip_deviation(rf, [(d, robin, d + du) for d in (1, 2, 3) for du in (0.0, 0.5, 1.0)])
    results.append(_check("reflecting.strip_consistency", dev, 1e-8))

    # Laurent contracts
    dev_even, dev_res, dev_c0 = _laurent_deviations(
        rf, ((1, hk.ReflectingBC.robin(1.0)), (2, hk.ReflectingBC.robin(0.5)),
             (3, hk.ReflectingBC.neumann())))
    results.append(_check("reflecting.laurent_even_no_pole", dev_even, 1e-8))
    results.append(_check("reflecting.laurent_residue", dev_res, 1e-6))
    results.append(_check("reflecting.laurent_c0_vs_closed", dev_c0, 1e-6))

    # small-x: ratio for d >= 2, bounded difference for d = 1
    dev = 0.0
    for d in (2, 3, 4):
        cfg = FieldConfig(d, 1.0)
        bc = hk.ReflectingBC.robin(0.1)
        x1 = 1e-3
        ratio = rf.plane_term(cfg, bc, x1) / rf.small_x_asymptotic(cfg, bc, x1)
        dev = max(dev, abs(ratio - 1.0))
    results.append(_check("reflecting.small_x_ratio", dev, 0.01))
    cfg = FieldConfig(1, 1.0)
    bc = hk.ReflectingBC.robin(1.0)
    diff = abs(rf.plane_term(cfg, bc, 1e-3) - rf.small_x_asymptotic(cfg, bc, 1e-3))
    results.append(_check("reflecting.small_x_d1_bounded", diff, 5.0,
                          "d=1 correction is O(1) against a log"))

    # large-x ratios; couplings where the O(1/x) coefficient stays small
    # (near b = m the leading ratio (m-b)/(m+b) degenerates and no band holds)
    dev5 = dev20 = 0.0
    for d, bc in ((2, hk.ReflectingBC.neumann()), (2, hk.ReflectingBC.robin(0.1)),
                  (2, hk.ReflectingBC.dirichlet()), (3, hk.ReflectingBC.neumann())):
        cfg = FieldConfig(d, 1.0)
        xs = np.array([5.0, 20.0])
        r5, r20 = rf.plane_term(cfg, bc, xs) / rf.large_x_asymptotic(cfg, bc, xs)
        dev5 = max(dev5, abs(r5 - 1.0))
        dev20 = max(dev20, abs(r20 - 1.0))
    results.append(_check("reflecting.large_x_ratio_m5", dev5, 0.1))
    results.append(_check("reflecting.large_x_ratio_m20", dev20, 0.01))

    # measured decay rate of the compensated plane term over |x1| in [5, 10]
    dev = 0.0
    for d, b, m in ((2, 0.5, 1.0), (3, -0.3, 1.0), (2, 2.0, 0.5)):
        cfg = FieldConfig(d, m)
        bc = hk.ReflectingBC.robin(b)
        xs = np.linspace(5.0 / m, 10.0 / m, 6)
        logs = [math.log(abs(p) * x ** (0.5 * d)) for p, x in zip(rf.plane_term(cfg, bc, xs), xs)]
        slope = np.polyfit(xs, logs, 1)[0]
        dev = max(dev, abs(-slope / (2.0 * m) - 1.0))
    results.append(_check("reflecting.decay_rate_2m", dev, 0.01,
                          "slope of log(|plane| x^(d/2)) matches -2m within 1%"))

    # massless limit convergence for d >= 2
    dev = _massless_limit_deviation(rf, [(d, hk.ReflectingBC.robin(1.0)) for d in (2, 3)])
    results.append(_check("reflecting.massless_limit", dev, 1e-3))

    return results


# ---------------------------------------------------------------------------
# semitransparent polarization
# ---------------------------------------------------------------------------

def semitransparent_oracle_grid():
    """Both coupling families: pure/mixed delta and delta-prime cases."""
    grid = []
    for d in (1, 2, 3):
        for m in (0.5, 1.0):
            for ax in (0.2, 1.0, 3.0):
                grid.append((d, m, hk.SemitransparentBC.delta(-1.0 * m), ax))
                grid.append((d, m, hk.SemitransparentBC.delta(1.0), ax))
                grid.append((d, m, hk.SemitransparentBC.delta(5.0), ax))
                grid.append((d, m, hk.SemitransparentBC.delta_prime(1.0), ax))
                grid.append((d, m, hk.SemitransparentBC(1.2, 0.8, -0.2, (1.0 - 0.2 * 0.8) / 1.2), ax))
    return grid


def check_semitransparent():
    results = []

    # rate ordering and the footnote identity
    dev_order = 0.0
    dev_id = 0.0
    cases = [
        hk.SemitransparentBC.delta_prime(1.0),
        hk.SemitransparentBC.delta_prime(-2.0),
        hk.SemitransparentBC(2.0, 1.0, 1.0, 1.0),
        hk.SemitransparentBC(0.8, -0.5, 0.4, (1.0 + -0.5 * 0.4) / 0.8),
    ]
    for bc in cases:
        lam_p, lam_m = bc.lambda_pm()
        dev_order = max(dev_order, 0.0 if lam_p > lam_m else 1.0)
        co = st.diagonal_coefficients(bc, 0.7)
        if lam_p != 0.0 and lam_m != 0.0:
            dev_id = max(dev_id, abs(1.0 + co.M_plus / lam_p - co.M_minus / lam_m + 1.0))
    results.append(_check("semitransparent.rate_ordering", dev_order, 0.5))
    results.append(_check("semitransparent.diagonal_identity", dev_id, 1e-12,
                          "1 + M+/L+ - M-/L- = -1 for the corrected image weights"))

    # omega independence of diagonal observables
    cfg = FieldConfig(2, 1.0)
    omega = complex(math.cos(1.1), math.sin(1.1))
    a_, b_, g_, s_ = 1.2, 0.8, -0.2, (1.0 - 0.2 * 0.8) / 1.2
    plain = hk.SemitransparentBC(a_, b_, g_, s_)
    phased = hk.SemitransparentBC(a_, b_, g_, s_, omega)
    dev = abs(st.plane_term(cfg, plain, 0.7) - st.plane_term(cfg, phased, 0.7))
    dev = max(dev, abs(st.large_x_asymptotic(cfg, plain, 3.0) - st.large_x_asymptotic(cfg, phased, 3.0)))
    dev = max(dev, abs(st.spectrum(plain, 1.0).lambda_minus - st.spectrum(phased, 1.0).lambda_minus))
    results.append(_check("semitransparent.omega_independence", dev, 1e-15))

    # oracle equivalence across both families
    dev = _oracle_deviation(st, semitransparent_oracle_grid())
    results.append(_check("semitransparent.oracle_equivalence", dev, 1e-8))

    # free wall is exactly silent
    cfg = FieldConfig(2, 1.0)
    dev = abs(st.plane_term(cfg, hk.SemitransparentBC.free(), 0.9))
    results.append(_check("semitransparent.free_wall_silent", dev, 1e-14))

    # leading small-x coincidence with the reflecting wall for beta != 0
    cfg = FieldConfig(3, 1.0)
    bc = hk.SemitransparentBC.delta_prime(2.0)
    rbc = hk.ReflectingBC.neumann()
    dev = abs(st.small_x_asymptotic(cfg, bc, 0.2) / rf.small_x_asymptotic(cfg, rbc, 0.2) - 1.0)
    results.append(_check("semitransparent.small_x_coincides_reflecting", dev, 1e-15))

    # softening of the pure delta wall; non-pure control stays divergent
    dev, xs = 0.0, np.array([1e-2, 1e-3, 1e-4])
    for d in (2, 3):
        cfg = FieldConfig(d, 1.0)
        soft = hk.SemitransparentBC.delta(1.0)
        vals = np.abs(xs ** (d - 1) * st.plane_term(cfg, soft, xs))
        drop = vals[-1] / vals[0]
        dev = max(dev, drop)  # should fall well below 1
        hard = hk.SemitransparentBC(2.0, 0.0, 1.0, 0.5)
        ratio = (1e-4) ** (d - 1) * st.plane_term(cfg, hard, 1e-4) / (
            (1e-4) ** (d - 1) * st.small_x_asymptotic(cfg, hard, 1e-4)
        )
        dev = max(dev, abs(ratio - 1.0))
    results.append(_check("semitransparent.softening", dev, 0.05,
                          "|x|^(d-1) plane -> 0 for alpha = sigma, nonzero constant otherwise"))

    # strip consistency and Laurent contracts
    walls = (hk.SemitransparentBC.delta(2.0), hk.SemitransparentBC.delta_prime(1.0))
    dev = _strip_deviation(st, [(d, bc, d + 0.5) for bc in walls for d in (1, 2)])
    results.append(_check("semitransparent.strip_consistency", dev, 1e-8))

    dev_even, dev_res, dev_c0 = _laurent_deviations(st, [(d, b) for b in walls for d in (1, 2, 3)])
    results.append(_check("semitransparent.laurent_even_no_pole", dev_even, 1e-8))
    results.append(_check("semitransparent.laurent_residue_bc_independent", dev_res, 1e-6))
    results.append(_check("semitransparent.laurent_c0_vs_closed", dev_c0, 1e-6))

    # massless limit convergence for d >= 2
    dev = _massless_limit_deviation(st, [
        (d, bc) for bc in (hk.SemitransparentBC.delta(1.0), hk.SemitransparentBC.delta_prime(1.0))
        for d in (2, 3)])
    results.append(_check("semitransparent.massless_limit", dev, 1e-3))

    return results


SUITES = {
    "specialfns": check_specialfns,
    "quadrature": check_quadrature,
    "heatkernel": check_heatkernel,
    "reflecting": check_reflecting,
    "semitransparent": check_semitransparent,
}


def run_suite(name):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()


def run_all():
    return [result for suite in SUITES.values() for result in suite()]
