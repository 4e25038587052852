"""Write the benchmark's reference table, ``refs/<workload>.json``.

Run from the repository root, once per change to the input pools (it takes
several minutes on two cores and is not part of a benchmark run):

    python3 perfbench/make_refs.py [--workload NAME]

Every reference comes from a route independent of the production code path:

* plane terms: the nested proper-time oracles (``plane_term_oracle``); the
  closed-form Neumann/Dirichlet faces, the massless slice, rows with
  ``m|x1| < 1e-3`` and any point where the oracle raises get 30-digit
  ``mpmath`` values of the image-sum representation instead;
* free terms: the closed forms, in ``mpmath``;
* Robin kernels: the ``w``-integral form in ``mpmath`` (checked against the
  eigenfunction-expansion oracle ``spectral_oracle_robin``); Dirichlet
  faces: the image closed form in ``mpmath``; semitransparent kernels: a
  superposition of scattering states of the transfer-matrix condition,
  integrated here with ``scipy``;
* ``validate``: the list of check names and their stated tolerances.
"""

import argparse
import cmath
import json
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
from scipy.integrate import quad  # noqa: E402

import workloads as wl  # noqa: E402

mpmath.mp.dps = 30
KAPPA = 1.0
NEAR_WALL_MX = 1e-3


# ---------------------------------------------------------------------------
# image-sum representation, evaluated in mpmath
# ---------------------------------------------------------------------------

def image_terms(wall, x1):
    """Head weight ``A`` and ``(weight, rate)`` image terms of the plane term

        plane = P [A F(nu, 2m|x|) + sum_i w_i 2|x| int_0^inf e^{-2 r_i |x| v} (v+1)^{1-d} F(nu, 2m|x|(v+1)) dv]

    from the wall's couplings on the side of ``x1``, as the module docstrings
    of ``reflecting`` and ``semitransparent`` state them."""
    geometry, p = wl.WALLS[wall]
    side = 1.0 if x1 > 0 else -1.0
    if geometry == "reflecting":
        b = p["b_plus"] if x1 > 0 else p["b_minus"]
        if math.isinf(b):
            return -1.0, []
        return 1.0, ([] if b == 0.0 else [(-2.0 * b, b)])
    a, beta, g, s = p["alpha"], p["beta"], p["gamma"], p["sigma"]
    if beta == 0.0:
        L = (a - s) / (a + s) * side
        c = g / (a + s)
        return L, ([] if c == 0.0 else [(-(1.0 + L) * c, c)])
    root = math.hypot(a - s, 2.0)
    lam_p = (a + s) / (2.0 * beta) + root / (2.0 * abs(beta))
    lam_m = (a + s) / (2.0 * beta) - root / (2.0 * abs(beta))
    sb = math.copysign(1.0, beta)
    terms = []
    for lam, sgn in ((lam_p, 1.0), (lam_m, -1.0)):
        weight = -sb / root * ((a + s) * lam - 2.0 * g - (a - s) * lam * side)
        if weight != 0.0:
            terms.append((sgn * weight, lam))
    return 1.0, terms


def _F(nu, w):
    return w**nu * mpmath.besselk(nu, w)


def plane_mp(wall, d, m, x1):
    """Plane term (``m > 0``) at 30 digits."""
    ax = mpmath.mpf(abs(x1))
    m = mpmath.mpf(m)
    nu = mpmath.mpf(d - 1) / 2
    pref = 1 / (mpmath.mpf(2) ** (mpmath.mpf(3 * d - 1) / 2) * mpmath.pi ** (mpmath.mpf(d + 1) / 2)
                * ax ** (d - 1))
    head, terms = image_terms(wall, x1)
    total = head * _F(nu, 2 * m * ax)
    for weight, rate in terms:
        # unit-rate variable t = 2 (rate + m) |x| v
        big = 2 * (mpmath.mpf(rate) + m) * ax

        def f(t, big=big):
            v = t / big
            return mpmath.exp(-2 * rate * ax * v) * (v + 1) ** (1 - d) * _F(nu, 2 * m * ax * (v + 1))

        integral = mpmath.quad(f, [0, 1, 10, 100, mpmath.inf]) / big
        total += weight * 2 * ax * integral
    return float(pref * total)


def massless_mp(wall, d, x1):
    """``free + plane`` at ``m = 0`` from the incomplete-Gamma closed forms."""
    ax = mpmath.mpf(abs(x1))
    head, terms = image_terms(wall, x1)
    if d == 1:
        val = mpmath.log(2 * KAPPA * ax) - mpmath.euler
        for weight, rate in terms:
            a = 2 * rate * ax
            val -= weight / rate * mpmath.exp(a) * mpmath.gammainc(0, a)
        return float(val / (2 * mpmath.pi))
    amp = mpmath.gamma(mpmath.mpf(d - 1) / 2) / ((4 * mpmath.pi) ** (mpmath.mpf(d + 1) / 2) * ax ** (d - 1))
    bracket = mpmath.mpf(head)
    for weight, rate in terms:
        a = 2 * rate * ax
        bracket += weight * 2 * ax * mpmath.exp(a) * a ** (d - 2) * mpmath.gammainc(2 - d, a)
    return float(amp * bracket)


def free_mp(d, m):
    m = mpmath.mpf(m)
    denom = (4 * mpmath.pi) ** (mpmath.mpf(d + 1) / 2) * mpmath.gamma(mpmath.mpf(d + 1) / 2)
    if d % 2 == 0:
        return float((-1) ** (d // 2) * mpmath.pi * m ** (d - 1) / denom)
    harmonic = sum(mpmath.mpf(1) / k for k in range(1, (d - 1) // 2 + 1))
    return float((-1) ** ((d - 1) // 2) * m ** (d - 1) * (harmonic + 2 * mpmath.log(2 * KAPPA / m)) / denom)


# ---------------------------------------------------------------------------
# plane references: oracle first, mpmath where it cannot serve
# ---------------------------------------------------------------------------

def plane_reference(wall, d, m, x1):
    if wall in wl.CLOSED_FORM_WALLS or m * abs(x1) < NEAR_WALL_MX:
        return plane_mp(wall, d, m, x1)
    from vacpol import reflecting, semitransparent
    from vacpol.core import FieldConfig
    from vacpol.errors import NumericalFailureError
    from vacpol import heatkernel

    mod = reflecting if wl.WALLS[wall][0] == "reflecting" else semitransparent
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return mod.plane_term_oracle(FieldConfig(d, m), wl.make_bc(wall, heatkernel), x1)
    except NumericalFailureError:
        return plane_mp(wall, d, m, x1)


def profile_ref(case):
    xs = wl.grid_xs(*case["grid"], np)
    if case["mass"] == 0.0:
        return {"free": 0.0, "plane": [massless_mp(case["wall"], case["d"], x) for x in xs]}
    return {"free": free_mp(case["d"], case["mass"]),
            "plane": [plane_reference(case["wall"], case["d"], case["mass"], x) for x in xs]}


def renormalize_ref(case):
    return {"free": free_mp(case["d"], wl.MASS),
            "plane": plane_reference(case["wall"], case["d"], wl.MASS, case["x1"])}


# ---------------------------------------------------------------------------
# kernel references
# ---------------------------------------------------------------------------

def scattering_kernel(wall, tau, x, y):
    """Massless semitransparent kernel as a superposition of left- and
    right-incident scattering states of ``psi(0+) = T psi(0-)``; valid when
    the wall binds no state."""
    _, p = wl.WALLS[wall]
    w = cmath.exp(1j * p.get("omega", 0.0))
    t11, t12, t21, t22 = w * p["alpha"], w * p["beta"], w * p["gamma"], w * p["sigma"]

    def states(k):
        ik = 1j * k
        a, c = t11 - t12 * ik, t21 - t22 * ik
        det = a * (-ik) + c  # det [[a, -1], [c, -ik]]
        # left-incident: a r - t = -(t11 + t12 ik), c r - ik t = -(t21 + t22 ik)
        e1, e2 = -(t11 + t12 * ik), -(t21 + t22 * ik)
        r1 = (e1 * (-ik) + e2) / det
        tr1 = (a * e2 - c * e1) / det
        # right-incident: a t - r = 1, c t - ik r = -ik
        tr2 = -2.0 * ik / det
        r2 = (a * (-ik) - c * 1.0) / det
        return r1, tr1, tr2, r2

    def psi_left(k, xx, r, t):
        return cmath.exp(1j * k * xx) + r * cmath.exp(-1j * k * xx) if xx < 0 else t * cmath.exp(1j * k * xx)

    def psi_right(k, xx, r, t):
        return cmath.exp(-1j * k * xx) + r * cmath.exp(1j * k * xx) if xx > 0 else t * cmath.exp(-1j * k * xx)

    def integrand(k):
        r1, t1, t2, r2 = states(k)
        val = psi_left(k, x, r1, t1) * psi_left(k, y, r1, t1).conjugate()
        val += psi_right(k, x, r2, t2) * psi_right(k, y, r2, t2).conjugate()
        return val * math.exp(-tau * k * k) / (2.0 * math.pi)

    kmax = 12.0 / math.sqrt(tau)
    opts = dict(limit=1000, epsabs=1e-14, epsrel=1e-12)
    with warnings.catch_warnings():
        # the absolute target sits at the roundoff floor of small kernels
        warnings.simplefilter("ignore")
        re, _ = quad(lambda k: integrand(k).real, 0.0, kmax, **opts)
        im, _ = quad(lambda k: integrand(k).imag, 0.0, kmax, **opts)
    return complex(re, im)


def kernel_reference(wall, m, tau, x, y):
    geometry, p = wl.WALLS[wall]
    shift = math.exp(-m * m * tau)
    if geometry == "semitransparent":
        value = shift * scattering_kernel(wall, tau, x, y)
        return [value.real, value.imag]
    if x * y < 0.0:
        return 0.0
    b = p["b_plus"] if x > 0 else p["b_minus"]
    return half_line_kernel_mp(b, m, tau, abs(x), abs(y))


def half_line_kernel_mp(b, m, tau, x, y):
    """Half-line kernel at 30 digits: the image closed form for a Dirichlet
    face, else the Robin ``w``-form

        g(x-y) + g(x+y) - (b / sqrt(pi tau)) int_0^inf e^{-b w - (w+x+y)^2/(4 tau)} dw."""
    tau, x, y = mpmath.mpf(tau), mpmath.mpf(x), mpmath.mpf(y)

    def g(u):
        return mpmath.exp(-u * u / (4 * tau)) / mpmath.sqrt(4 * mpmath.pi * tau)

    if math.isinf(b):
        value = g(x - y) - g(x + y)
    else:
        value = g(x - y) + g(x + y)
        if b != 0.0:
            width = mpmath.sqrt(tau)
            integral = mpmath.quad(lambda w: mpmath.exp(-b * w - (w + x + y) ** 2 / (4 * tau)),
                                   [0, width, 10 * width, mpmath.inf])
            value -= b / mpmath.sqrt(mpmath.pi * tau) * integral
    return float(mpmath.exp(-m * m * tau) * value)


def heat_kernel_ref(case):
    values = [kernel_reference(case["wall"], wl.KERNEL_MASS, tau, x, y)
              for tau in case["taus"] for x in case["xs"] for y in case["ys"]]
    return {"values": values}


def validate_ref():
    from vacpol.validation import run_all

    return {"validate/all": {"checks": [{"name": r.name, "tolerance": r.tolerance}
                                        for r in run_all()]}}


REF_FUNCS = {"profile": profile_ref, "renormalize": renormalize_ref, "heat-kernel": heat_kernel_ref}


def _one(item):
    workload, case = item
    return case["id"], REF_FUNCS[workload](case)


def self_check():
    """The mpmath image-sum route must agree with the oracle where both run."""
    from vacpol import heatkernel, reflecting, semitransparent
    from vacpol.core import FieldConfig

    for wall, d, x1 in (("robin_2", 3, 0.5), ("robin_m0.4", 4, -0.3), ("delta_minus", 5, 0.2),
                        ("delta_prime", 2, 0.7), ("general", 3, -0.4), ("dirichlet", 6, 0.1)):
        mod = reflecting if wl.WALLS[wall][0] == "reflecting" else semitransparent
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            oracle = mod.plane_term_oracle(FieldConfig(d, wl.MASS), wl.make_bc(wall, heatkernel), x1)
        exact = plane_mp(wall, d, wl.MASS, x1)
        if not abs(oracle - exact) <= 1e-9 * abs(exact):
            raise SystemExit(f"mpmath and oracle disagree for {wall} d={d} x1={x1}: {exact} vs {oracle}")
    for b, x, y in ((1.5, 0.7, 1.1), (-0.4, 0.3, 1.6)):
        exact = half_line_kernel_mp(b, 0.5, 0.3, x, y)
        spectral = heatkernel.spectral_oracle_robin(heatkernel.HeatQuery(0.3, x, y), b, 0.5)
        if not abs(spectral - exact) <= 1e-9 * abs(exact):
            raise SystemExit(f"mpmath w-form and spectral Robin kernel disagree for b={b}: {exact} vs {spectral}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all", "validate", *REF_FUNCS), default="all")
    args = parser.parse_args()
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    self_check()
    names = ("profile", "renormalize", "heat-kernel", "validate") if args.workload == "all" else (args.workload,)
    for name in names:
        if name == "validate":
            table = validate_ref()
        else:
            items = [(name, case) for case in wl.POOLS[name]()]
            ctx = get_context("spawn")
            with ProcessPoolExecutor(mp_context=ctx) as pool:
                table = dict(pool.map(_one, items, chunksize=4))
        path = os.path.join(HERE, "refs", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(sorted(table.items())), fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {len(table)} cases -> {os.path.relpath(path)}", flush=True)


if __name__ == "__main__":
    main()
