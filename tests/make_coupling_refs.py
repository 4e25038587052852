"""Write ``tests/coupling_refs.json``: 30-digit plane terms of the
coupling-integral test set, for ``tests/test_coupling_integral.py``.

    python tests/make_coupling_refs.py [--jobs N]

The set has 146 plane terms at ``m = 1``:

* ``d`` in {1, 2, 3, 4, 7, 9, 11} x ``x1`` in {1e-10, 1e-8, 1e-6, 0.05, 0.3,
  1.4, 5} x {Robin ``b = 2``, delta-prime ``beta = 1``};
* the threshold walls Robin ``b = -(1 - eps)`` and delta
  ``gamma = -2(1 - eps)`` for ``eps`` in {1e-3, 1e-6, 1e-8, 1e-10}, each at
  ``(d, x1)`` in (1, 1), (2, 1), (3, 1), (9, 0.3), (9, 5), (11, 1).

Each reference is the wall's image sum in mpmath at 40 working digits,
written out to 30: ``P(d, x1) [head F(nu, 2|x1|) + sum weight |x1| I(rate)]``
with ``F(nu, w) = w^nu K_nu(w)`` from ``mpmath.besselk`` and each coupling
integral ``I(rate) = int_0^inf dv e^{-2 rate |x1| v} (v+1)^{1-d} F(nu, 2|x1|(v+1))``
by ``mpmath.quad`` with decade breakpoints from 1e-3 out to ``60/c``,
``c = 2(rate + 1)|x1|``; the tail beyond, below ``e^-60`` of the integral,
is left out.  The images are written here from the walls' closed forms, not
taken from the library: a Robin face ``b`` is head 1 and ``(-4b, b)``; the
delta-prime wall ``beta = 1`` has rates ``Lambda_+- = 2, 0`` and weights
``M_+- = -2, 0``, so head 1 and ``(-4, 2)``; the delta wall with
``alpha = sigma = 1`` is head 0 and ``(-2c, c)``, ``c = gamma/2``.  Each
coupling is the double the test passes, taken exactly.
"""

import argparse
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "coupling_refs.json")

DIMENSIONS = (1, 2, 3, 4, 7, 9, 11)
DISTANCES = (1e-10, 1e-8, 1e-6, 0.05, 0.3, 1.4, 5.0)
EPSILONS = (1e-3, 1e-6, 1e-8, 1e-10)
THRESHOLD_POINTS = ((1, 1.0), (2, 1.0), (3, 1.0), (9, 0.3), (9, 5.0), (11, 1.0))


def cases():
    """(wall kind, coupling, d, x1) of every case; the coupling is the double
    handed to ``ReflectingBC.robin`` or ``SemitransparentBC.delta(_prime)``."""
    out = [(kind, coupling, d, x1) for kind, coupling in (("robin", 2.0), ("delta_prime", 1.0))
           for d in DIMENSIONS for x1 in DISTANCES]
    for eps in EPSILONS:
        for kind, coupling in (("robin", -(1.0 - eps)), ("delta", -2.0 * (1.0 - eps))):
            out.extend((kind, coupling, d, x1) for d, x1 in THRESHOLD_POINTS)
    return out


def images(kind, coupling):
    g = mpmath.mpf(coupling)
    if kind == "robin":
        return 1, [(-4 * g, g)]
    if kind == "delta_prime":
        assert coupling == 1.0
        return 1, [(mpmath.mpf(-4), mpmath.mpf(2))]
    c = g / 2
    return 0, [(-2 * c, c)]


def coupling_integral(d, ax, rate):
    nu = mpmath.mpf(d - 1) / 2
    c = 2 * (rate + 1) * ax

    def f(v):
        w = 2 * ax * (v + 1)
        return mpmath.exp(-2 * rate * ax * v) * (v + 1) ** (1 - d) * w**nu * mpmath.besselk(nu, w)

    end = 60 / c
    points = [mpmath.mpf(0)]
    j = -3
    while mpmath.mpf(10) ** j < end:
        points.append(mpmath.mpf(10) ** j)
        j += 1
    points.append(end)
    return mpmath.quad(f, points)


def plane(case):
    kind, coupling, d, x1 = case
    mpmath.mp.dps = 40
    ax = mpmath.mpf(abs(x1))
    head, terms = images(kind, coupling)
    nu = mpmath.mpf(d - 1) / 2
    bracket = head * (2 * ax) ** nu * mpmath.besselk(nu, 2 * ax)
    for weight, rate in terms:
        bracket += weight * ax * coupling_integral(d, ax, rate)
    prefactor = 1 / (mpmath.mpf(2) ** (mpmath.mpf(3 * d - 1) / 2)
                     * mpmath.pi ** (mpmath.mpf(d + 1) / 2) * ax ** (d - 1))
    return mpmath.nstr(prefactor * bracket, 30)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    todo = cases()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
        refs = list(pool.map(plane, todo))
    rows = [{"kind": kind, "coupling": coupling, "d": d, "x1": x1, "plane": ref}
            for (kind, coupling, d, x1), ref in zip(todo, refs)]
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"m": 1.0, "dps": 30, "cases": rows}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} cases to {os.path.relpath(OUT)}")


if __name__ == "__main__":
    main()
