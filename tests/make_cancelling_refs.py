"""Write ``tests/cancelling_refs.json``: 30-digit references of the golden-grid
points whose coupling integral cancels strongly against the head term, for
``test_cancelling_golden_points_against_mpmath`` in
``tests/test_highprecision_crosscheck.py``.

    python tests/make_cancelling_refs.py

The 12 points are Robin faces at ``m = 1`` (``kappa = 1``): the plane terms
(also the ones ``renormalize_at_zero`` returns) of Robin ``b = 2`` at d = 5,
``x1 = +-1.4``; of the Dirichlet/Robin wall's ``b = 2`` face at d = 5,
``x1 = -1.4``; of the ``(1.5, -0.4)`` wall's ``b = 1.5`` face at d = 3,
``x1 = 1.4`` and d = 9, ``x1 = 5``; and its regularized polarization at
``x1 = 0.05`` for ``(d, u) = (1, -0.5), (2, 0.5)``.  There the coupling
integral cancels the head term by up to 1800x, so the values carry the
quadrature's target amplified.

Each reference is the continued representation in mpmath at 40 working
digits, written out to 30: the plane part ``2^{(u-3d+1)/2} |x1|^{u-d+1}
/ (pi^{d/2} Gamma((u+1)/2)) [F(nu, 2|x1|) - 4b|x1| I(b)]`` with
``nu = (d-1-u)/2``, ``F(nu, w) = w^nu K_nu(w)`` from ``mpmath.besselk`` and
``I(b) = int_0^inf dv e^{-2b|x1|v} (v+1)^{u+1-d} F(nu, 2|x1|(v+1))`` by
``mpmath.quad``, plus, for the regularized polarization, the free part
``Gamma((u-d+1)/2) / (2^{d+1} pi^{d/2} Gamma((u+1)/2))``.  Nothing is taken
from the library.
"""

import json
import os

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "cancelling_refs.json")

# the Robin couplings (b_plus, b_minus) of the golden walls; a Dirichlet face
# is None, and no point sits on one
WALLS = {"robin_2": (2.0, 2.0), "dirichlet_robin": (None, 2.0), "robin_pm": (1.5, -0.4)}
POINTS = [
    (f"{quantity}/{wall}/d{d}/x{x1!r}", quantity, wall, d, x1, None)
    for quantity in ("plane_term", "renormalize")
    for wall, d, x1 in (("robin_2", 5, -1.4), ("robin_2", 5, 1.4), ("dirichlet_robin", 5, -1.4),
                        ("robin_pm", 3, 1.4), ("robin_pm", 9, 5.0))
] + [
    (f"regularized/robin_pm/d{d}/x0.05/u{u!r}", "regularized", "robin_pm", d, 0.05, u)
    for d, u in ((1, -0.5), (2, 0.5))
]


def _weighted_bessel(nu, w):
    return w**nu * mpmath.besselk(nu, w)


def _robin_bracket(b, d, ax, u):
    """``F(nu, 2|x1|) - 4b |x1| I(b)`` of a Robin face ``b`` at ``m = 1``."""
    ax, u, rate = mpmath.mpf(ax), mpmath.mpf(u), mpmath.mpf(b)
    nu = (d - 1 - u) / 2
    scale = 2 * (rate + 1) * ax

    def f(t):
        v = t / scale
        return mpmath.exp(-2 * rate * ax * v) * (v + 1) ** (u + 1 - d) * _weighted_bessel(nu, 2 * ax * (v + 1))

    return _weighted_bessel(nu, 2 * ax) - 4 * rate * ax * mpmath.quad(f, [0, mpmath.inf]) / scale


def reference(quantity, b, d, ax, u):
    u = mpmath.mpf(0 if u is None else u)
    ax = mpmath.mpf(ax)
    plane = (2 ** ((u - 3 * d + 1) / 2) * ax**u
             / (mpmath.pi ** (mpmath.mpf(d) / 2) * mpmath.gamma((u + 1) / 2) * ax ** (d - 1))
             * _robin_bracket(b, d, ax, u))
    if quantity != "regularized":
        return plane
    free = mpmath.gamma((u - d + 1) / 2) / (2 ** (d + 1) * mpmath.pi ** (mpmath.mpf(d) / 2)
                                            * mpmath.gamma((u + 1) / 2))
    return free + plane


def main():
    mpmath.mp.dps = 40
    rows = []
    for key, quantity, wall, d, x1, u in POINTS:
        b = WALLS[wall][0 if x1 > 0 else 1]
        ref = mpmath.nstr(reference(quantity, b, d, abs(x1), u), 30)
        rows.append({"key": key, "quantity": quantity, "b": b, "d": d, "x1": x1, "u": u, "ref": ref})
        print(key, ref)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"m": 1.0, "kappa": 1.0, "dps": 30, "points": rows}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} references to {os.path.relpath(OUT)}")


if __name__ == "__main__":
    main()
