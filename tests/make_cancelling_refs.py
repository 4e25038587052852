"""Write ``tests/cancelling_refs.json``: 40-digit references of the golden-grid
points whose coupling integral cancels strongly against the head term, for
``test_cancelling_golden_points_against_mpmath`` in
``tests/test_highprecision_crosscheck.py``.

    python tests/make_cancelling_refs.py

The 16 points sit at ``m = 1`` (``kappa = 1``).  The plane terms (also the
ones ``renormalize_at_zero`` returns) are those of Robin ``b = 2`` at d = 5,
``x1 = +-1.4``; of the Dirichlet/Robin wall's ``b = 2`` face at d = 5,
``x1 = -1.4``; of the ``(1.5, -0.4)`` wall's ``b = 1.5`` face at d = 1,
``x1 = 0.3``, d = 3, ``x1 = 1.4`` and d = 9, ``x1 = 5``; and of the general
semitransparent wall ``(alpha, beta, gamma, sigma) = (2, 1, 1, 1)`` at d = 11,
``x1 = -5``.  The regularized polarization is that of the ``(1.5, -0.4)``
wall at ``x1 = 0.05`` for ``(d, u) = (1, -0.5), (2, 0.5)``.  There the
coupling integrals cancel the head term by up to 1800x, so the values carry
the quadrature's target and the rounding of each term amplified.

Each reference is the continued representation in mpmath at 50 working
digits, written out to 40: the plane part ``2^{(u-3d+1)/2} |x1|^{u-d+1}
/ (pi^{d/2} Gamma((u+1)/2)) [head F(nu, 2|x1|) + sum weight |x1| I(rate)]``
with ``nu = (d-1-u)/2``, ``F(nu, w) = w^nu K_nu(w)`` from ``mpmath.besselk``
and ``I(rate) = int_0^inf dv e^{-2 rate |x1| v} (v+1)^{u+1-d}
F(nu, 2|x1|(v+1))`` by ``mpmath.quad``, plus, for the regularized
polarization, the free part ``Gamma((u-d+1)/2) / (2^{d+1} pi^{d/2}
Gamma((u+1)/2))``.  A Robin face ``b`` is head 1 with the image
``(-4b, b)``.  On one side of a semitransparent wall with ``beta != 0`` the
head is 1 and the images are ``(2 M(L+), L+)`` and ``(-2 M(L-), L-)``: the
rates ``L+ > L-`` are the roots of ``beta L^2 - (alpha+sigma) L + gamma``,
and ``M(L) = -sgn(beta) ((alpha+sigma) L - 2 gamma - (alpha-sigma) sgn(x1) L)
/ sqrt((alpha-sigma)^2 + 4)``.  With ``beta = 0`` (the delta family) the head
is ``L = (alpha-sigma)/(alpha+sigma) sgn(x1)`` and the image is
``(-2(1+L) c, c)``, ``c = gamma/(alpha+sigma)``.  Nothing is taken from the
library; ``tests/make_corner_refs.py`` uses the same map.
"""

import json
import os

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "cancelling_refs.json")

# the golden walls: the Robin couplings (b_plus, b_minus) of a reflecting
# wall, where a Dirichlet face is None and no point sits on one, or the
# transfer matrix (alpha, beta, gamma, sigma) of a semitransparent one
WALLS = {"robin_2": {"b": (2.0, 2.0)}, "dirichlet_robin": {"b": (None, 2.0)},
         "robin_pm": {"b": (1.5, -0.4)}, "general": {"transfer": (2.0, 1.0, 1.0, 1.0)}}
POINTS = [
    (f"{quantity}/{wall}/d{d}/x{x1!r}", quantity, wall, d, x1, None)
    for quantity in ("plane_term", "renormalize")
    for wall, d, x1 in (("robin_2", 5, -1.4), ("robin_2", 5, 1.4), ("dirichlet_robin", 5, -1.4),
                        ("robin_pm", 1, 0.3), ("robin_pm", 3, 1.4), ("robin_pm", 9, 5.0),
                        ("general", 11, -5.0))
] + [
    (f"regularized/robin_pm/d{d}/x0.05/u{u!r}", "regularized", "robin_pm", d, 0.05, u)
    for d, u in ((1, -0.5), (2, 0.5))
]


def wall_fields(wall, x1):
    """The JSON fields naming a point's wall: its face ``b``, or its ``transfer`` matrix."""
    if "b" in WALLS[wall]:
        return {"b": WALLS[wall]["b"][0 if x1 > 0 else 1]}
    return {"transfer": list(WALLS[wall]["transfer"])}


def images(fields, x1):
    """``(head, [(weight, rate), ...])`` of the wall on the side of ``x1``."""
    if "b" in fields:
        b = mpmath.mpf(fields["b"])
        return 1, [(-4 * b, b)]
    alpha, beta, gamma, sigma = (mpmath.mpf(p) for p in fields["transfer"])
    if beta == 0:
        head = (alpha - sigma) / (alpha + sigma) * mpmath.sign(x1)
        c = gamma / (alpha + sigma)
        return head, [(-2 * (1 + head) * c, c)]
    root = mpmath.sqrt((alpha - sigma) ** 2 + 4)
    rates = sorted(((alpha + sigma + s * root) / (2 * beta) for s in (1, -1)), reverse=True)
    skew = (alpha - sigma) * mpmath.sign(x1)

    def weight(rate):
        return -mpmath.sign(beta) * ((alpha + sigma) * rate - 2 * gamma - skew * rate) / root

    return 1, [(2 * weight(rates[0]), rates[0]), (-2 * weight(rates[1]), rates[1])]


def _weighted_bessel(nu, w):
    return w**nu * mpmath.besselk(nu, w)


def _bracket(head, terms, d, ax, u):
    """``head F(nu, 2|x1|) + sum weight |x1| I(rate)`` at ``m = 1``."""
    ax, u = mpmath.mpf(ax), mpmath.mpf(u)
    nu = (d - 1 - u) / 2
    total = head * _weighted_bessel(nu, 2 * ax)
    for weight, rate in terms:
        scale = 2 * (rate + 1) * ax

        def f(t, rate=rate, scale=scale):
            v = t / scale
            return (mpmath.exp(-2 * rate * ax * v) * (v + 1) ** (u + 1 - d)
                    * _weighted_bessel(nu, 2 * ax * (v + 1)))

        total += weight * ax * mpmath.quad(f, [0, mpmath.inf]) / scale
    return total


def reference(quantity, fields, d, x1, u):
    u = mpmath.mpf(0 if u is None else u)
    ax = mpmath.mpf(abs(x1))
    head, terms = images(fields, x1)
    plane = (2 ** ((u - 3 * d + 1) / 2) * ax**u
             / (mpmath.pi ** (mpmath.mpf(d) / 2) * mpmath.gamma((u + 1) / 2) * ax ** (d - 1))
             * _bracket(head, terms, d, ax, u))
    if quantity != "regularized":
        return plane
    free = mpmath.gamma((u - d + 1) / 2) / (2 ** (d + 1) * mpmath.pi ** (mpmath.mpf(d) / 2)
                                            * mpmath.gamma((u + 1) / 2))
    return free + plane


def main():
    mpmath.mp.dps = 50
    rows = []
    for key, quantity, wall, d, x1, u in POINTS:
        fields = wall_fields(wall, x1)
        ref = mpmath.nstr(reference(quantity, fields, d, x1, u), 40)
        rows.append({"key": key, "quantity": quantity, **fields, "d": d, "x1": x1, "u": u,
                     "ref": ref})
        print(key, ref)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"m": 1.0, "kappa": 1.0, "dps": 40, "points": rows}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} references to {os.path.relpath(OUT)}")


if __name__ == "__main__":
    main()
