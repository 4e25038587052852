"""Write ``tests/corner_refs.json``: 40-digit references of the even-``d``
plane term at the corners of its range, for ``tests/test_even_plane.py``.

    python tests/make_corner_refs.py

The points:

* the far-wall band, where ``e^{-2m|x1|}`` alone is below the normal range:
  the Robin face ``b = 2m`` and the general semitransparent wall
  ``(alpha, beta, gamma, sigma) = (2, 1, 1, 1)`` at ``d`` in {4, 6, 8, 10},
  ``m`` in {1, 1e3, 1e6} and ``2m|x1|`` in {700, 740, 780};
* subnormal couplings: pure delta walls ``(1, 0, gamma, 1)`` with ``gamma``
  from 7e-318 to 1e-310, one point at each even ``d``, where the large
  prefactor ``|x1|^{2-d}`` lifts the plane term back into the normal range;
* the massless value of the general wall at ``d = 6``, ``x1 = -1.4``, a
  golden key whose head and images cancel 650-fold.

Each plane term is the closed sum of DLMF 10.49.12 and 8.19.3 in mpmath at
50 working digits, written out to 40: with ``n = d/2 - 1``, ``w0 = 2m|x1|``
and ``c = 2(rate+m)|x1|``,

    (8 pi)^{-d/2} |x1|^{1-d} e^{-w0} sum_{k=0}^{n} c_k w0^{n-k}
        [head + sum weight |x1| e^c E_{d/2+k}(c)],

``c_k = (n+k)!/(k! (n-k)! 2^k)``, ``E_p`` from ``mpmath.expint``.  The
massless value (``d >= 2``) is ``Gamma((d-1)/2) / ((4 pi)^{(d+1)/2}
|x1|^{d-1}) [head + sum weight |x1| e^w E_{d-1}(w)]`` with ``w = 2 rate
|x1|``.  The wall -> ``(head, images)`` map is the one of
``tests/make_cancelling_refs.py``; nothing is taken from the library.
"""

import json
import os

import mpmath

from make_cancelling_refs import images

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "corner_refs.json")

GENERAL = [2.0, 1.0, 1.0, 1.0]
# (d, m, gamma, x1) of each subnormal delta coupling
SUBNORMAL = ((2, 0.2, 4.45e-313, -8.33e-8), (4, 0.2, 4.45e-313, -8.33e-8),
             (6, 0.7, 1e-310, 3e-6), (8, 1.3, 2.5e-315, -2e-5), (10, 0.5, 7e-318, 1e-4))


def points():
    """``(quantity, fields, d, m, x1)`` of every reference; ``fields`` name the
    wall as ``make_cancelling_refs.images`` takes it."""
    out = []
    for d in (4, 6, 8, 10):
        for m in (1.0, 1e3, 1e6):
            for w0 in (700.0, 740.0, 780.0):
                x1 = w0 / (2.0 * m)
                out.append(("plane_term", {"b": 2.0 * m}, d, m, x1))
                out.append(("plane_term", {"transfer": GENERAL}, d, m, -x1))
    out += [("plane_term", {"transfer": [1.0, 0.0, gamma, 1.0]}, d, m, x1)
            for d, m, gamma, x1 in SUBNORMAL]
    out.append(("massless", {"transfer": GENERAL}, 6, 0.0, -1.4))
    return out


def closed_sum(head, terms, d, m, x1):
    """The plane term at even ``d`` as the sum above, at mpmath's working precision."""
    ax, m = mpmath.mpf(abs(x1)), mpmath.mpf(m)
    n = d // 2 - 1
    w0 = 2 * m * ax
    total = 0
    for k in range(n + 1):
        part = head
        for weight, rate in terms:
            c = 2 * (rate + m) * ax
            part += weight * ax * mpmath.exp(c) * mpmath.expint(d // 2 + k, c)
        coeff = mpmath.factorial(n + k) / (mpmath.factorial(k) * mpmath.factorial(n - k) * 2**k)
        total += coeff * w0 ** (n - k) * part
    return (8 * mpmath.pi) ** (-mpmath.mpf(d) / 2) * ax ** (1 - d) * mpmath.exp(-w0) * total


def massless(head, terms, d, x1):
    """The massless value at ``d >= 2``, as above."""
    ax = mpmath.mpf(abs(x1))
    bracket = head
    for weight, rate in terms:
        w = 2 * rate * ax
        bracket += weight * ax * mpmath.exp(w) * mpmath.expint(d - 1, w)
    return (mpmath.gamma(mpmath.mpf(d - 1) / 2) * bracket
            / ((4 * mpmath.pi) ** (mpmath.mpf(d + 1) / 2) * ax ** (d - 1)))


def main():
    mpmath.mp.dps = 50
    rows = []
    for quantity, fields, d, m, x1 in points():
        head, terms = images(fields, x1)
        value = (closed_sum(head, terms, d, m, x1) if quantity == "plane_term"
                 else massless(head, terms, d, x1))
        rows.append({"quantity": quantity, **fields, "d": d, "m": m, "x1": x1,
                     "ref": mpmath.nstr(value, 40)})
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"dps": 40, "points": rows}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} references to {os.path.relpath(OUT)}")


if __name__ == "__main__":
    main()
