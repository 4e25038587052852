r"""Special functions for the vacuum-polarization formulas.

Everything downstream is expressed through four ingredients:

* the weighted modified Bessel function of the second kind
  ``w**nu * K_nu(w)`` (finite and nonzero at ``w = 0`` for ``nu > 0``): at
  whole and half-integer orders from ``scipy.special.k0e`` / ``k1e`` or the
  closed half orders and an upward recurrence, at every other order from
  ``scipy.special.kve``, with closed forms where neither serves;
* the upper incomplete Gamma function ``Gamma(a, z)`` for ``a <= 2``,
  including negative integer ``a``, from ``scipy.special`` (``exp1``,
  ``expn``, ``gammaincc``) at small arguments and a continued fraction at
  large ones, where ``exp(w) * expn(n, w)`` overflows past ``w ~ 709``;
* the error function and the scaled ``erfcx`` (libm and ``scipy.special``);
* harmonic numbers and the Euler-Mascheroni constant.

Accuracy targets (verified against 30-digit reference values in
``tests/test_highprecision_crosscheck.py``):

==========================  =======================================  =========
function                    domain                                   rel. err
==========================  =======================================  =========
``bessel_k_weighted``       ``|nu| <= 50``, every ``w > 0`` whose    <= 1e-12
                            value is a normal double
``upper_gamma``             ``a in [-20, 2]``, ``z > 0``             <= 1e-10
``upper_gamma_scaled``      ``n in 0..9``, ``w >= 0``                <= 1e-11
``erf`` / ``erfc``          all finite arguments (libm)              <= 1e-14
==========================  =======================================  =========

All functions are pure and stateless; concurrent calls are safe.
"""

import math
import sys

import numpy as np
from scipy.special import erfcx as _erfcx
from scipy.special import exp1, expn, exprel, gammaincc, k0e, k1e, kve

from .errors import ParameterError

__all__ = [
    "EULER_GAMMA",
    "bessel_k_weighted",
    "bessel_k_weighted_scaled",
    "upper_gamma",
    "upper_gamma_scaled",
    "erf",
    "erfc",
    "erfcx",
    "harmonic_number",
]

#: Euler-Mascheroni constant, double precision.
EULER_GAMMA = 0.5772156649015329

_MAX_ORDER = 50.0

# kve turns nan above about 1.07e9; Hankel's expansion takes over here.
_HANKEL_ARG = 1e9

# A small argument at which kve is still finite for every order below 1/2.
_KVE_ANCHOR = 1e-300

# F(1/2, w) e^w = w^(1/2) K_(1/2)(w) e^w, the same at every w
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)

# The continued fraction's stop: a step within one ulp of 1.
_EPS = sys.float_info.epsilon

erf = math.erf
erfc = math.erfc


def erfcx(x):
    """Scaled complementary error function ``exp(x**2) * erfc(x)``, stable for
    arbitrarily large positive ``x`` (``scipy.special.erfcx``)."""
    return float(_erfcx(x))


def harmonic_number(ell):
    """H_ell = sum_{j=1}^{ell} 1/j, with H_0 = 0."""
    if ell < 0 or ell != int(ell):
        raise ParameterError(f"harmonic_number needs a non-negative integer, got {ell}")
    return sum(1.0 / j for j in range(1, int(ell) + 1))


# ---------------------------------------------------------------------------
# weighted Bessel K
# ---------------------------------------------------------------------------

def _small_w_scaled(nu, w):
    # e^w w^nu K_nu(w), nu >= 0, where kve overflows: the true K is past
    # double range (large nu), or w is below kve's own floor near 2e-305.
    # The leading two terms of the small-w series are exact to double
    # precision there.
    if nu < 0.5:
        # Only below the floor.  Up to O(w^2), w^nu K_nu = a + b w^(2 nu), so
        # step from the anchor with b (w^(2nu) - w1^(2nu)) in a form that
        # stays finite and free of cancellation down to nu = 0.
        log_ratio = math.log(w / _KVE_ANCHOR)
        step = (2.0**-nu * math.gamma(1.0 - nu) * _KVE_ANCHOR ** (2.0 * nu)
                * log_ratio * float(exprel(2.0 * nu * log_ratio)))
        return float(kve(nu, _KVE_ANCHOR)) * _KVE_ANCHOR**nu - step
    # the w^2 term matters near nu = 50, where kve overflows below w ~ 2.5e-5
    lead = 2.0 ** (nu - 1.0) * math.gamma(nu) * math.exp(w)
    return lead * (1.0 - w * w / (4.0 * nu - 4.0)) if nu > 1.0 else lead


def _exact_order_scaled(order, w):
    # e^w w^n K_n(w) over the array w for a whole or half-integer n = order >= 0:
    # k0e and k1e, or the closed half orders (DLMF 10.39.2), then the upward
    # recurrence F(n+1) = 2n F(n) + w^2 F(n-1) (DLMF 10.29.1), whose terms are
    # all positive, so no step cancels.  w (w F) does not overflow where w^2
    # alone would.  inf or nan where k1e or k0e fail at tiny w, or past range.
    if order == 0.0:
        return k0e(w)
    if order == 0.5:
        return np.full(w.shape, _SQRT_HALF_PI)
    if order.is_integer():
        f1, n = w * k1e(w), 1.0
        if order == 1.0:
            return f1
        f0 = k0e(w)
    else:
        f0, f1, n = np.full(w.shape, _SQRT_HALF_PI), _SQRT_HALF_PI * (1.0 + w), 1.5
    while n < order:
        f0, f1 = f1, 2.0 * n * f1 + w * (w * f0)
        n += 1.0
    return f1


def _k_weighted_scaled(nu, w):
    # e^w w^nu K_nu(w) over the array w, K even in nu; inf past double range.
    # Whole and half-integer orders take the recurrence where it is finite,
    # and the kve route below where it is not
    order = abs(float(nu))
    if not (2.0 * order).is_integer():
        return _kve_weighted_scaled(nu, w)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _exact_order_scaled(order, w)
        if nu < 0.0:
            # the weight w^(2 nu) in two factors: as one power it underflows
            # where the product need not
            half = w**nu
            value = value * half * half
        rest = ~np.isfinite(value)
    if order == 0.0:
        # k0e halves w, which rounds where w is subnormal
        rest |= w < sys.float_info.min
    if rest.any():
        value[rest] = _kve_weighted_scaled(nu, w[rest])
    return value


def _kve_weighted_scaled(nu, w):
    # e^w w^nu K_nu(w) over the array w from kve, K even in nu; inf past double range
    order = abs(nu)
    with np.errstate(over="ignore", invalid="ignore"):
        k = kve(order, w)
        value = k * w**nu
        if np.isfinite(value).all() and w.max(initial=0.0) <= _HANKEL_ARG:
            return value
        split = np.isinf(value) & np.isfinite(k)
        if split.any():
            # w**nu alone is past range (|nu| near 50, w above 1e6); the product may not be
            half = w[split] ** (0.5 * nu)
            value[split] = k[split] * half * half
        hankel = w > _HANKEL_ARG
        if hankel.any():
            # kve turns nan from about 1.07e9 on; three Hankel terms reach double
            # precision for |nu| <= 50 and serve all of w > 1e9, whatever the array
            wh = w[hankel]
            mu = 4.0 * nu * nu
            z = 8.0 * wh
            series = 1.0 + (mu - 1.0) / z + (mu - 1.0) * (mu - 9.0) / (2.0 * z * z)
            value[hankel] = _SQRT_HALF_PI * series * wh ** (nu - 0.5)
        small = np.isinf(k) & ~hankel
        if small.any():
            # w**(nu - order) is 1 for nu >= 0 and the weight of a negative order
            value[small] = [_small_w_scaled(order, x) * np.float64(x) ** (nu - order)
                            for x in w[small]]
    return value


def _weighted(name, nu, w, scaled):
    # e^w w^nu K_nu(w) (without e^w unless scaled) for a float or an array w,
    # or ParameterError past double range
    ws = np.atleast_1d(np.asarray(w, dtype=float))
    positive = ws > 0.0
    if not positive.all():
        raise ParameterError(f"{name} requires w > 0, got w={ws[~positive][0]}")
    if not abs(nu) <= _MAX_ORDER:
        raise ParameterError(f"{name} supports |nu| <= {_MAX_ORDER}, got nu={nu}")
    value = _k_weighted_scaled(nu, ws)
    if not scaled:
        # e^{-w} in two halves, so that only a product below the normal range
        # underflows; where a half is 0 the scaled value may be inf, the product 0
        half = np.exp(-0.5 * ws)
        value = np.where(half > 0.0, value, 0.0) * half * half
    past = np.isinf(value)
    if past.any():
        raise ParameterError(f"{name} is past double range at nu={nu}, w={ws[past][0]}")
    return float(value[0]) if np.ndim(w) == 0 else value.reshape(np.shape(w))


def bessel_k_weighted(nu, w):
    r"""Weighted modified Bessel function ``w**nu * K_nu(w)``.

    The weighting keeps the function finite at small arguments: for
    ``nu > 0`` the value tends to ``2**(nu-1) Gamma(nu)`` as ``w -> 0``,
    while for ``nu = 0`` it grows like ``-log(w/2) - EULER_GAMMA``.

    At whole and half-integer orders ``n = |nu|`` (the orders of every
    plane term at ``u = 0``) the scaled value ``F(n) e^w`` starts from
    ``F(0) = k0e(w)`` and ``F(1) = w k1e(w)`` (``scipy.special``), or from
    the closed ``F(1/2) = sqrt(pi/2)`` and ``F(3/2) = sqrt(pi/2) (1 + w)``
    (DLMF 10.39.2), and steps up with ``F(n+1) = 2n F(n) + w^2 F(n-1)``
    (DLMF 10.29.1), whose terms are all positive.  Every other order, and
    every argument where that route is not finite or ``k0e`` meets a
    subnormal ``w``, takes ``scipy.special.kve(|nu|, w) * w**nu``.  Two
    ranges that ``kve`` does not serve are closed in form: beyond
    ``w = 1e9`` the first three terms of Hankel's expansion, and where
    ``kve`` overflows (large orders at small ``w``, or any order below
    ``w ~ 2e-305``) the leading two terms of the small-``w`` series.  The
    value is the scaled one times ``exp(-w)``.

    Parameters
    ----------
    nu : float
        Real order, ``|nu| <= 50``.  Negative orders are mapped through
        ``K_{-nu} = K_nu``.
    w : float or array of float
        Positive argument(s); an array gives an array of the same shape.

    Returns
    -------
    float or numpy.ndarray
        ``w**nu * K_nu(w)``.  Below the smallest normal double (from
        about ``w = 708 + (nu - 1/2) ln w`` on) the value underflows
        gradually, as ``math.exp`` does, and it is ``0.0`` past about
        ``w = 745 + (nu - 1/2) ln w``.

    Raises
    ------
    ParameterError
        If ``w <= 0``, if ``|nu| > 50`` or ``nu`` is NaN, or if the value
        is past double range (a large negative order at small ``w``).
    """
    return _weighted("bessel_k_weighted", nu, w, scaled=False)


def bessel_k_weighted_scaled(nu, w):
    """``exp(w) * w**nu * K_nu(w)``: the weighted function with the
    exponential decay factored out.

    Grows only algebraically (like ``w**(nu - 1/2)``) at large arguments,
    so products with extraneous exponentials can be assembled in a single
    ``exp`` call without intermediate under/overflow.  Same accuracy, order
    range and array handling as :func:`bessel_k_weighted`; raises
    :class:`~vacpol.errors.ParameterError` where the value is past double
    range (large orders at huge ``w``, large negative orders at small ``w``).
    """
    return _weighted("bessel_k_weighted_scaled", nu, w, scaled=True)


# ---------------------------------------------------------------------------
# incomplete Gamma
# ---------------------------------------------------------------------------

def _upper_gamma_cf(a, z):
    # Continued fraction for exp(z) z^-a Gamma(a, z) (modified Lentz).
    # Reliable for z >= ~1; for negative a this is the cancellation-free
    # route, unlike the downward recurrence.
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 100000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise ParameterError(f"incomplete-Gamma continued fraction stalled at a={a}, z={z}")


def upper_gamma(a, z):
    r"""Upper incomplete Gamma function ``Gamma(a, z) = int_z^inf t^(a-1) e^-t dt``.

    Parameters
    ----------
    a : float
        Exponent parameter; intended range ``[-20, 2]`` (the formulas in
        this package use ``a = 0`` and negative integers).
    z : float
        Positive lower limit.

    Notes
    -----
    Four regimes:

    * ``z > max(1, a+1)``: continued fraction, valid for any sign of ``a``;
    * small ``z``, ``a > 0``: ``Gamma(a) * scipy.special.gammaincc(a, z)``;
    * small ``z``, integer ``a <= 0``: ``z**a * scipy.special.expn(1-a, z)``
      (DLMF 8.19.1);
    * small ``z``, fractional ``a < 0``: downward recurrence
      ``Gamma(a, z) = (Gamma(a+1, z) - z^a e^-z)/a`` seeded in ``(0, 1)``.
    """
    if not math.isfinite(a):
        raise ParameterError(f"upper_gamma requires a finite a, got a={a}")
    if not 0.0 < z < math.inf:
        raise ParameterError(f"upper_gamma requires a finite z > 0, got z={z}")
    if z > max(1.0, a + 1.0):
        return math.exp(-z + a * math.log(z)) * _upper_gamma_cf(a, z)
    if a > 0.0:
        return math.gamma(a) * float(gammaincc(a, z))
    n = int(math.ceil(-a))
    try:
        if a == -n:
            return float(expn(n + 1, z)) * z**a
        a0 = a + n
        g = math.gamma(a0) * float(gammaincc(a0, z))
        ez = math.exp(-z)
        for _ in range(n):
            a0 -= 1.0
            g = (g - z**a0 * ez) / a0
        return g
    except OverflowError:
        # z**a alone is past double range, and so is Gamma(a, z) ~ -z**a/a
        raise ParameterError(f"upper_gamma is past double range at a={a}, z={z}") from None


def upper_gamma_scaled(n, w):
    r"""``exp(w) * w**n * Gamma(-n, w)`` for integer ``n >= 0``, stable at both ends.

    This combination is what the massless closed forms actually need: it
    stays finite as ``w -> 0`` for ``n >= 1`` (limit ``1/n``) and never
    overflows at large ``w`` (it decays like ``1/w``).  For ``n = 0`` it is
    ``exp(w) * E_1(w)``, which diverges logarithmically at ``w = 0`` (``w > 0``
    required).  Up to ``w = 1`` it is ``exp(w) * scipy.special.expn(n+1, w)``.
    """
    if not math.isfinite(n):
        raise ParameterError(f"upper_gamma_scaled requires a finite n, got n={n}")
    n = int(n)
    if n < 0:
        raise ParameterError(f"upper_gamma_scaled requires n >= 0, got n={n}")
    if n == 0 and not w > 0.0:
        raise ParameterError(f"upper_gamma_scaled requires w > 0 at n = 0, got w={w}")
    if not 0.0 <= w < math.inf:
        raise ParameterError(f"upper_gamma_scaled requires a finite w >= 0, got w={w}")
    if w > 1.0:
        return _upper_gamma_cf(-float(n), w)
    return math.exp(w) * float(exp1(w) if n == 0 else expn(n + 1, w))
