r"""Shared value types and the image-sum representation of a wall.

Both wall families give the plane term the same shape: a head weight
``A`` times ``F((d-1)/2, 2m|x1|)`` plus a short list of ``(weight, rate)``
image terms (:class:`ImageSum`).  A reflecting face is the delta family
with ``L = +1`` (Neumann, Robin) or ``L = -1`` (Dirichlet).  The boundary
conditions (``ReflectingBC.images``, ``SemitransparentBC.images``) only map
a pair of points to that record; every observable -- heat kernel, plane
term, regulator continuation and its Laurent renormalization,
proper-time oracles, asymptotic laws and massless limits -- is
evaluated here from it.

The plane term has one route per input.  At even ``d`` and ``u = 0`` it is
a closed sum of scaled exponential integrals (``ImageSum._even_plane``), with
no quadrature and no Bessel call; at odd ``d`` and at every ``u != 0`` (the
continuation and the Laurent stencil) each coupling integral is a trapezoid
in ``s = ln v``.  The proper-time oracles, a trapezoid in ``s = ln tau``
over another representation, check both.
"""

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx as erfcx_array  # the oracles' arrays; erfcx below is the kernel's
from scipy.special import rgamma

from .errors import (
    InfraredDivergenceError,
    NumericalFailureError,
    ParameterError,
    PoleError,
)
from .specialfns import (
    EULER_GAMMA,
    bessel_k_weighted,
    bessel_k_weighted_scaled,
    erfcx,
    expn_scaled,
    harmonic_number,
    upper_gamma_scaled,
)

__all__ = [
    "FieldConfig",
    "PolarizationValue",
    "SpectrumReport",
    "LaurentFit",
    "ImageSum",
    "fit_laurent_at_zero",
    "free_term",
]

# The coupling integral is a trapezoid in s = ln v, step _STEP/sqrt(p), from
# _S_FIRST - ln max(c, 1) to ln(45/c) + 1 with c = 2(rate+m)|x1|.  Left of the
# first node the integrand falls like v = e^s to O(v): its nodes there are one
# geometric series (off by about e^-56 of the integral); right of the last they
# are below e^-45 of it.  A point whose h and 2h sums disagree beyond
# _MAX_DISAGREEMENT (relative) raises NumericalFailureError.
# Above u = d the integrand can grow like v^{p-1}, p = (u-d)/2 + 1, before
# e^{-cv} cuts it off, to a peak about 1/sqrt(p) wide in s; else p = 1.
_STEP = 0.25
_S_FIRST = -28.0  # nearer v = 1 saves more nodes; ROADMAP item 1 says why it waits
_S_LAST = math.log(45.0) + 1.0
# beyond it (less the one step by which the last node may pass ln(45/c) + 1)
# a node's v = e^s is past double range
_S_MAX = math.log(sys.float_info.max) - _STEP
_MAX_DISAGREEMENT = 1e-6

# At even d the order (d-1)/2 = n + 1/2 of the plane term's head is a
# half-integer, F(n + 1/2, w) = sqrt(pi/2) e^{-w} sum_k c_k w^{n-k} with
# c_k = (n+k)!/(k! (n-k)! 2^k) (DLMF 10.49.12), and at u = 0 each coupling
# integral is a sum of e^c E_{d/2+k}(c) (see ImageSum._even_plane).
# _HALF_ORDER[d] holds the columns c_k, n - k and d/2 + k over k = 0 .. n.
_HALF_ORDER = {
    d: (np.array([[math.factorial(d // 2 - 1 + k)
                   / (math.factorial(k) * math.factorial(d // 2 - 1 - k) * 2**k)]
                  for k in range(d // 2)]),
        np.arange(d // 2 - 1, -1, -1)[:, None],
        np.arange(d // 2, d)[:, None])
    for d in range(2, 12, 2)
}

# The proper-time oracles are a trapezoid in s = ln tau with the same rule,
# step min(_ORACLE_STEP, 1/(4 sqrt(r))): the peak of tau^q e^{-m^2 tau - x1^2/tau}
# is about 1/sqrt(r) wide in s, r = sqrt(q^2 + (2m|x1|)^2).  Peaks narrower than
# at 2m|x1| = _ORACLE_PEAK are not resolved: there the plane term is below
# e^-_ORACLE_PEAK of its prefactor, and the h and 2h sums guard the rest.
# The range is where the integrand is above e^-_ORACLE_DEPTH of its peak; the
# strip oracle's free part is summed in closed form left of ln(_FREE_EDGE/m^2).
_ORACLE_STEP = 0.125
_ORACLE_PEAK = 2000.0
_ORACLE_DEPTH = 50.0
_FREE_EDGE = 1e-17
_LOG_4PI = math.log(4.0 * math.pi)

_CONSISTENCY_TOL = 1e-6
# regularized_polarization raises where its larger part passes 1e8 times the
# total: the parts' rounding, about 1e-16 of the larger, passes 1e-8 of it
_MAX_CANCELLATION = 1e8
_LAURENT_EPS = 1e-3
_INFRARED_TOL = 1e-12  # massless d = 1 is finite where the coupling ratio is -1 to this


def check_mass(m):
    """Entry check of a field mass: finite and ``>= 0``, else a
    :class:`ParameterError` naming ``m``."""
    if not 0.0 <= m < math.inf:
        raise ParameterError(f"m = {m} must be a finite mass >= 0")


def _admissible(rate, m):
    # a decay rate at or below -m (below 0 when massless) is a bound state
    # with a non-positive eigenvalue m^2 - rate^2; a Dirichlet face has none
    return rate > -m if m > 0.0 else rate >= 0.0


@dataclass(frozen=True)
class FieldConfig:
    """Global physics parameters.

    Parameters
    ----------
    d : int
        Space dimension, ``1 <= d <= 11``.
    m : float
        Finite field mass, ``m >= 0`` (``m = 0`` only where a massless
        closed form exists).
    kappa : float
        Renormalization mass scale; enters only through ``log(2 kappa/m)``
        and ``log(2 kappa |x1|)``.
    """

    d: int
    m: float
    kappa: float = 1.0

    def __post_init__(self):
        if self.d != int(self.d) or not 1 <= self.d <= 11:
            raise ParameterError(f"space dimension must be an integer in [1, 11], got {self.d}")
        check_mass(self.m)
        if not self.kappa > 0.0:
            raise ParameterError(f"kappa must be > 0, got {self.kappa}")
        if self.kappa == math.inf:
            raise ParameterError(f"kappa = {self.kappa} must be a finite mass scale")


@dataclass(frozen=True)
class PolarizationValue:
    """Renormalized vacuum polarization split into its two contributions.

    ``total == free_term + plane_term`` holds exactly by construction;
    ``free_term`` is the distance-independent bulk value, ``plane_term``
    carries all the boundary-condition dependence.
    """

    free_term: float
    plane_term: float
    total: float
    branch: str

    @classmethod
    def build(cls, free_term, plane_term, branch):
        return cls(free_term, plane_term, free_term + plane_term, branch)


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum of the reduced one-dimensional operator.

    ``lambda_plus``/``lambda_minus`` are the two decay rates of the
    delta-prime family and are ``None`` for the reflecting and pure-delta
    families.  ``point_eigenvalues`` lie below ``continuous_threshold``
    (= ``m**2``); ``positive`` records whether the operator is
    non-negative, i.e. whether the quantum theory is admissible.
    """

    continuous_threshold: float
    point_eigenvalues: tuple
    positive: bool
    lambda_plus: float | None = None
    lambda_minus: float | None = None

    @classmethod
    def from_rates(cls, m, rates, lambda_plus=None, lambda_minus=None):
        """Spectrum of a wall whose decay ``rates`` below 0 are bound states:
        one eigenvalue ``m**2 - rate**2`` each; positive iff every rate
        exceeds ``-m`` (is ``>= 0`` when ``m = 0``)."""
        check_mass(m)
        eigenvalues = tuple(sorted(m * m - r * r for r in rates if r < 0.0))
        positive = all(_admissible(r, m) for r in rates)
        return cls(m * m, eigenvalues, positive, lambda_plus, lambda_minus)


@dataclass(frozen=True)
class LaurentFit:
    """Coefficients of ``c_m1/u + c0 + c1*u + c2*u**2`` fitted near ``u = 0``."""

    c_m1: float
    c0: float
    c1: float
    c2: float
    eps: float


def _stencil(eps):
    return (eps, -eps, 2.0 * eps, -2.0 * eps)


def fit_laurent_at_zero(f, eps=1e-3):
    """Extract the Laurent data of a function with (at most) a simple pole at 0.

    Evaluates ``f`` on the four-point stencil ``{-2 eps, -eps, eps, 2 eps}``
    and solves exactly for ``c_m1/u + c0 + c1 u + c2 u**2``.  The symmetric
    combinations cancel the pole before any subtraction, so ``c0`` is
    accurate to ``O(eps**4)`` of the next Taylor coefficient; the naive
    three-parameter least-squares fit on the same stencil would bias
    ``c0`` by ``2.5 eps**2 c2``, which is above the 1e-6 consistency
    tolerance for typical ``c2``.
    """
    if not eps > 0.0:
        raise ParameterError("fit_laurent_at_zero needs eps > 0")
    return _laurent_fit([f(u) for u in _stencil(eps)], eps)


def _laurent_fit(values, eps):
    # the fit of fit_laurent_at_zero from the values at _stencil(eps)
    fp1, fm1, fp2, fm2 = values
    even1 = 0.5 * (fp1 + fm1)
    even2 = 0.5 * (fp2 + fm2)
    odd1 = 0.5 * (fp1 - fm1)
    odd2 = 0.5 * (fp2 - fm2)
    c0 = (4.0 * even1 - even2) / 3.0
    c2 = (even2 - even1) / (3.0 * eps * eps)
    c_m1 = (4.0 * eps * odd1 - 2.0 * eps * odd2) / 3.0
    c1 = (2.0 * eps * odd2 - eps * odd1) / (3.0 * eps * eps)
    return LaurentFit(c_m1, c0, c1, c2, eps)


def sign(x, name="x1"):
    """Sign of a wall distance, the entry check of every observable: the wall
    itself (where the observable is singular) and non-finite values raise a
    :class:`ParameterError` naming the argument ``name``."""
    if not math.isfinite(x):
        raise ParameterError(f"{name} must be a finite distance from the wall, got {x}")
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    raise ParameterError(f"{name} = 0 sits on the wall, where the observable is singular")


def _point_images(cfg, bc, x1):
    # the wall's ImageSum at x1, the entry of every one-point observable: the
    # point is checked (see sign) before the wall's positivity
    images = bc.images(x1, x1)
    bc.check_positive(cfg.m)
    return images


def _per_side(cfg, bc, x1, observable):
    # the ImageSum method `observable` at the signed distances x1, a float or a
    # 1-D array: one batch per distinct side record (bc.images), so the two
    # sides of a mirror-symmetric wall are one batch, over the distinct |x1|; a
    # float gives a float, an array an array in the same order.  Every point is
    # checked (sign's error for the first bad one) before the wall's positivity;
    # a range error names the first failing point of a side's own batch, and
    # the smallest failing |x1| of a merged one.
    points = np.asarray(x1, dtype=float)
    batch = points.reshape(-1)
    bad = ~np.isfinite(batch) | (batch == 0.0)
    if bad.any():
        sign(float(batch[bad.argmax()]))
    bc.check_positive(cfg.m)
    plus = batch > 0.0
    sides = [(on, bc.images(side, side)) for on, side in ((plus, 1.0), (~plus, -1.0)) if on.any()]
    if len(sides) == 2 and sides[0][1] == sides[1][1]:
        distinct, order = np.unique(np.abs(batch), return_inverse=True)
        out = getattr(sides[0][1], observable)(cfg, distinct)[order]
    else:
        out = np.empty(len(batch))
        for on, record in sides:
            out[on] = getattr(record, observable)(cfg, batch[on])
    return float(out[0]) if points.ndim == 0 else out


def gaussian_free_factor(d):
    """(4 pi)**(d/2), shared normalization of the heat-kernel integrals."""
    return (4.0 * math.pi) ** (0.5 * d)


def _mass_power(m, k, factor):
    # m**k times factor, or a ParameterError naming m where it is past double range
    try:
        value = m ** k * factor
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParameterError(f"the free term is past double range at m = {m!r}")
    return value


def free_term(cfg):
    r"""Constant bulk contribution, identical for every boundary condition.

    Even ``d``:  ``(-1)^(d/2) pi m^(d-1) / ((4 pi)^((d+1)/2) Gamma((d+1)/2))``;
    odd ``d``:   ``(-1)^((d-1)/2) m^(d-1) [H_((d-1)/2) + 2 log(2 kappa/m)]``
    over the same denominator.  For ``m = 0`` the limit vanishes when
    ``d >= 2`` and diverges logarithmically when ``d = 1``.
    """
    d, m = cfg.d, cfg.m
    if m == 0.0:
        if d == 1:
            raise InfraredDivergenceError(
                "the massless free term diverges in d = 1; only the combination "
                "free + plane has a finite massless limit (see massless_value)"
            )
        return 0.0
    denom = (4.0 * math.pi) ** (0.5 * (d + 1)) * math.gamma(0.5 * (d + 1))
    if d % 2 == 0:
        return _mass_power(m, d - 1, (-1.0) ** (d // 2) * math.pi / denom)
    bracket = harmonic_number((d - 1) // 2) + 2.0 * math.log(2.0 * cfg.kappa / m)
    return _mass_power(m, d - 1, (-1.0) ** ((d - 1) // 2) * bracket / denom)


def _require_mass(cfg, name):
    if not cfg.m > 0.0:
        raise ParameterError(f"{name} needs m > 0; use massless_value for m = 0")


def _check_regulator(u):
    if not math.isfinite(u):
        raise ParameterError(f"u = {u} must be a finite regulator value")


def _continued_free_term(cfg, u):
    # free term of the continuation, off its poles:
    # m^{d-1} (kappa/m)^u Gamma((u-d+1)/2) / (2^{d+1} pi^{d/2} Gamma((u+1)/2)),
    # 0 where 1/Gamma((u+1)/2) is (u = -1, -3, ... off the poles at odd d)
    d, m = cfg.d, cfg.m
    q, p = 0.5 * (u - d + 1), 0.5 * (u + 1)
    try:
        ratio = math.gamma(q) * float(rgamma(p))
    except OverflowError:  # q > 171: both Gammas are past double range, their ratio is not
        ratio = math.exp(math.lgamma(q) - math.lgamma(p))
    return _mass_power(m, d - 1, (cfg.kappa / m) ** u * ratio
                       / (2.0 ** (d + 1) * math.pi ** (0.5 * d)))


def _checked_total(x1, u, free, total):
    # the continuation's total, or NumericalFailureError (best estimate: the
    # total) where its free and plane parts cancel past _MAX_CANCELLATION
    plane = total - free
    if max(abs(free), abs(plane)) > _MAX_CANCELLATION * abs(total):
        raise NumericalFailureError(
            f"regularized polarization at x1 = {x1!r}, u = {u!r}: its free part {free:.6g} "
            f"and plane part {plane:.6g} cancel to {total:.3g}",
            best_estimate=total,
        )
    return total


def _with_continued_free_term(cfg, us, planes):
    # regularized polarization from its plane parts at the regulator values us
    return [_continued_free_term(cfg, u) + float(p) for u, p in zip(us, planes)]


def _small_x_leading(d, m, ax):
    # the universal near-wall law at the distances ax, a float or an array
    if d == 1:
        return -(math.log(m) + np.log(ax)) / (2.0 * math.pi)  # m|x1| may leave double range
    if d == 2:
        return 1.0 / (8.0 * math.pi * ax)
    return math.gamma(0.5 * (d - 1)) / ((4.0 * math.pi) ** (0.5 * (d + 1)) * ax ** (d - 1))


def _within_range(value, ax, what):
    # value, or a ParameterError naming the first distance in ax at which
    # `what` is past double range; value's first axis runs over ax
    past = ~np.isfinite(value)
    if past.any():
        i = np.argwhere(past)[0][0]
        raise ParameterError(f"{what} is past double range at |x1| = {float(ax[i])!r}")
    return value


def _below_range(cfg, x1, plane):
    # plane(x1) at the distances x1 (an array, one side) where 2m|x1| is a
    # double; past it the plane term, below e^{-2m|x1|}, is 0.0
    x1 = np.asarray(x1, dtype=float)
    near = np.abs(x1) <= sys.float_info.max / (2.0 * cfg.m)
    if near.all():
        return plane(x1)
    value = np.zeros(len(x1))
    if near.any():
        value[near] = plane(x1[near])
    return value


def _log_integrand(d, m, rate, us, ax, s):
    # the coupling integrand times dv/ds at v = e^s, one row per u in us,
    # all its factors in one exp so that none leaves the normal range alone
    # (rates close to -m, 2m|x| near the exp underflow, a large u):
    # e^{s - 2(rate+m)|x| v - 2m|x|} (v+1)^{u+1-d} e^w F((d-1-u)/2, w)
    # with w = 2m|x|(v+1)
    v = np.exp(s)
    w0 = 2.0 * m * ax  # the head term's argument
    exponent = s - 2.0 * (rate + m) * ax * v - w0
    log_v1 = np.log1p(v)
    w = w0 * (v + 1.0)
    with np.errstate(divide="ignore"):  # a factor that underflowed to 0 stays 0
        return np.array([np.exp(exponent + (u + 1.0 - d) * log_v1
                                + np.log(bessel_k_weighted_scaled(0.5 * (d - 1 - u), w)))
                         for u in us])


def _log_trapezoid(integrand, first, last, step, decay=None):
    r"""Trapezoid sums in ``s`` over the nodes ``first + k step``, ``k = 0, 1, ...``
    up to the first node past ``last``, one sum per point and integrand row:
    ``(value, err_est)``, arrays of shape ``(points, rows)``.

    ``integrand(point, s)`` evaluates the rows at the nodes ``s`` of the points
    ``point``, index and node arrays of one length.  ``step`` is a float or
    one step per point.  With a ``decay`` rate, the integrand left of ``first``
    is its first node ``g`` times ``e^{decay (s - first)}``, and the sum of step
    ``h`` adds those nodes as ``g h/expm1(decay h)``.  Where the integrand is
    analytic in a strip about the real axis and decays
    double-exponentially at both ends, the error falls exponentially in
    ``1/h`` and roughly squares when ``h`` halves (Trefethen & Weideman,
    SIAM Review 56, 2014); ``err_est`` is the squared gap to the ``2h`` sum,
    every other node of the same sum.  Each point has its own nodes and sum,
    so its value does not depend on the batch.  Where the two sums disagree
    beyond ``_MAX_DISAGREEMENT`` (relative, and beyond the smallest normal
    double) the step does not resolve the integrand, and
    :class:`NumericalFailureError` names that point's range in ``s`` and
    carries its ``h`` sum and the gap.
    """
    counts = np.ceil((last - first) / step).astype(int) + 1
    starts = np.cumsum(counts) - counts
    node = np.arange(counts.sum()) - np.repeat(starts, counts)
    point = np.repeat(np.arange(len(first)), counts)
    per_point = np.ndim(step) > 0
    g = integrand(point, first[point] + (step[point] if per_point else step) * node)
    h = step[:, None] if per_point else step
    value = h * np.add.reduceat(g, starts, axis=1).T
    coarse = 2.0 * h * np.add.reduceat(g * (1.0 - node % 2), starts, axis=1).T
    if decay is not None:
        first_node = g.take(starts, axis=1).T
        value += first_node * (h / np.expm1(decay * h))
        coarse += first_node * (2.0 * h / np.expm1(2.0 * decay * h))
    gap, size = np.abs(value - coarse), np.abs(value)
    # a sum below the smallest normal double has no relative accuracy to check
    unresolved = ~(gap <= _MAX_DISAGREEMENT * size + sys.float_info.min)
    if unresolved.any():
        i, j = np.argwhere(unresolved)[0]
        cause = (f"its h and 2h sums disagree by {float(gap[i, j]):.3e} of {float(value[i, j]):.6g}"
                 if np.isfinite(value[i, j]) else "its sum is past double range")
        raise NumericalFailureError(
            f"trapezoid in s on [{float(first[i])!r}, {float(last[i])!r}]: {cause}",
            best_estimate=float(value[i, j]),
            error_bound=float(gap[i, j]),
        )
    # 0 where the sums agree exactly, whatever the value
    return value, gap * (gap / np.where(gap > 0.0, size, 1.0))


def _coupling_integrals(d, m, ax, rate, us):
    r"""``I(rate) = int_0^inf dv e^{-2 rate |x| v} (v+1)^{u+1-d} F((d-1-u)/2, 2m|x|(v+1))``
    at the distances ``ax`` (one side) and the regulator values ``us``:
    ``(value, err_est)``, arrays of shape ``(points, us)``; a
    trapezoid in ``s = ln v`` (:func:`_log_trapezoid`, decay 1), step ``_STEP/sqrt(p)``.
    """
    p = max(1.0, 0.5 * (max(us) - d) + 1.0)
    c = 2.0 * (rate + m) * ax
    first = _S_FIRST - np.maximum(np.log(c), 0.0)
    last = _S_LAST - np.log(c)
    beyond = ~(last <= _S_MAX)
    if beyond.any():
        i = np.argmax(beyond)
        raise NumericalFailureError(
            f"coupling integral at |x1| = {float(ax[i])!r}, rate = {rate!r}: its decay rate "
            f"2(rate+m)|x1| = {float(c[i]):.3g} spreads it past the double range of v"
        )
    return _log_trapezoid(lambda point, s: _log_integrand(d, m, rate, us, ax[point], s),
                          first, last, _STEP / math.sqrt(p), decay=1.0)


def _gauss(u, tau):
    return math.exp(-u * u / (4.0 * tau)) / math.sqrt(4.0 * math.pi * tau)


def _w_image(c, s, tau, m):
    # (4 pi tau)^{-1/2} int_0^inf dw e^{-c w - (w+s)^2/(4 tau)}
    #   = e^{-s^2/(4 tau)} erfcx(c sqrt(tau) + s/(2 sqrt(tau))) / 2,
    # as (part to be scaled by e^{-m^2 tau}, bound-state part).  Below a
    # zero erfcx argument (bound state, c < 0) the growth e^{tau c^2 + c s} is
    # split off with the mass folded into its exponent: for a deep bound state
    # (m > |c| >> 1) e^{-m^2 tau} and e^{tau c^2} leave double range alone
    arg = c * math.sqrt(tau) + s / (2.0 * math.sqrt(tau))
    decaying = 0.5 * erfcx(abs(arg)) * math.exp(-s * s / (4.0 * tau))
    if arg >= 0.0:
        return decaying, 0.0
    return -decaying, math.exp(tau * ((c - m) * (c + m)) + c * s)


@dataclass(frozen=True)
class ImageSum:
    r"""A wall between two points: a head weight and ``(weight, rate)`` images.

    Between ``x1`` and ``y1``, at proper time ``tau``, the heat kernel is

        e^{-m^2 tau} [g(x1 - y1) + head g(s) + sum_k weight_k/2 W(rate_k, s)],

    with ``s = |x1| + |y1|``, the Gaussian ``g(u) = e^{-u^2/(4 tau)}/sqrt(4 pi tau)``
    and the image ``W(rate, s) = (4 pi tau)^{-1/2} int_0^inf dw
    e^{-rate w - (w+s)^2/(4 tau)}``.  On one side of the wall head and
    weights are real; across it they carry the phase ``omega`` and the
    kernel is complex.  At coincident points the record is real, and the
    plane term at signed distance ``x1`` is

        P(d, x1) [head F((d-1)/2, 2m|x1|) + sum_k weight_k |x1| I(rate_k)],

    with ``F(nu, w) = w^nu K_nu(w)``,
    ``P = 1/(2^{(3d-1)/2} pi^{(d+1)/2} |x1|^{d-1})`` and the coupling integral
    ``I(rate) = int_0^inf dv e^{-2 rate |x1| v} (v+1)^{1-d} F((d-1)/2, 2m|x1|(v+1))``.
    At even ``d``, with ``n = d/2 - 1``, ``F((d-1)/2, w) = sqrt(pi/2) e^{-w}
    sum_k c_k w^{n-k}`` and ``I(rate) = sqrt(pi/2) e^{-w0} sum_k c_k w0^{n-k}
    e^c E_{d/2+k}(c)``, ``w0 = 2m|x1|``, ``c = 2(rate+m)|x1|``,
    ``c_k = (n+k)!/(k! (n-k)! 2^k)``: the plane term is a closed sum there.
    In the proper-time integral of the plane term the same record reads
    ``head e^{-x1^2/tau} + sum_k weight_k/2 int_0^inf dw e^{-rate_k w - (w+2|x1|)^2/(4 tau)}``.

    Neumann is ``head = 1``, Dirichlet ``head = -1``, a Robin face ``b`` adds
    the image ``(-4b, b)``; the delta family has ``head = L`` and the image
    ``(-2(1+L)c, c)``, the delta-prime family ``head = 1`` and the images
    ``(2 M_+, Lambda_+)``, ``(-2 M_-, Lambda_-)``.  Zero-weight images are
    dropped on construction: their rate may be 0, where the massless
    incomplete-Gamma factor is singular.

    The methods take already validated points (see :func:`sign`) and
    evaluate every observable of both geometry modules and of the heat
    kernels; the methods that take an array take the points of one side,
    or the distances ``|x1|`` of both sides where the two share the record.
    """

    head: complex
    terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((w, r) for w, r in self.terms if w != 0.0))

    def _plane(self, cfg, x1, us):
        # plane part of the continuation at the distances x1 (an array, one
        # side) and the regulator values us, as (points, us) values: P(d, x1, u)
        # times the bracket head F((d-1-u)/2, 2m|x|) + sum weight |x| I(rate),
        # shifted by u; P(d, x1, 0) is the plane-term prefactor.  Even d at
        # u = 0 is the closed sum of _even_plane, every other input the
        # coupling trapezoid
        d, m, ax = cfg.d, cfg.m, np.abs(x1)
        if d % 2 == 0 and us == (0.0,):
            return self._even_plane(cfg, ax)[:, None]
        u = np.asarray(us, dtype=float)
        bracket = np.array([self.head * bessel_k_weighted(0.5 * (d - 1 - uj), 2.0 * m * ax)
                            for uj in us]).T
        for weight, rate in self.terms:
            bracket += weight * ax[:, None] * _coupling_integrals(d, m, ax, rate, us)[0]
        with np.errstate(divide="ignore", over="ignore"):
            prefactor = (
                2.0 ** (0.5 * (u - 3 * d + 1))
                * (cfg.kappa * ax[:, None]) ** u
                * rgamma(0.5 * (u + 1))
                / (math.pi ** (0.5 * d) * ax[:, None] ** (d - 1))
            )
            value = prefactor * bracket
        return _within_range(value, ax, "the plane term")

    def _even_plane(self, cfg, ax):
        # the plane term at even d and the distances ax (one side), with no
        # quadrature: with n = d/2 - 1, w0 = 2m|x1| and c = 2(rate+m)|x1|,
        #   (8 pi)^{-d/2} |x1|^{1-d} e^{-w0} sum_k c_k w0^{n-k}
        #       [head + sum weight |x1| e^c E_{d/2+k}(c)],
        # every factor positive but head and weights.  Where the point's scale
        # (8 pi)^{-d/2} |x1|^{1-d} e^{-w0} (and its product with |x1|) is a
        # normal double it multiplies the sums; elsewhere it and w0^{n-k} share
        # one exponent per term.  Each weight multiplies last, after the scale,
        # so a subnormal coupling forms no subnormal product
        d, m = cfg.d, cfg.m
        coeffs, powers, orders = _HALF_ORDER[d]
        w0 = 2.0 * m * ax
        with np.errstate(over="ignore", invalid="ignore"):
            decay = np.exp(-w0)
            scale = (8.0 * math.pi) ** (-0.5 * d) * ax ** (1 - d) * decay
            image_scale = scale * ax
            # the power of |x1| is normal where the scale is; e^{-w0} need not be
            linear = ((np.minimum(decay, np.minimum(scale, image_scale)) >= sys.float_info.min)
                      & (np.maximum(scale, image_scale) < math.inf))
            terms = coeffs * w0**powers
            image_terms = terms
            if not linear.all():
                # w0 may be 0 or past range where its log is not
                log_ax = np.log(ax)
                exponent = (powers * (math.log(2.0) + math.log(m) + log_ax)
                            - 0.5 * d * math.log(8.0 * math.pi) + (1 - d) * log_ax - w0)
                terms = np.where(linear, terms, coeffs * np.exp(exponent))
                image_terms = np.where(linear, image_terms, coeffs * np.exp(exponent + log_ax))
                scale = np.where(linear, scale, 1.0)
                image_scale = np.where(linear, image_scale, 1.0)
            # a pure delta head is 0, and its scale may be past range where the images' is not
            value = (self.head * (scale * terms.sum(axis=0)) if self.head != 0.0
                     else np.zeros(len(ax)))
            for weight, rate in self.terms:
                sums = (image_terms * expn_scaled(orders, 2.0 * (rate + m) * ax)).sum(axis=0)
                value = value + weight * (image_scale * sums)
        return _within_range(value, ax, "the plane term")

    def _proper_time_integrand(self, m, ax, log_ax, q, scale, free, s):
        # e^{scale + qs - m^2 tau} [free + head e^{-x1^2/tau}
        #   + sum weight/2 sqrt(4 pi tau) W(rate, 2|x1|)]
        # at tau = e^s (one row), the image W in the erfcx form of _w_image.  Each
        # part's factors are one exp, so that neither tau^q, the normalization
        # e^scale nor a bound state's growth leaves double range on its own
        root = np.exp(0.5 * s)
        wall = np.exp(log_ax - 0.5 * s)  # |x1| / sqrt(tau)
        lead = scale + q * s - (m * root) ** 2
        gauss = lead - wall * wall
        half_log = 0.5 * (_LOG_4PI + s)
        with np.errstate(over="ignore", invalid="ignore"):
            value = self.head * np.exp(gauss)
            if free:
                value += np.exp(lead)
            for weight, rate in self.terms:
                arg = rate * root + wall
                image = 0.5 * erfcx_array(np.abs(arg)) * np.exp(gauss + half_log)
                if rate < 0.0:  # a bound state: below a zero argument its growth is split off
                    growth = (scale + q * s + half_log + ((rate - m) * root) * ((rate + m) * root)
                              + 2.0 * rate * ax)
                    image = np.where(arg < 0.0, np.exp(growth) - image, image)
                value += 0.5 * weight * image
        return _within_range(value, ax, "the proper-time integral")[None, ...]

    def _proper_time_integral(self, cfg, ax, u, free):
        # kappa^u / (2 (4 pi)^{d/2} Gamma((u+1)/2)) int_0^inf dtau tau^{(u-d-1)/2} e^{-m^2 tau}
        # [free + head e^{-x1^2/tau} + sum weight/2 int_0^inf dw e^{-rate w - (w+2|x1|)^2/(4 tau)}]
        # at the distances ax (one side), a trapezoid in s = ln tau
        d, m, log_ax, log_m = cfg.d, cfg.m, np.log(ax), math.log(cfg.m)
        q = 0.5 * (u - d + 1)
        scale = (u * math.log(cfg.kappa) - math.log(2.0 * gaussian_free_factor(d))
                 - math.lgamma(0.5 * (u + 1)))
        # left: tau^q e^{-x1^2/tau - m^2 tau} is depth below its peak where
        # (m sqrt(tau) - |x1|/sqrt(tau))^2 = depth; right: each decay rate,
        # m^2 - rate^2 for a bound state's image and m^2 for the rest, has
        # taken the integrand depth below e^{-2m|x1|}
        depth = _ORACLE_DEPTH + 4.0 * max(-q, 0.0)
        first = 2.0 * (math.log(2.0) + log_ax
                       - np.log(np.sqrt(depth + 4.0 * m * ax) + math.sqrt(depth)))
        depth = _ORACLE_DEPTH + 4.0 * max(q + 0.5, 0.0)
        last = np.log(depth + 2.0 * m * ax) - 2.0 * log_m
        for _, rate in self.terms:
            if rate < 0.0:
                last = np.maximum(last, np.log(depth + 2.0 * (m + rate) * ax)
                                  - math.log(m - rate) - math.log(m + rate))
        if free:
            # left of ln(_FREE_EDGE / m^2) the integrand is the free part
            # e^{scale + qs} alone, and its nodes there sum to a geometric series
            first = np.minimum(first, math.log(_FREE_EDGE) - 2.0 * log_m)
        peak = np.hypot(q, np.minimum(2.0 * m * ax, _ORACLE_PEAK))
        step = np.minimum(_ORACLE_STEP, 0.25 / np.sqrt(peak))
        return _log_trapezoid(
            lambda point, s: self._proper_time_integrand(m, ax[point], log_ax[point], q, scale,
                                                         free, s),
            first, last, step, q if free else None,
        )[0][:, 0]

    def kernel(self, tau, x1, y1, m):
        """Closed-form heat kernel between ``x1`` and ``y1`` at proper time
        ``tau``, for a finite mass ``m >= 0``; complex where the weights are."""
        check_mass(m)
        s = abs(x1) + abs(y1)
        value = _gauss(x1 - y1, tau) + self.head * _gauss(s, tau)
        bound = 0.0
        try:
            for weight, rate in self.terms:
                decaying, growing = _w_image(rate, s, tau, m)
                value += 0.5 * weight * decaying
                bound += 0.5 * weight * growing
            value = math.exp(-m * m * tau) * value + bound
        except OverflowError:  # a bound state's growth alone is past range
            value = math.inf
        if cmath.isinf(value):
            raise ParameterError(
                f"heat kernel is past double range at tau={tau}, x1={x1}, y1={y1}, m={m}"
            )
        return value

    def plane_term(self, cfg, x1):
        """Closed-form plane term at the distances ``x1``, a 1-D array of
        points on one side (``m > 0``); one array of values, 0.0 where
        ``2m|x1|`` is past double range."""
        _require_mass(cfg, "plane_term")
        return _below_range(cfg, x1, lambda near: self._plane(cfg, near, (0.0,))[:, 0])

    def plane_term_oracle(self, cfg, x1):
        """Proper-time integral of :meth:`plane_term` at the distances ``x1``, a
        1-D array of points on one side (``m > 0``); one array of values, 0.0
        where ``2m|x1|`` is past double range.  The
        representation and its integrand, the erfcx image of :meth:`kernel`,
        share nothing with the Bessel closed form or the coupling integral;
        the quadrature rule (:func:`_log_trapezoid`, in ``s = ln tau``) is
        the one of the coupling integral."""
        _require_mass(cfg, "plane_term_oracle")
        return _below_range(cfg, x1, lambda near: self._proper_time_integral(
            cfg, np.abs(near), 0.0, free=False))

    def regularized_polarization(self, cfg, x1, u):
        """Continuation of the regularized polarization to real ``u`` off the
        pole lattice ``u = d - 1 - 2l``; :class:`NumericalFailureError` where its
        free and plane parts cancel past ``_MAX_CANCELLATION`` (best estimate: the total)."""
        _require_mass(cfg, "regularized_polarization")
        _check_regulator(u)
        d = cfg.d
        # poles of the continued representation sit at u = d - 1 - 2l, l >= 0
        ell = 0.5 * (d - 1 - u)
        nearest = round(ell)
        if nearest >= 0 and abs(ell - nearest) < 1e-9:
            raise PoleError(
                f"u = {u} is a pole of the meromorphic continuation (u = d-1-2l lattice)",
                pole=d - 1 - 2 * nearest,
            )
        free = _continued_free_term(cfg, u)
        total = free + float(self._plane(cfg, np.array([x1]), (u,))[0, 0])
        return _checked_total(x1, u, free, total)

    def regularized_polarization_oracle(self, cfg, x1, u):
        """Direct proper-time representation in the strip ``u > d - 1``; it raises
        as :meth:`regularized_polarization` does where its free and plane parts cancel."""
        _check_regulator(u)
        if not u > cfg.d - 1:
            raise ParameterError(f"strip representation needs u > d - 1 = {cfg.d - 1}")
        _require_mass(cfg, "regularized_polarization_oracle")
        total = float(self._proper_time_integral(cfg, np.array([abs(x1)]), u, free=True)[0])
        return _checked_total(x1, u, _continued_free_term(cfg, u), total)

    def laurent_coefficients(self, cfg, x1):
        """Laurent data of the continuation at ``u = 0`` (four-point stencil,
        one batch)."""
        _require_mass(cfg, "regularized_polarization")
        stencil = _stencil(_LAURENT_EPS)
        planes = self._plane(cfg, np.array([x1]), stencil)[0]
        return _laurent_fit(_with_continued_free_term(cfg, stencil, planes), _LAURENT_EPS)

    def renormalize_at_zero(self, cfg, x1, branch):
        """Regular part of the continuation at ``u = 0`` (even ``d``: direct
        value, odd ``d``: ``c0`` of the Laurent fit), cross-checked against
        ``free_term + plane_term``; returns the exact closed-form split.  At
        odd ``d`` the plane term and the four stencil points are one batch."""
        free = free_term(cfg)
        _require_mass(cfg, "plane_term")
        stencil = () if cfg.d % 2 == 0 else _stencil(_LAURENT_EPS)
        plane, *values = self._plane(cfg, np.array([x1]), (0.0,) + stencil)[0]
        plane = float(plane)
        if stencil:
            c0 = _laurent_fit(_with_continued_free_term(cfg, stencil, values), _LAURENT_EPS).c0
        else:
            # the continuation is regular at u = 0 and its plane part there is
            # the plane term itself, so only the free part is recomputed
            c0 = _continued_free_term(cfg, 0.0) + plane
        closed = free + plane
        mismatch = abs(c0 - closed)
        # both sides carry relative rounding: near the wall at high d they
        # reach 1e5 and beyond, where an absolute 1e-6 would fail spuriously
        if mismatch > _CONSISTENCY_TOL * max(1.0, abs(closed)):
            raise NumericalFailureError(
                f"Laurent regular part disagrees with the closed forms by {mismatch:.3e}",
                best_estimate=c0,
                error_bound=mismatch,
            )
        return PolarizationValue.build(free, plane, branch)

    def small_x_asymptotic(self, cfg, x1):
        """Leading near-wall term: ``head`` times the universal reflecting law."""
        _require_mass(cfg, "small_x_asymptotic")
        ax = np.abs(x1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            value = self.head * _small_x_leading(cfg.d, cfg.m, ax)
        return _within_range(value, ax, "the near-wall law")

    def _coupling_ratio(self, m):
        # head + sum weight/(2 (rate + m)); -1 at m = 0 where the images cancel the d = 1 log
        ratio = self.head
        for weight, rate in self.terms:
            ratio += weight / (2.0 * (rate + m))
        return ratio

    def large_x_asymptotic(self, cfg, x1):
        """Leading far-wall decay: the ``e^{-2m|x1|}/|x1|^{d/2}`` envelope
        times the ratio ``head + sum weight/(2 (rate + m))``."""
        _require_mass(cfg, "large_x_asymptotic")
        d, m, ax = cfg.d, cfg.m, np.abs(x1)
        # the envelope m^{(d-2)/2} e^{-2m|x1|} / (2 (4 pi)^{d/2} |x1|^{d/2}) in one
        # exp: no factor leaves double range alone, and it underflows at large m|x1|
        log_scale = 0.5 * (d - 2) * math.log(m) - math.log(2.0 * gaussian_free_factor(d))
        with np.errstate(over="ignore", invalid="ignore"):
            envelope = np.exp(log_scale - 2.0 * m * ax - 0.5 * d * np.log(ax))
            value = envelope * self._coupling_ratio(m)
        return _within_range(value, ax, "the far-wall law")

    def massless_value(self, cfg, x1):
        r"""Massless limit of ``free + plane`` (``m = 0``); the free term is 0.

        ``d >= 2``: ``A(d, x1) [head + sum weight |x1| e^w w^{d-2} Gamma(2-d, w)]``
        with ``w = 2 rate |x1|`` and ``A`` the near-wall law of
        :meth:`small_x_asymptotic` at ``head = 1``; 0.0 where ``|x1|^{d-1}``
        overflows, and :class:`ParameterError` naming ``|x1|`` where the value does.
        ``d = 1``: ``[log(2 kappa |x1|) - EULER_GAMMA
        - sum weight/(2 rate) e^w Gamma(0, w)] / (2 pi)``, the zero-mass limit
        less ``EULER_GAMMA/pi``; it exists (else :class:`InfraredDivergenceError`)
        where the images cancel the head's infrared logarithm, i.e. where the
        coupling ratio of :meth:`large_x_asymptotic` at ``m = 0`` is -1.
        """
        if cfg.m != 0.0:
            raise ParameterError("massless_value is the m = 0 entry point; got m > 0")
        d, ax = cfg.d, abs(x1)
        if d == 1:
            ratio = self._coupling_ratio(0.0)
            if not abs(1.0 + ratio) <= _INFRARED_TOL * (1.0 + abs(ratio)):
                raise InfraredDivergenceError(f"massless d = 1 is infrared divergent: the "
                                              f"coupling ratio at m = 0 is {ratio!r}, not -1")
            value = math.log(2.0 * cfg.kappa * ax) - EULER_GAMMA
            for weight, rate in self.terms:
                value -= weight / (2.0 * rate) * upper_gamma_scaled(0, 2.0 * rate * ax)
            return value / (2.0 * math.pi)
        bracket = self.head
        for weight, rate in self.terms:
            bracket += weight * ax * upper_gamma_scaled(d - 2, 2.0 * rate * ax)
        try:
            value = _small_x_leading(d, 0.0, ax) * bracket
        except OverflowError:  # |x1|^(d-1) is past double range: the law is below it
            return 0.0
        except ZeroDivisionError:  # |x1|^(d-1) underflowed to 0
            value = math.inf
        if not math.isfinite(value):
            raise ParameterError(f"the massless law is past double range at |x1| = {ax!r}")
        return value
