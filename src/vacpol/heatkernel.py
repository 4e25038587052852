r"""Reduced heat kernels on the punctured line for both wall families.

The wall sits at ``x1 = 0``.  The reflecting family imposes Robin
conditions ``-psi'(0+) + b_plus psi(0+) = 0`` and
``psi'(0-) + b_minus psi(0-) = 0`` independently on the two faces
(``b = 0`` Neumann, ``b = +inf`` Dirichlet); the two half-lines decouple
completely.  The semitransparent family couples the faces through a
unit-determinant transfer matrix times a phase,

    (psi(0+), psi'(0+))^T = omega (alpha beta; gamma sigma) (psi(0-), psi'(0-))^T,

with ``|omega| = 1`` and ``alpha sigma - beta gamma = 1``; ``beta = 0,
alpha = sigma = 1`` is the Dirac-delta wall of strength ``gamma`` and
``gamma = 0, alpha = sigma = 1`` the delta-prime wall of strength ``beta``.

A mass only multiplies every kernel by ``exp(-m**2 tau)``.

Each boundary condition maps a pair of points to the
:class:`~vacpol.core.ImageSum` whose closed-form ``kernel`` every production
kernel here evaluates (at coincident points the same record gives the plane
term).  The record depends on the points only through their sides, so
:func:`wall_kernel` checks a wall's positivity once and keeps one record per
side pair; a table of values (``vacpol heat-kernel``, the ``validation``
checks) is evaluated through it, and :func:`reflecting_kernel` /
:func:`semitransparent_kernel` evaluate one value from the same record.  The
``w``-integral form of the Robin kernel and the eigenfunction expansion are
retained as independent oracles.
"""

import math
from dataclasses import dataclass

from .core import ImageSum, _admissible, _gauss, check_mass, sign
from .errors import ParameterError
from .quadrature import QuadSpec, integrate_finite, integrate_semi_infinite

__all__ = [
    "DIRICHLET",
    "HeatQuery",
    "ReflectingBC",
    "SemitransparentBC",
    "robin_half_line_kernel",
    "robin_half_line_kernel_wform",
    "reflecting_kernel",
    "spectral_oracle_robin",
    "semitransparent_kernel",
    "wall_kernel",
]

#: Marker for a Dirichlet face (the ``b -> +inf`` limit: a mirror image of weight -1).
DIRICHLET = math.inf

#: Couplings with ``|beta|`` below this are treated as the ``beta = 0`` family.
#: The two branches are genuinely distinct families and are never blended.
BETA_BRANCH_TOL = 1e-12

_STRUCT_TOL = 1e-12

_KERNEL_SPEC = QuadSpec(abs_tol=1e-13, rel_tol=1e-11)
_SPECTRAL_SPEC = QuadSpec(abs_tol=1e-12, rel_tol=1e-10)


class _Wall:
    """A wall whose ``rates()`` name its decay rates, read by ``spectrum`` too."""

    def check_positive(self, m):
        """Reject couplings that put a point eigenvalue below zero, naming the rate."""
        check_mass(m)
        for name, rate in self.rates():
            if _admissible(rate, m):
                continue
            if m > 0.0:
                raise ParameterError(f"{name} = {rate} violates positivity (needs > -m = {-m})")
            raise ParameterError(f"{name} = {rate} violates massless positivity (needs >= 0)")


@dataclass(frozen=True)
class HeatQuery:
    """One kernel evaluation point: a finite ``tau > 0`` and finite
    coordinates off the wall point ``0``."""

    tau: float
    x1: float
    y1: float

    def __post_init__(self):
        _check_tau(self.tau)
        sign(self.x1, "x1")
        sign(self.y1, "y1")


def _check_tau(tau):
    """Entry check of a proper time: finite and ``> 0``, else a
    :class:`ParameterError` naming ``tau``."""
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ParameterError(f"tau must be finite and > 0, got {tau}")


@dataclass(frozen=True)
class ReflectingBC(_Wall):
    """Robin parameters of the two faces; ``DIRICHLET`` marks a hard face."""

    b_plus: float = 0.0
    b_minus: float = 0.0

    def __post_init__(self):
        for name, b in self.rates():
            if math.isnan(b):
                raise ParameterError(f"{name} = {b} must be a Robin coupling or DIRICHLET")

    @classmethod
    def neumann(cls):
        return cls(0.0, 0.0)

    @classmethod
    def dirichlet(cls):
        return cls(DIRICHLET, DIRICHLET)

    @classmethod
    def robin(cls, b):
        return cls(b, b)

    def side(self, x1):
        """Coupling of the face on the side of ``x1``."""
        return self.b_plus if x1 > 0.0 else self.b_minus

    def rates(self):
        """The named decay rates: each face's coupling (``+inf`` when Dirichlet)."""
        return (("b_plus", self.b_plus), ("b_minus", self.b_minus))

    def images(self, x1, y1):
        """The wall between ``x1`` and ``y1`` as an :class:`~vacpol.core.ImageSum`.

        On one side it is the face of that side: a Robin face ``b`` is head
        ``+1`` with the image ``(-4b, b)`` (Neumann drops it), a Dirichlet
        face head ``-1``.  Across the wall the half-lines decouple: there
        ``|x1 - y1| = |x1| + |y1|``, so head ``-1`` cancels the free Gaussian
        and the kernel is exactly 0.
        """
        b = self.side(x1)
        if sign(x1, "x1") != sign(y1, "y1") or math.isinf(b):
            return ImageSum(-1.0)
        return ImageSum(1.0, ((-4.0 * b, b),))


@dataclass(frozen=True)
class SemitransparentBC(_Wall):
    """Transfer-matrix parameters of a semitransparent wall."""

    alpha: float
    beta: float
    gamma_coupling: float
    sigma_param: float
    omega: complex = 1.0 + 0.0j

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma_coupling", "sigma_param"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} = {getattr(self, name)} must be finite")
        det = self.alpha * self.sigma_param - self.beta * self.gamma_coupling
        if not abs(det - 1.0) <= _STRUCT_TOL:
            raise ParameterError(f"transfer matrix must have unit determinant, got {det}")
        if not abs(abs(complex(self.omega)) - 1.0) <= _STRUCT_TOL:
            raise ParameterError(f"omega must have unit modulus, got |omega| = {abs(self.omega)}")

    @classmethod
    def free(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def delta(cls, strength):
        return cls(1.0, 0.0, strength, 1.0)

    @classmethod
    def delta_prime(cls, strength):
        return cls(1.0, strength, 0.0, 1.0)

    @property
    def is_delta_family(self):
        return abs(self.beta) < BETA_BRANCH_TOL

    @property
    def trace_sum(self):
        return self.alpha + self.sigma_param

    @property
    def delta_ratio(self):
        """Effective coupling ``gamma/(alpha+sigma)`` of the ``beta = 0`` family."""
        if self.trace_sum == 0.0:
            raise ParameterError("alpha + sigma = 0 is incompatible with the beta = 0 family")
        return self.gamma_coupling / self.trace_sum

    def lambda_pm(self):
        """Decay rates (Lambda_plus, Lambda_minus) of the ``beta != 0`` family, the roots
        of ``beta L^2 - (alpha+sigma) L + gamma``: the larger in magnitude from their sum,
        the other from their product ``gamma/beta``, so that neither cancels."""
        if self.is_delta_family:
            raise ParameterError("lambda_pm is defined only for beta != 0")
        # the discriminant (alpha+sigma)^2 - 4 beta gamma is (alpha-sigma)^2 + 4
        root = math.hypot(self.alpha - self.sigma_param, 2.0)
        half = 0.5 * (self.trace_sum + math.copysign(root, self.trace_sum))
        large, small = half / self.beta, self.gamma_coupling / half
        return (large, small) if large > small else (small, large)

    def transfer_matrix(self):
        """The 2x2 jump relation ``omega * [[alpha, beta], [gamma, sigma]]``."""
        w = complex(self.omega)
        return (
            (w * self.alpha, w * self.beta),
            (w * self.gamma_coupling, w * self.sigma_param),
        )

    def rates(self):
        """The named decay rates: ``gamma/(alpha+sigma)``, or ``Lambda_minus < Lambda_plus``."""
        if self.is_delta_family:
            return (("gamma/(alpha+sigma)", self.delta_ratio),)
        lam_p, lam_m = self.lambda_pm()
        return (("Lambda_minus", lam_m), ("Lambda_plus", lam_p))

    def images(self, x1, y1):
        """The wall between ``x1`` and ``y1`` as an :class:`~vacpol.core.ImageSum`.

        The ``beta = 0`` family is head ``L`` with the image
        ``(-2(1+L)c, c)``, ``c = gamma/(alpha+sigma)``; the ``beta != 0``
        family is head ``sgn(x1) sgn(y1)`` with the images
        ``(2 M_+, Lambda_+)`` and ``(-2 M_-, Lambda_-)``.  The weights are
        real on one side; across the wall they carry ``omega``, seen from
        the side of ``x1`` (conjugated for ``x1 < 0``), and are complex.
        """
        sx = sign(x1, "x1")
        phase = None
        if sx != sign(y1, "y1"):
            w = complex(self.omega)
            phase = complex(w.real, sx * w.imag)
        if self.is_delta_family:
            c = self.delta_ratio
            L = self._weight_L(sx, phase)
            # the weight from gamma, not from c, which rounds where gamma is subnormal
            return ImageSum(L, ((-2.0 * (1.0 + L) / self.trace_sum * self.gamma_coupling, c),))
        lam_p, lam_m = self.lambda_pm()
        m_p, m_m = (self._weight_M(lam, sx, phase) for lam in (lam_p, lam_m))
        return ImageSum(1.0 if phase is None else -1.0, ((2.0 * m_p, lam_p), (-2.0 * m_m, lam_m)))

    def _weight_L(self, sx, phase=None):
        # head of the beta = 0 family; phase is None for points on one side,
        # where + 0.0 makes the pure delta head (alpha = sigma) +0.0 on both sides
        if phase is None:
            return (self.alpha - self.sigma_param) * sx / self.trace_sum + 0.0
        return -(1.0 - 2.0 * phase / self.trace_sum)

    def _weight_M(self, lam, sx, phase=None):
        # image weight of the rate lam of the beta != 0 family, fixed by the
        # transfer relation at the wall; it matches a scattering-state
        # expansion at machine precision on both sides and for complex omega
        scale = math.copysign(1.0, self.beta) / math.hypot(self.alpha - self.sigma_param, 2.0)
        if phase is None:
            skew = (self.alpha - self.sigma_param) * sx
            return -scale * (self.trace_sum * lam - 2.0 * self.gamma_coupling - skew * lam)
        return scale * (2.0 * lam * phase)


def robin_half_line_kernel(q, b, m=0.0):
    r"""Closed-form heat kernel on the half-line with a Robin condition at 0.

    Free Gaussian + mirror image - coupling term, the latter evaluated
    through the scaled complementary error function so that none of the
    three pieces overflows:

        K = g(x-y) + g(x+y) - b e^{tau b^2 + b(x+y)} erfc(b sqrt(tau) + (x+y)/(2 sqrt(tau)))

    times ``exp(-m**2 tau)``.  For ``b < 0`` the rewrite splits off the
    bound-state term ``2|b| e^{tau b^2 - |b|(x+y)}`` explicitly, with the
    mass factor in its exponent.

    Any finite real ``b`` is accepted; positivity of the quantum theory is
    enforced one level up, in :func:`reflecting_kernel`.
    """
    if not (q.x1 > 0.0 and q.y1 > 0.0):
        raise ParameterError("robin_half_line_kernel lives on the positive half-line")
    if not math.isfinite(b):
        raise ParameterError(f"b = {b} is not a finite Robin coupling (use reflecting_kernel "
                             "for the Dirichlet marker)")
    return ReflectingBC.robin(b).images(q.x1, q.y1).kernel(q.tau, q.x1, q.y1, m)


def _w_image_integral(b, s, tau):
    # int_0^inf dw e^{-b w - (w+s)^2/(4 tau)}.  A bound state (b < 0) puts the
    # Gaussian peak at w* = -2 b tau - s, far out at large tau, where one
    # adaptive rule over the whole half-line misses it: the range splits there
    def f(w):
        return math.exp(-b * w - (w + s) ** 2 / (4.0 * tau))

    peak = -2.0 * b * tau - s
    if peak <= 0.0:
        return integrate_semi_infinite(f, _KERNEL_SPEC)[0]
    rise, _ = integrate_finite(f, 0.0, peak, _KERNEL_SPEC)
    fall, _ = integrate_semi_infinite(lambda w: f(peak + w), _KERNEL_SPEC)
    return rise + fall


def robin_half_line_kernel_wform(q, b, m=0.0):
    """Secondary oracle: the same kernel with the coupling term kept as the
    ``w``-integral ``(b/sqrt(pi tau)) int_0^inf e^{-b w - (w+x+y)^2/(4 tau)} dw``."""
    if not (q.x1 > 0.0 and q.y1 > 0.0):
        raise ParameterError("robin_half_line_kernel_wform lives on the positive half-line")
    s = q.x1 + q.y1
    tau = q.tau
    value = _gauss(q.x1 - q.y1, tau) + _gauss(s, tau)
    if b != 0.0:
        value -= b / math.sqrt(math.pi * tau) * _w_image_integral(b, s, tau)
    return math.exp(-m * m * tau) * value


def wall_kernel(bc, m=0.0):
    """The heat kernel of the wall ``bc`` at mass ``m``, as ``(tau, x1, y1) -> value``.

    Positivity is checked once, here.  :meth:`ReflectingBC.images` and
    :meth:`SemitransparentBC.images` depend on the points only through their
    sides, so each of the (at most four) side pairs gets its
    :class:`~vacpol.core.ImageSum` on first use and keeps it; every value is
    that record's ``kernel``: a float, or a complex number where the record's
    weights are complex (a semitransparent wall across it).  Each point is
    checked as :class:`HeatQuery` checks it.
    """
    bc.check_positive(m)
    records = {}

    def kernel(tau, x1, y1):
        _check_tau(tau)
        sides = (sign(x1, "x1"), sign(y1, "y1"))
        images = records.get(sides)
        if images is None:
            images = records[sides] = bc.images(x1, y1)
        return images.kernel(tau, x1, y1, m)

    return kernel


def reflecting_kernel(q, bc, m=0.0):
    """Heat kernel of the reflecting wall; exactly 0 across the wall.

    On one side it is the half-line kernel of the face of that side
    (:meth:`ReflectingBC.images`), positivity checked: the record and kernel
    :func:`wall_kernel` keeps for the side pair of ``q``.
    """
    bc.check_positive(m)
    return bc.images(q.x1, q.y1).kernel(q.tau, q.x1, q.y1, m)


def spectral_oracle_robin(q, b, m=0.0):
    r"""Eigenfunction-expansion oracle for the Robin half-line kernel.

    Continuum part ``(2/pi) int_0^kmax dk e^{-tau k^2}
    (k cos(kx) + b sin(kx))(k cos(ky) + b sin(ky))/(k^2+b^2)`` truncated at
    ``kmax = 10/sqrt(tau)`` (Gaussian tail < e^-100, far below the
    quadrature tolerance), plus the bound state
    ``2|b| e^{tau b^2 - |b|(x+y)}`` for ``b < 0``.
    """
    if not (q.x1 > 0.0 and q.y1 > 0.0):
        raise ParameterError("spectral_oracle_robin lives on the positive half-line")
    if q.tau < 1e-3:
        raise ParameterError("spectral oracle needs tau >= 1e-3 for a convergent truncation")
    tau, x, y = q.tau, q.x1, q.y1
    kmax = 10.0 / math.sqrt(tau)

    def integrand(k):
        px = k * math.cos(k * x) + b * math.sin(k * x)
        py = k * math.cos(k * y) + b * math.sin(k * y)
        return math.exp(-tau * k * k) * px * py / (k * k + b * b)

    if b == 0.0:
        def integrand(k):  # noqa: F811 - avoid the 0/0 at k = 0
            return math.exp(-tau * k * k) * math.cos(k * x) * math.cos(k * y)

    value, _ = integrate_finite(integrand, 0.0, kmax, _SPECTRAL_SPEC)
    value *= 2.0 / math.pi
    if b < 0.0:
        value += 2.0 * abs(b) * math.exp(tau * b * b - abs(b) * (x + y))
    return math.exp(-m * m * tau) * value


def semitransparent_kernel(q, bc, m=0.0):
    r"""Heat kernel of the semitransparent wall (complex valued in general).

    The kernel of :meth:`SemitransparentBC.images`, positivity checked: the
    record and kernel :func:`wall_kernel` keeps for the side pair of ``q``.
    Hermitian (``K(x, y) = conj(K(y, x))``) and real whenever
    ``Im omega = 0`` or both points are on the same side.
    """
    bc.check_positive(m)
    return complex(bc.images(q.x1, q.y1).kernel(q.tau, q.x1, q.y1, m))
