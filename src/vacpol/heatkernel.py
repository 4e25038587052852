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

Every production kernel evaluates its image integrals in the closed
error-function form; the ``w``-integral form of the Robin kernel and the
eigenfunction expansion are retained as independent oracles.
"""

import cmath
import math
from dataclasses import dataclass

from .core import sign
from .errors import ParameterError
from .quadrature import QuadSpec, integrate_finite, integrate_semi_infinite
from .specialfns import erfcx

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
]

#: Marker for a Dirichlet face (the ``b -> +inf`` limit has its own closed form).
DIRICHLET = math.inf

#: Couplings with ``|beta|`` below this are treated as the ``beta = 0`` family.
#: The two branches are genuinely distinct families and are never blended.
BETA_BRANCH_TOL = 1e-12

_STRUCT_TOL = 1e-12

_KERNEL_SPEC = QuadSpec(abs_tol=1e-13, rel_tol=1e-11)
_SPECTRAL_SPEC = QuadSpec(abs_tol=1e-12, rel_tol=1e-10)


def _check_rate(name, rate, m):
    # a decay rate at or below -m (below 0 when massless) is a bound state
    # with a non-positive eigenvalue m^2 - rate^2; a Dirichlet face has none
    if m > 0.0 and not rate > -m:
        raise ParameterError(f"{name} = {rate} violates positivity (needs > -m = {-m})")
    if m == 0.0 and not rate >= 0.0:
        raise ParameterError(f"{name} = {rate} violates massless positivity (needs >= 0)")


@dataclass(frozen=True)
class HeatQuery:
    """One kernel evaluation point: a finite ``tau > 0`` and finite
    coordinates off the wall point ``0``."""

    tau: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ParameterError(f"tau must be finite and > 0, got {self.tau}")
        sign(self.x1, "x1")
        sign(self.y1, "y1")


@dataclass(frozen=True)
class ReflectingBC:
    """Robin parameters of the two faces; ``DIRICHLET`` marks a hard face."""

    b_plus: float = 0.0
    b_minus: float = 0.0

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

    def check_positive(self, m):
        """Reject couplings that put a point eigenvalue below zero."""
        for name, b in (("b_plus", self.b_plus), ("b_minus", self.b_minus)):
            _check_rate(name, b, m)


@dataclass(frozen=True)
class SemitransparentBC:
    """Transfer-matrix parameters of a semitransparent wall."""

    alpha: float
    beta: float
    gamma_coupling: float
    sigma_param: float
    omega: complex = 1.0 + 0.0j

    def __post_init__(self):
        det = self.alpha * self.sigma_param - self.beta * self.gamma_coupling
        if abs(det - 1.0) > _STRUCT_TOL:
            raise ParameterError(f"transfer matrix must have unit determinant, got {det}")
        if abs(abs(complex(self.omega)) - 1.0) > _STRUCT_TOL:
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
        """Decay rates (Lambda_plus, Lambda_minus) of the ``beta != 0`` family."""
        if self.is_delta_family:
            raise ParameterError("lambda_pm is defined only for beta != 0")
        root = math.hypot(self.alpha - self.sigma_param, 2.0)
        half = 0.5 / self.beta
        return self.trace_sum * half + root * abs(half), self.trace_sum * half - root * abs(half)

    def transfer_matrix(self):
        """The 2x2 jump relation ``omega * [[alpha, beta], [gamma, sigma]]``."""
        w = complex(self.omega)
        return (
            (w * self.alpha, w * self.beta),
            (w * self.gamma_coupling, w * self.sigma_param),
        )

    def check_positive(self, m):
        """Reject couplings that put a point eigenvalue below zero."""
        if self.is_delta_family:
            _check_rate("gamma/(alpha+sigma)", self.delta_ratio, m)
        else:
            _check_rate("Lambda_minus", self.lambda_pm()[1], m)


def _gauss(u, tau):
    return math.exp(-u * u / (4.0 * tau)) / math.sqrt(4.0 * math.pi * tau)


def _w_image(c, s, tau):
    # (4 pi tau)^{-1/2} int_0^inf dw e^{-c w - (w+s)^2/(4 tau)}
    #   = e^{-s^2/(4 tau)} erfcx(c sqrt(tau) + s/(2 sqrt(tau))) / 2;
    # below a zero erfcx argument (bound state, c < 0) the growing part
    # e^{tau c^2 + c s} is split off so that nothing overflows
    arg = c * math.sqrt(tau) + s / (2.0 * math.sqrt(tau))
    if arg >= 0.0:
        return 0.5 * erfcx(arg) * math.exp(-s * s / (4.0 * tau))
    return math.exp(tau * c * c + c * s) - 0.5 * erfcx(-arg) * math.exp(-s * s / (4.0 * tau))


def robin_half_line_kernel(q, b, m=0.0):
    r"""Closed-form heat kernel on the half-line with a Robin condition at 0.

    Free Gaussian + mirror image - coupling term, the latter evaluated
    through the scaled complementary error function so that none of the
    three pieces overflows:

        K = g(x-y) + g(x+y) - b e^{tau b^2 + b(x+y)} erfc(b sqrt(tau) + (x+y)/(2 sqrt(tau)))

    times ``exp(-m**2 tau)``.  For ``b < 0`` the rewrite splits off the
    bound-state term ``2|b| e^{tau b^2 - |b|(x+y)}`` explicitly.

    Any finite real ``b`` is accepted; positivity of the quantum theory is
    enforced one level up, in :func:`reflecting_kernel`.
    """
    if not (q.x1 > 0.0 and q.y1 > 0.0):
        raise ParameterError("robin_half_line_kernel lives on the positive half-line")
    if math.isinf(b):
        raise ParameterError("use reflecting_kernel for the Dirichlet marker")
    s = q.x1 + q.y1
    tau = q.tau
    value = _gauss(q.x1 - q.y1, tau) + _gauss(s, tau)
    if b != 0.0:
        value -= 2.0 * b * _w_image(b, s, tau)
    return math.exp(-m * m * tau) * value


def robin_half_line_kernel_wform(q, b, m=0.0, spec=_KERNEL_SPEC):
    """Secondary oracle: the same kernel with the coupling term kept as the
    ``w``-integral ``(b/sqrt(pi tau)) int_0^inf e^{-b w - (w+x+y)^2/(4 tau)} dw``."""
    if not (q.x1 > 0.0 and q.y1 > 0.0):
        raise ParameterError("robin_half_line_kernel_wform lives on the positive half-line")
    s = q.x1 + q.y1
    tau = q.tau
    value = _gauss(q.x1 - q.y1, tau) + _gauss(s, tau)
    if b != 0.0:
        integral, _ = integrate_semi_infinite(
            lambda w: math.exp(-b * w - (w + s) ** 2 / (4.0 * tau)), spec
        )
        value -= b / math.sqrt(math.pi * tau) * integral
    return math.exp(-m * m * tau) * value


def reflecting_kernel(q, bc, m=0.0):
    """Heat kernel of the reflecting wall; vanishes across the wall.

    Dispatches to the half-line kernel with the face coupling of the side
    both points lie on (coordinates reflected for the negative side), or
    to the Dirichlet closed form for a hard face.
    """
    bc.check_positive(m)
    if q.x1 * q.y1 < 0.0:
        return 0.0
    b, x, y = bc.side(q.x1), abs(q.x1), abs(q.y1)
    if math.isinf(b):
        return math.exp(-m * m * q.tau) * (_gauss(x - y, q.tau) - _gauss(x + y, q.tau))
    return robin_half_line_kernel(HeatQuery(q.tau, x, y), b, m)


def spectral_oracle_robin(q, b, m=0.0, spec=_SPECTRAL_SPEC):
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

    value, _ = integrate_finite(integrand, 0.0, kmax, spec)
    value *= 2.0 / math.pi
    if b < 0.0:
        value += 2.0 * abs(b) * math.exp(tau * b * b - abs(b) * (x + y))
    return math.exp(-m * m * tau) * value


def _mix_weight_delta(bc, x1, y1):
    """Off-diagonal image weight L(x1, y1) of the ``beta = 0`` family."""
    ts = bc.trace_sum
    if x1 * y1 > 0.0:
        return complex((bc.alpha - bc.sigma_param) / ts * sign(x1))
    w = complex(bc.omega)
    return -(1.0 - 2.0 * (w.real + sign(x1) * 1j * w.imag) / ts)


def _mix_weights_delta_prime(bc, x1, y1):
    """Image weights (M_plus, M_minus) of the ``beta != 0`` family.

    These are fixed by requiring the kernel to satisfy the transfer
    relation at the wall; they are validated against a scattering-state
    eigenfunction expansion (see the test suite), which they match at
    machine precision for every side combination and complex ``omega``.
    """
    lam_p, lam_m = bc.lambda_pm()
    root = math.hypot(bc.alpha - bc.sigma_param, 2.0)
    sb = math.copysign(1.0, bc.beta)
    out = []
    for lam in (lam_p, lam_m):
        if x1 * y1 > 0.0:
            val = bc.trace_sum * lam - 2.0 * bc.gamma_coupling \
                - (bc.alpha - bc.sigma_param) * lam * sign(x1)
            out.append(complex(-sb / root * val))
        else:
            w = complex(bc.omega)
            val = 2.0 * lam * (w.real + sign(x1) * 1j * w.imag)
            out.append(sb / root * val)
    return out[0], out[1]


def semitransparent_kernel(q, bc, m=0.0):
    r"""Heat kernel of the semitransparent wall (complex valued in general).

    Free Gaussian plus image terms weighted by the mixing coefficients of
    the matching coupling family.  The ``w``-integrals
    ``(4 pi tau)^{-1/2} int_0^inf e^{-c w - (w+|x|+|y|)^2/(4 tau)} dw`` take
    the closed form ``e^{-s^2/(4 tau)} erfcx(c sqrt(tau) + s/(2 sqrt(tau)))/2``
    with ``s = |x| + |y|``, shared with :func:`robin_half_line_kernel`.
    Hermitian (``K(x, y) = conj(K(y, x))``) and real whenever
    ``Im omega = 0`` or both points are on the same side.
    """
    bc.check_positive(m)
    tau, x, y = q.tau, q.x1, q.y1
    s = abs(x) + abs(y)
    g_img = _gauss(s, tau)
    value = complex(_gauss(x - y, tau))
    if bc.is_delta_family:
        mix = _mix_weight_delta(bc, x, y)
        value += mix * g_img
        c = bc.delta_ratio
        if c != 0.0:
            value -= c * (1.0 + mix) * _w_image(c, s, tau)
    else:
        lam_p, lam_m = bc.lambda_pm()
        value += sign(x) * sign(y) * g_img
        m_p, m_m = _mix_weights_delta_prime(bc, x, y)
        if m_p != 0.0:
            value += m_p * _w_image(lam_p, s, tau)
        if m_m != 0.0:
            value -= m_m * _w_image(lam_m, s, tau)
    return cmath.exp(-m * m * tau) * value
