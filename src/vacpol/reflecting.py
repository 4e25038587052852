r"""Renormalized vacuum polarization for the perfectly reflecting wall.

The renormalized value splits as ``free_term + plane_term``.  The free
term is the constant bulk contribution (it carries the whole dependence on
the renormalization scale ``kappa`` in odd dimension and cancels the
infrared divergence of the massless ``d = 1`` theory); the plane term

    plane(x1) = P(d, x1) * [ F((d-1)/2, 2 m |x1|)
        - 4 b |x1| int_0^inf dv e^{-2 b |x1| v} (v+1)^{1-d} F((d-1)/2, 2 m |x1| (v+1)) ],

with ``F(nu, w) = w^nu K_nu(w)``, ``P = 1/(2^{(3d-1)/2} pi^{(d+1)/2} |x1|^{d-1})``
and ``b`` the Robin coupling of the face on the side of ``x1``, carries all
the boundary dependence.  Neumann (``b = 0``) and Dirichlet reduce to
``+/- P * F``: as a :class:`~vacpol.core.ImageSum`, which evaluates every
observable below, the face is head ``+1`` with the image ``(-4b, b)``, or
head ``-1``.  Every closed form here is cross-checked by an independent
oracle that integrates the underlying proper-time representation
directly.

Conventions: ``x1`` is the signed distance from the wall and must be
finite and nonzero; couplings must satisfy ``b > -m`` (``b >= 0`` when
``m = 0``).
"""

import math

from . import core
from .core import PolarizationValue, SpectrumReport, _per_side, _point_images

__all__ = [
    "free_term",
    "plane_term",
    "plane_term_oracle",
    "regularized_polarization",
    "regularized_polarization_oracle",
    "laurent_coefficients",
    "renormalize_at_zero",
    "small_x_asymptotic",
    "large_x_asymptotic",
    "massless_value",
    "spectrum",
]


def free_term(cfg):
    """Constant bulk contribution, identical for every boundary condition
    (:func:`vacpol.core.free_term`)."""
    return core.free_term(cfg)


def plane_term(cfg, bc, x1):
    """Boundary contribution of the reflecting wall at signed distance ``x1``.

    ``x1`` is a float or a 1-D array of distances; an array gives an array,
    evaluated as one batch per distinct face (a float is a batch of one): the
    two sides of equal faces are one batch, in which each distinct ``|x1|``
    is evaluated once.
    """
    return _per_side(cfg, bc, x1, "plane_term")


def plane_term_oracle(cfg, bc, x1):
    r"""Independent evaluation of :func:`plane_term` from its proper-time
    representation.

    Integrates that representation at regulator zero with the divergent
    constant piece (renormalized into the free term) removed:

        1/(2 (4 pi)^{d/2} Gamma(1/2)) int_0^inf dtau tau^{-(d+1)/2} e^{-m^2 tau}
            [ e^{-x1^2/tau} - 2 b int_0^inf dw e^{-b w - (w+2|x1|)^2/(4 tau)} ],

    the inner ``w``-integral in its ``erfcx`` closed form (the heat kernel's
    image term).  The representation and this integrand share nothing with
    the Bessel closed form above; the quadrature rule is the coupling
    integral's trapezoid, here in ``s = ln tau`` with a step that resolves
    the peak at ``tau = |x1|/m``.  ``x1`` is a float or a 1-D array, as for
    :func:`plane_term`: one batch per distinct face.
    """
    return _per_side(cfg, bc, x1, "plane_term_oracle")


def regularized_polarization(cfg, bc, x1, u):
    r"""Analytic continuation of the regularized polarization to real ``u``.

    Meromorphic in ``u`` with simple poles at ``u = d - 1 - 2l``; away from
    the lattice it evaluates the four-term continued representation
    (Gamma-ratio free term, weighted-Bessel image term, and one coupling
    integral per relevant face).  At ``u = 0`` (even ``d``) it reproduces
    ``free_term + plane_term``.  Where the free and plane parts cancel to
    below 1e-8 of the larger (near the wall, far above the poles) it raises
    :class:`~vacpol.errors.NumericalFailureError` carrying the total.
    """
    return _point_images(cfg, bc, x1).regularized_polarization(cfg, x1, u)


def regularized_polarization_oracle(cfg, bc, x1, u):
    """Direct proper-time representation, valid only in the strip ``u > d-1``.

    Used to validate the analytic continuation where both converge.
    """
    return _point_images(cfg, bc, x1).regularized_polarization_oracle(cfg, x1, u)


def laurent_coefficients(cfg, bc, x1):
    """Laurent data of ``u -> regularized_polarization`` at ``u = 0``.

    Four-point stencil ``{+-eps, +-2 eps}``; ``c_m1`` vanishes for even
    ``d`` and equals the (boundary-independent) residue of the Gamma-ratio
    free term for odd ``d``.
    """
    return _point_images(cfg, bc, x1).laurent_coefficients(cfg, x1)


def _branch_label(cfg, bc, x1):
    parity = "even" if cfg.d % 2 == 0 else "odd"
    b = bc.side(x1)
    face = "dirichlet" if math.isinf(b) else ("neumann" if b == 0.0 else f"robin b={b:g}")
    return f"reflecting/{face}, d={cfg.d} ({parity})"


def renormalize_at_zero(cfg, bc, x1):
    """Regular part of the continuation at ``u = 0``, cross-checked against
    the closed forms.

    Even ``d``: direct evaluation at ``u = 0``.  Odd ``d``: ``c0`` of the
    Laurent fit.  Either way the result must match
    ``free_term + plane_term`` within 1e-6 relative to
    ``max(1, |free_term + plane_term|)``, otherwise a
    :class:`~vacpol.errors.NumericalFailureError` is raised; the returned
    value is the exact closed-form split.
    """
    return _point_images(cfg, bc, x1).renormalize_at_zero(cfg, x1, _branch_label(cfg, bc, x1))


def small_x_asymptotic(cfg, bc, x1):
    r"""Leading behaviour of the plane term as the wall is approached.

    ``-log(m|x1|)/(2 pi)`` for ``d = 1``, ``1/(8 pi |x1|)`` for ``d = 2``,
    ``Gamma((d-1)/2)/((4 pi)^((d+1)/2) |x1|^(d-1))`` for ``d >= 3`` --
    independent of any finite coupling; the Dirichlet face flips the sign.
    ``x1`` is a float or a 1-D array, as for :func:`plane_term`.
    """
    return _per_side(cfg, bc, x1, "small_x_asymptotic")


def large_x_asymptotic(cfg, bc, x1):
    r"""Leading exponential decay far from the wall:

        m^((d-2)/2)/(2 (4 pi)^(d/2)) * (m - b)/(m + b) * e^(-2 m |x1|) / |x1|^(d/2),

    with the coupling ratio replaced by ``-1`` for a Dirichlet face; ``x1``
    is a float or a 1-D array, as for :func:`small_x_asymptotic`.
    """
    return _per_side(cfg, bc, x1, "large_x_asymptotic")


def massless_value(cfg, bc, x1):
    r"""Massless limit of ``free + plane`` where it exists.

    ``d = 1`` (the face of ``x1`` Dirichlet or strictly positive Robin; a
    Neumann face is infrared divergent), the zero-mass limit less ``EULER_GAMMA/pi``:

        (1/2 pi) [log(2 kappa |x1|) - EULER_GAMMA + 2 e^{2b|x1|} Gamma(0, 2b|x1|)],

    with the incomplete-Gamma term absent on a Dirichlet face.
    ``d >= 2`` (faces must have ``b >= 0`` or Dirichlet):

        A(d, x1) [1 - 2 (2b|x1|)^{d-1} e^{2b|x1|} Gamma(2-d, 2b|x1|)],

    where ``A = Gamma((d-1)/2)/((4 pi)^((d+1)/2) |x1|^(d-1))``; the bracket
    degenerates to ``+1`` (Neumann) and ``-1`` (Dirichlet).
    """
    value = _point_images(cfg, bc, x1).massless_value(cfg, x1)  # rejects m > 0 first
    return PolarizationValue.build(0.0, value, _branch_label(cfg, bc, x1) + ", massless")


def spectrum(bc, m):
    """Spectrum of the reflecting reduced operator.

    Continuum ``[m**2, inf)`` plus one eigenvalue ``m**2 - b**2`` per face
    with finite negative coupling; positive iff every face has
    ``b > -m`` (or is Dirichlet).
    """
    return SpectrumReport.from_rates(m, tuple(rate for _, rate in bc.rates()))
