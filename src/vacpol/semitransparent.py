r"""Renormalized vacuum polarization for the semitransparent wall.

Same ``free + plane`` split as the reflecting case (the free term is
literally the same function).  The plane term of each coupling family is
a :class:`~vacpol.core.ImageSum`, which evaluates every observable below:

* ``beta = 0`` (delta family), with ``L = (alpha-sigma)/(alpha+sigma) sgn(x1)``
  and effective coupling ``c = gamma/(alpha+sigma)``: head ``L`` and the
  image ``(-2(1+L) c, c)``, i.e. a reflecting face of weight ``L``;
* ``beta != 0`` (delta-prime family), with rates ``Lambda_+-`` and the
  diagonal image weights ``M_+-``: head 1 and the images
  ``(2 M_+, Lambda_+)``, ``(-2 M_-, Lambda_-)``.

The two families do not connect continuously; dispatch happens at
``|beta| < 1e-12`` and is never blended.  A distinguished feature of the
pure delta wall (``alpha = sigma``) is the softening of the near-wall
divergence: the leading small-``x1`` term vanishes identically.
"""

from dataclasses import dataclass

from . import core
from .core import PolarizationValue, SpectrumReport, _per_side, _point_images, sign
from .errors import InfraredDivergenceError

__all__ = [
    "SpectrumReport",
    "DiagonalCoefficients",
    "free_term",
    "spectrum",
    "diagonal_coefficients",
    "plane_term",
    "plane_term_oracle",
    "regularized_polarization",
    "regularized_polarization_oracle",
    "laurent_coefficients",
    "renormalize_at_zero",
    "small_x_asymptotic",
    "large_x_asymptotic",
    "massless_value",
]


@dataclass(frozen=True)
class DiagonalCoefficients:
    """Diagonal image weights of the heat kernel at coincident points.

    ``L`` belongs to the ``beta = 0`` family (odd in ``x1``, zero for the
    pure delta wall ``alpha = sigma``), ``M_plus``/``M_minus`` to the
    ``beta != 0`` family; the weights of the other family are ``None``.
    They are independent of the phase ``omega``, which enters only
    off-diagonal.
    """

    L: float | None
    M_plus: float | None = None
    M_minus: float | None = None


def diagonal_coefficients(bc, x1):
    """Evaluate the diagonal image weights at signed distance ``x1``.

    The ``beta != 0`` weights follow the kernel normalization fixed by the
    wall's transfer relation (validated against a scattering-state
    expansion); on the diagonal they reduce to

        M_pm = -sgn(beta)/sqrt((alpha-sigma)^2+4)
               * [(alpha+sigma) L_pm - 2 gamma - (alpha-sigma) L_pm sgn(x1)],

    which satisfies ``1 + M_plus/L_plus - M_minus/L_minus = -1`` whenever
    both rates are nonzero.  They are the weights of ``bc.images(x1, x1)``.
    """
    sx = sign(x1)
    if bc.is_delta_family:
        return DiagonalCoefficients(L=bc._weight_L(sx))
    return DiagonalCoefficients(None, *(bc._weight_M(lam, sx) for lam in bc.lambda_pm()))


def spectrum(bc, m):
    """Spectrum and positivity verdict of the semitransparent operator.

    ``beta = 0``: one eigenvalue ``m^2 - (gamma/(alpha+sigma))^2`` iff the
    effective coupling is negative.  ``beta != 0``: eigenvalues
    ``m^2 - Lambda_-^2`` (iff ``Lambda_- < 0``) and additionally
    ``m^2 - Lambda_+^2`` (iff ``Lambda_+ < 0``).
    """
    rates = dict(bc.rates())
    return SpectrumReport.from_rates(
        m, tuple(rates.values()), rates.get("Lambda_plus"), rates.get("Lambda_minus")
    )


def free_term(cfg):
    """Constant bulk contribution, identical for every boundary condition
    (:func:`vacpol.core.free_term`)."""
    return core.free_term(cfg)


def plane_term(cfg, bc, x1):
    """Boundary contribution of the semitransparent wall at signed ``x1``, a
    float or a 1-D array of distances (one batch per side, as in
    :func:`vacpol.reflecting.plane_term`)."""
    return _per_side(cfg, bc, x1, "plane_term")


def plane_term_oracle(cfg, bc, x1):
    """Independent oracle of :func:`plane_term` from its proper-time
    representation (see :func:`vacpol.reflecting.plane_term_oracle`); a
    float or a 1-D array of distances, one batch per side."""
    return _per_side(cfg, bc, x1, "plane_term_oracle")


def regularized_polarization(cfg, bc, x1, u):
    """Analytic continuation to real ``u`` (same contracts as the
    reflecting version: poles at ``u = d-1-2l``, strip consistency,
    Laurent renormalization, the refusal of cancelling parts)."""
    return _point_images(cfg, bc, x1).regularized_polarization(cfg, x1, u)


def regularized_polarization_oracle(cfg, bc, x1, u):
    """Direct proper-time representation in the strip ``u > d - 1``."""
    return _point_images(cfg, bc, x1).regularized_polarization_oracle(cfg, x1, u)


def laurent_coefficients(cfg, bc, x1):
    """Laurent data of the continuation at ``u = 0`` (four-point stencil)."""
    return _point_images(cfg, bc, x1).laurent_coefficients(cfg, x1)


def _branch_label(cfg, bc):
    family = "delta" if bc.is_delta_family else "delta-prime"
    parity = "even" if cfg.d % 2 == 0 else "odd"
    return f"semitransparent/{family}, d={cfg.d} ({parity})"


def renormalize_at_zero(cfg, bc, x1):
    """Regular part at ``u = 0`` cross-checked against the closed forms
    (same contract as the reflecting version)."""
    return _point_images(cfg, bc, x1).renormalize_at_zero(cfg, x1, _branch_label(cfg, bc))


def small_x_asymptotic(cfg, bc, x1):
    """Leading near-wall behaviour.

    ``beta = 0``: the reflecting-type leading term multiplied by
    ``sgn(x1) (alpha-sigma)/(alpha+sigma)`` -- identically zero for the
    pure delta wall (divergence softening).  ``beta != 0``: coefficient 1,
    coinciding with the reflecting leading term for every ``d``.  ``x1`` is
    a float or a 1-D array (see :func:`vacpol.reflecting.small_x_asymptotic`).
    """
    return _per_side(cfg, bc, x1, "small_x_asymptotic")


def large_x_asymptotic(cfg, bc, x1):
    """Leading exponential decay far from the wall (family-specific coupling
    ratio times the shared ``e^{-2m|x1|}/|x1|^{d/2}`` envelope); ``x1`` is a
    float or a 1-D array."""
    return _per_side(cfg, bc, x1, "large_x_asymptotic")


def massless_value(cfg, bc, x1):
    r"""Massless limit of ``free + plane`` where it exists.

    ``d = 1`` requires the delta family with strictly positive effective
    coupling (``beta != 0`` and the delta wall with ``gamma = 0`` are both
    infrared divergent):

        (1/2 pi) [log(2 kappa |x1|) - EULER_GAMMA
                  + (1 + L) e^{2 c |x1|} Gamma(0, 2 c |x1|)],  c = gamma/(alpha+sigma).

    ``d >= 2``: the incomplete-Gamma closed forms of both families, built
    from the overflow-safe product ``w^{d-1} e^w Gamma(2-d, w)``.  At
    ``Lambda_- = 0`` the ``M_-`` weight vanishes identically (that rate
    only occurs for ``gamma = 0``), so the apparently singular
    ``Gamma(2-d, 0)`` term carries a zero coefficient and is dropped.
    """
    value = _point_images(cfg, bc, x1).massless_value(cfg, x1)  # rejects m > 0 first
    if cfg.d == 1:
        if not bc.is_delta_family:
            raise InfraredDivergenceError(
                "massless d = 1 semitransparent theory is infrared divergent for beta != 0"
            )
        if bc.delta_ratio == 0.0:
            raise InfraredDivergenceError(
                "massless d = 1 delta family with gamma = 0 is infrared divergent "
                "(Neumann-like)"
            )
    return PolarizationValue.build(0.0, value, _branch_label(cfg, bc) + ", massless")
