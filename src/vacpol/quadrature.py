"""Adaptive quadrature for semi-infinite, exponentially damped integrands.

Thin contract layer over QUADPACK (``scipy.integrate.quad``, imported on
the first call): semi-infinite ranges are transformed onto ``(0, 1]`` by
the rational map and subdivided adaptively with Gauss-Kronrod panels.
Unlike the raw scipy call, failure to meet the requested tolerance raises
:class:`~vacpol.errors.NumericalFailureError` carrying the best estimate,
instead of returning a silently inaccurate number.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, ParameterError

__all__ = ["QuadSpec", "DEFAULT_SPEC", "integrate_semi_infinite", "integrate_finite"]


@dataclass(frozen=True)
class QuadSpec:
    """Tolerance / budget contract for one integral.

    ``rel_tol`` below ~1e-13 is rejected by QUADPACK itself; use
    ``abs_tol`` close to zero (e.g. ``1e-300``) for purely relative control
    of integrals with tiny absolute magnitude.
    """

    abs_tol: float = 1e-11
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ParameterError("QuadSpec tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ParameterError("QuadSpec needs max_subdivisions >= 1")


DEFAULT_SPEC = QuadSpec()


def _run(f, a, b, spec):
    # imported here: only the heat-kernel oracles and validation integrate,
    # and the import costs more than a whole batch of plane terms
    from scipy.integrate import quad

    out = quad(
        f,
        a,
        b,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    value, err_estimate = out[0], out[1]
    if len(out) > 3:  # QUADPACK warning: budget exhausted or roundoff-limited
        bound = max(spec.abs_tol, spec.rel_tol * abs(value))
        if not err_estimate <= bound:
            raise NumericalFailureError(
                f"quadrature on [{a}, {b}] stopped at error {err_estimate:.3e} "
                f"(target {bound:.3e}): {out[3]}",
                best_estimate=value,
                error_bound=err_estimate,
            )
    return value, err_estimate


def integrate_semi_infinite(f, spec=DEFAULT_SPEC):
    """Integrate ``f`` over ``(0, inf)``.

    ``f`` must be continuous on the open half-line and decay at least
    exponentially; a logarithmic singularity at the origin is handled by
    the adaptive subdivision.

    Returns
    -------
    (value, err_estimate) : tuple of float
        ``err_estimate`` bounds ``|value - true integral|``.
    """
    return _run(f, 0.0, np.inf, spec)


def integrate_finite(f, a, b, spec=DEFAULT_SPEC):
    """Integrate ``f`` over ``[a, b]`` under the same tolerance contract."""
    if not a < b:
        raise ParameterError(f"integrate_finite needs a < b, got [{a}, {b}]")
    return _run(f, a, b, spec)
