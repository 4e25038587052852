"""Renormalized vacuum polarization of a scalar field near a flat wall.

Library layout:

* :mod:`vacpol.specialfns` -- weighted Bessel K, incomplete Gamma, erf;
* :mod:`vacpol.quadrature` -- adaptive integration with a failure contract;
* :mod:`vacpol.heatkernel` -- reduced heat kernels for both wall families,
  plus the spectral oracle;
* :mod:`vacpol.reflecting` / :mod:`vacpol.semitransparent` -- the
  renormalized polarization, its regulator continuation, asymptotic laws
  and massless limits, each wall mapped to one :class:`vacpol.core.ImageSum`;
* :mod:`vacpol.validation` -- every library invariant as a named check;
* :mod:`vacpol.cli` -- the ``vacpol`` command.
"""

from . import reflecting, semitransparent
from .core import FieldConfig, LaurentFit, PolarizationValue, SpectrumReport
from .errors import (
    InfraredDivergenceError,
    NumericalFailureError,
    ParameterError,
    PoleError,
    VacpolError,
)
from .heatkernel import DIRICHLET, HeatQuery, ReflectingBC, SemitransparentBC
from .quadrature import QuadSpec, integrate_finite, integrate_semi_infinite

__version__ = "0.1.0"

__all__ = [
    "FieldConfig",
    "PolarizationValue",
    "SpectrumReport",
    "LaurentFit",
    "DIRICHLET",
    "HeatQuery",
    "ReflectingBC",
    "SemitransparentBC",
    "QuadSpec",
    "integrate_finite",
    "integrate_semi_infinite",
    "reflecting",
    "semitransparent",
    "VacpolError",
    "ParameterError",
    "PoleError",
    "InfraredDivergenceError",
    "NumericalFailureError",
    "__version__",
]
