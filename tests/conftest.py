"""Shared helpers: independent oracles that reuse none of the library's
closed-form code paths."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad


@pytest.fixture(autouse=True)
def _silence_slow_decay_warnings():
    # bound-state couplings legitimately warn; keep test output readable
    import warnings

    from vacpol.errors import SlowDecayWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowDecayWarning)
        yield


def scattering_kernel(bc, tau, x, y, kmax=None):
    """Massless wall kernel from first principles: a superposition of
    left/right-incident scattering states of the transfer-matrix boundary
    condition, integrated against the Gaussian weight.

    Valid when no bound state exists (``Lambda_minus >= 0`` for the
    ``beta != 0`` family, nonnegative effective coupling for ``beta = 0``).
    """
    if kmax is None:
        kmax = 12.0 / math.sqrt(tau)
    w = complex(bc.omega)
    t11, t12 = w * bc.alpha, w * bc.beta
    t21, t22 = w * bc.gamma_coupling, w * bc.sigma_param

    def states(k):
        ik = 1j * k
        m_left = np.array([[t11 - t12 * ik, -1.0], [t21 - t22 * ik, -ik]], dtype=complex)
        r1, t1 = np.linalg.solve(m_left, -np.array([t11 + t12 * ik, t21 + t22 * ik], dtype=complex))
        m_right = np.array([[t11 - t12 * ik, -1.0], [t21 - t22 * ik, -ik]], dtype=complex)
        t2, r2 = np.linalg.solve(m_right, np.array([1.0, -ik], dtype=complex))
        return (r1, t1), (r2, t2)

    def psi_left(k, xx, r, t):
        if xx < 0:
            return cmath.exp(1j * k * xx) + r * cmath.exp(-1j * k * xx)
        return t * cmath.exp(1j * k * xx)

    def psi_right(k, xx, r, t):
        if xx > 0:
            return cmath.exp(-1j * k * xx) + r * cmath.exp(1j * k * xx)
        return t * cmath.exp(-1j * k * xx)

    def integrand(k, part):
        (r1, t1), (r2, t2) = states(k)
        val = psi_left(k, x, r1, t1) * psi_left(k, y, r1, t1).conjugate()
        val += psi_right(k, x, r2, t2) * psi_right(k, y, r2, t2).conjugate()
        val *= math.exp(-tau * k * k) / (2.0 * math.pi)
        return val.real if part == "re" else val.imag

    re, _ = quad(lambda k: integrand(k, "re"), 0, kmax, limit=800, epsabs=1e-12, epsrel=1e-11)
    im, _ = quad(lambda k: integrand(k, "im"), 0, kmax, limit=800, epsabs=1e-12, epsrel=1e-11)
    return complex(re, im)


def edge_extrapolate(f, h):
    """Quadratic extrapolation of (f, f') to 0 from samples at h, 2h, 3h."""
    f1, f2, f3 = f(h), f(2.0 * h), f(3.0 * h)
    return 3.0 * f1 - 3.0 * f2 + f3, (-5.0 * f1 + 8.0 * f2 - 3.0 * f3) / (2.0 * h)
