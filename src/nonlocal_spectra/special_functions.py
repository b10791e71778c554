"""Special functions backing the jump-kernel layer.

The central object is the modified Bessel function of the third kind,

    K_xi(z) = (1/2) (z/2)^xi * int_0^inf t^(-xi-1) exp(-t - z^2/(4t)) dt,
    z > 0, xi > -1/2,

the integral representation the paper uses.  Production values come from
scipy.special.kv (D. E. Amos, "Algorithm 644", ACM TOMS 12, 1986); the
t-integral above is evaluated by direct quadrature only in the test suite,
as an independent oracle next to mpmath.besselk.

Also provided: the one absolute and relative tolerance at which the kernel
layer evaluates its integrals, and the exception a quadrature raises when
it misses them.
"""

import numpy as np
from scipy import special


class QuadratureError(Exception):
    """Quadrature failed to meet its tolerance within the evaluation budget.

    Carries the best partial value and the estimated error so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


ABS_TOL = 1e-12
REL_TOL = 1e-10

# Relative error bound of kv and of kernels built from it; against mpmath,
# kv is off by up to 2.8e-14 (orders 0.75-3, z in [0.05, 20], worst near 2).
KV_REL_ERR = 1e-13

_TINY = np.finfo(float).tiny


def _kv(xi, z):
    # scipy.special.kv returns nan or inf for subnormal orders.  K is even
    # and analytic in its order, K_xi = K_0 + O(xi^2), so an order below the
    # smallest normal double gives K_0 to full double precision.
    if abs(xi) < _TINY:
        xi = 0.0
    return special.kv(xi, z)


def bessel_k(xi, z):
    """Modified Bessel function of the third kind K_xi(z).

    Parameters
    ----------
    xi : real order, > -1/2 (K is even in xi)
    z : real argument, > 0

    Raises
    ------
    ValueError for out-of-domain arguments.
    """
    if not z > 0:
        raise ValueError(f"bessel_k requires z > 0, got z={z}")
    if not xi > -0.5:
        raise ValueError(f"bessel_k requires order xi > -1/2, got xi={xi}")
    return float(_kv(xi, z))


def bessel_k_grid(xi, z):
    """Vectorized K_xi over an array of z > 0; returns an ndarray.

    Tight inner loops in the kernel layer use this path.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z <= 0):
        raise ValueError("bessel_k_grid requires z > 0")
    if not xi > -0.5:
        raise ValueError(f"bessel_k_grid requires order xi > -1/2, got xi={xi}")
    return _kv(xi, z)
