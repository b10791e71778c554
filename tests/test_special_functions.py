import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from nonlocal_spectra.special_functions import (GAMMAINC_REL_ERR, bessel_k,
                                                bessel_k_grid)


def bessel_k_paper_form(xi, z):
    """Independent oracle: direct adaptive quadrature of the defining
    t-integral (1/2)(z/2)^xi int t^(-xi-1) exp(-t - z^2/(4t)) dt."""
    f = lambda t: t ** (-xi - 1) * math.exp(-t - z * z / (4.0 * t))
    val, _ = integrate.quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13,
                            limit=400)
    return 0.5 * (z / 2.0) ** xi * val


class TestBesselK:
    def test_half_order_closed_forms(self):
        # K_{1/2}(z) = sqrt(pi/(2z)) e^-z, itself cross-checked against the
        # direct quadrature oracle.
        assert bessel_k(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12)
        assert bessel_k(0.5, 2.0) == pytest.approx(
            math.sqrt(math.pi / 4.0) * math.exp(-2.0), rel=1e-12)
        assert bessel_k_paper_form(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-10)

    def test_three_halves_recurrence_value(self):
        # K_{3/2}(z) = K_{1/2}(z) (1 + 1/z) at z = 1.
        assert bessel_k(1.5, 1.0) == pytest.approx(
            2.0 * math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("xi,z", [(0.0, 0.3), (1.0, 1.0), (2.25, 4.0),
                                      (0.75, 0.01), (1.5, 12.0)])
    def test_matches_paper_integral_representation(self, xi, z):
        assert bessel_k(xi, z) == pytest.approx(bessel_k_paper_form(xi, z),
                                                rel=1e-9)

    def test_recurrence_on_sample_lattice(self):
        # K_{xi+1}(z) = K_{xi-1}(z) + (2 xi / z) K_xi(z)
        zs = np.geomspace(0.1, 10.0, 25)
        for xi in (0.5, 1.0, 1.5, 2.5):
            up = bessel_k_grid(xi + 1.0, zs)
            # K is even in its order, so K_{xi-1} = K_{|xi-1|}.
            down = bessel_k_grid(abs(xi - 1.0), zs)
            mid = bessel_k_grid(xi, zs)
            assert np.max(np.abs((down + 2.0 * xi / zs * mid) / up - 1.0)) < 1e-8

    def test_derivative_identity_central_difference(self):
        # dK_xi/dz = -(K_{xi+1} + K_{xi-1})/2
        h = 1e-5
        for xi in (0.5, 1.0, 1.5, 2.5):
            for z in (0.5, 1.0, 3.0, 7.0):
                fd = (bessel_k(xi, z + h) - bessel_k(xi, z - h)) / (2.0 * h)
                ident = -(bessel_k(xi + 1.0, z)
                          + bessel_k(abs(xi - 1.0), z)) / 2.0
                assert fd == pytest.approx(ident, rel=1e-6)

    def test_small_argument_asymptotics(self):
        # K_xi(z) z^xi -> 2^(xi-1) Gamma(xi) as z -> 0.
        z = 1e-3
        for xi in (0.75, 1.0, 1.5):
            limit = 2.0 ** (xi - 1.0) * math.gamma(xi)
            assert bessel_k(xi, z) * z ** xi == pytest.approx(limit, rel=0.02)

    def test_positive_and_decreasing(self):
        zs = np.geomspace(0.05, 30.0, 40)
        for xi in (0.0, 0.5, 2.0):
            vals = bessel_k_grid(xi, zs)
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) < 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(1.0, -2.0)
        with pytest.raises(ValueError):
            bessel_k(-0.5, 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_kernel_orders_match_mpmath(self, d, alpha):
        # The orders the kernel layer requests: xi - 1 (sigma), xi (j) and
        # xi + 1 (j'), with xi = (d + alpha)/2.  K is even in its order.
        xi = (d + alpha) / 2.0
        zs = np.geomspace(1e-3, 60.0, 40)
        for order in (xi - 1.0, xi, xi + 1.0):
            with mpmath.workdps(30):
                ref = np.array([float(mpmath.besselk(abs(order), z))
                                for z in zs])
            assert np.max(np.abs(bessel_k_grid(order, zs) / ref - 1.0)) < 1e-12

    @pytest.mark.parametrize("a", [1.5001, 2.0, 2.75, 3.4999])
    def test_gammainc_within_stated_bound(self, a):
        # sigma's orders a = xi + 1, xi = (d + alpha)/2 in (0.5, 2.5).
        zs = np.geomspace(1e-12, 1e4, 60)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.gammainc(a, 0, z, regularized=True))
                            for z in zs])
        assert np.max(np.abs(special.gammainc(a, zs) / ref - 1.0)) \
            <= GAMMAINC_REL_ERR

    @settings(max_examples=20, deadline=None)
    @given(xi=st.floats(-0.45, 3.0), z=st.floats(0.1, 20.0))
    def test_recurrence_property(self, xi, z):
        lhs = bessel_k(xi + 1.0, z)
        rhs = bessel_k(abs(xi - 1.0), z) + 2.0 * xi / z * bessel_k(abs(xi), z)
        assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-12)

    @pytest.mark.parametrize("xi", [2.225073858507e-311, -1e-310, 5e-324])
    def test_subnormal_order_gives_k0(self, xi):
        # scipy.special.kv is nan or inf at subnormal orders; K_xi = K_0 there.
        zs = np.array([0.5, 1.0, 20.0])
        k0 = bessel_k_grid(0.0, zs)
        assert bessel_k(xi, 1.0) == k0[1]
        assert np.array_equal(bessel_k_grid(xi, zs), k0)

