import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from nonlocal_spectra.bernstein_kernels import (AssumptionViolationError,
                                                BernsteinSymbol, KernelTable,
                                                build_kernel_table,
                                                heat_kernel,
                                                heat_kernel_profile,
                                                j_massive, j_massless,
                                                j_prime_massive,
                                                kernel_moment,
                                                massless_constant,
                                                relativistic_prefactor,
                                                resolvent_kernel,
                                                second_moment_decay, sigma,
                                                tanh_sinh_quadrature)
from nonlocal_spectra.special_functions import (REL_TOL, QuadratureError,
                                                bessel_k)


class TestTanhSinh:
    def test_endpoint_singularity(self):
        # Node distances from x = 0 are kept exact down to ~1e-25, so the
        # singular end loses nothing to rounding (the error is 7.8e-14).
        val, _ = tanh_sinh_quadrature(lambda x: x ** -0.5, 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=0.0, abs=1e-12)

    def test_log_singularity(self):
        val, _ = tanh_sinh_quadrature(np.log, 0.0, 1.0)
        assert val == pytest.approx(-1.0, rel=1e-10)

    def test_unresolved_integrand_raises_with_partial_value(self):
        # About 1600 periods on [0, 1]; the finest level has ~1000 nodes.
        with pytest.raises(QuadratureError) as info:
            tanh_sinh_quadrature(lambda x: np.sin(1e4 * x), 0.0, 1.0)
        assert np.isfinite(info.value.value)
        assert info.value.error_estimate > 0.0


class TestMasslessKernel:
    def test_constant_d1_alpha1(self):
        # |Gamma(-1/2)| = 2 sqrt(pi) gives c(1,1) = 1/pi.
        assert massless_constant(1, 1.0) == pytest.approx(1.0 / math.pi,
                                                          rel=1e-13)

    def test_values(self):
        assert j_massless(1, 1.0, 1.0) == pytest.approx(1.0 / math.pi,
                                                        rel=1e-13)
        assert j_massless(1, 1.0, 2.0) == pytest.approx(1.0 / (4.0 * math.pi),
                                                        rel=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), alpha=st.floats(0.05, 1.95),
           r=st.floats(0.01, 100.0))
    def test_power_law_ratio(self, d, alpha, r):
        ratio = j_massless(d, alpha, 2.0 * r) / j_massless(d, alpha, r)
        assert ratio == pytest.approx(2.0 ** (-(d + alpha)), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            j_massless(1, 2.0, 1.0)
        with pytest.raises(ValueError):
            j_massless(1, 1.0, 0.0)


class TestMassiveKernel:
    def test_value_at_unit_arguments(self):
        # j_{1,1}(1) = K_1(1)/pi, with K_1(1) from the Bessel oracle.
        assert j_massive(1, 1.0, 1.0, 1.0) == pytest.approx(
            bessel_k(1.0, 1.0) / math.pi, rel=1e-9)

    def test_massless_limit(self):
        val = j_massive(1, 1.0, 1e-6, 1.0)
        assert val == pytest.approx(j_massless(1, 1.0, 1.0), rel=1e-3)

    def test_monotone_and_below_massless(self):
        r = np.geomspace(0.05, 10.0, 30)
        jm = j_massive(1, 1.0, 1.0, r)
        assert np.all(np.diff(jm) < 0)
        assert np.all(jm < j_massless(1, 1.0, r))
        assert np.all(jm > 0)


def sigma_difference_form(d, alpha, m, r):
    """sigma = j_0 - j_m written out at one radius.  It cancels badly at
    small r, so it serves only as a cross-check of the integral form."""
    xi = (d + alpha) / 2.0
    return relativistic_prefactor(d, alpha, 1.0) * (
        2.0 ** (xi - 1.0) * math.gamma(xi) * r ** (-(d + alpha))
        - m ** (xi / alpha) * bessel_k(xi, m ** (1.0 / alpha) * r) / r ** xi)


class TestSigma:
    def test_integral_vs_difference_form(self):
        si = sigma(1, 1.0, 1.0, 1.0)[0][0]
        sd = sigma_difference_form(1, 1.0, 1.0, 1.0)
        assert abs(si - sd) / j_massless(1, 1.0, 1.0) < 1e-8

    @pytest.mark.parametrize("d,alpha,m", [(1, 1.0, 1.0), (2, 0.5, 2.0),
                                           (3, 1.5, 0.5)])
    def test_decomposition_spot(self, d, alpha, m):
        r = np.geomspace(0.05, 20.0, 12)
        rel = np.abs(j_massless(d, alpha, r) - j_massive(d, alpha, m, r)
                     - sigma(d, alpha, m, r)[0]) / j_massless(d, alpha, r)
        assert rel.max() < 1e-8

    def test_nonnegative(self):
        r = np.geomspace(0.05, 30.0, 25)
        assert np.all(sigma(1, 1.0, 1.0, r)[0] >= 0.0)

    def test_ratio_to_massless_at_large_radius(self):
        # j_massive decays exponentially faster, so sigma/j0 -> 1.
        assert sigma(1, 1.0, 1.0, 50.0)[0][0] / j_massless(1, 1.0, 50.0) >= 0.99

    @pytest.mark.parametrize("xi", [0.5001, 0.8, 1.0, 1.7, 2.4999])
    def test_estimates_bound_mpmath_error(self, xi):
        # I(x) = 2^(xi-1) Gamma(xi) - x^xi K_xi(x) at 50 digits, and
        # sigma(r) = C1 r^-(d+alpha) I(r) for m = 1.
        alpha = 2.0 * xi - 1.0 if xi < 1.5 else 2.0 * xi - 3.0
        d = 1 if xi < 1.5 else 3
        r = np.geomspace(1e-10, 1e5, 31)
        with mpmath.workdps(50):
            x = mpmath.mpf(xi)
            exact = np.array([float(2 ** (x - 1) * mpmath.gamma(x) - mpmath.mpf(ri) ** x
                                    * mpmath.besselk(x, ri)) for ri in r])
        values, errs = sigma(d, alpha, 1.0, r)
        scale = relativistic_prefactor(d, alpha, 1.0) * r ** (-(d + alpha))
        assert np.all(np.abs(values - scale * exact) <= errs)
        assert np.all(errs <= 1e-12 * values)


def kernel_moment_oracle(d, alpha, m, k, b):
    """int_0^b r^(k+d-1) j_{m,alpha}(r) dr at 30 digits; r = s^20 flattens
    the r^(k-1-alpha) singularity, which a plain quad on [0, b] misses."""
    with mpmath.workdps(30):
        d, a, m = mpmath.mpf(d), mpmath.mpf(alpha), mpmath.mpf(m)
        xi = (d + a) / 2
        pref = (a * 2 ** ((a - d) / 2) * m ** (xi / a)
                / (mpmath.pi ** (d / 2) * mpmath.gamma(1 - a / 2)))
        j = lambda r: pref * r ** -xi * mpmath.besselk(xi, m ** (1 / a) * r)
        return float(mpmath.quad(lambda s: 20 * s ** 19 * s ** (20 * (k + d - 1))
                                 * j(s ** 20), [0, mpmath.mpf(b) ** 0.05]))


class TestKernelMoment:
    @pytest.mark.parametrize("b", [1e-2, 1.0])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("alpha", [0.5, 1.9])
    def test_massive_against_substituted_oracle(self, alpha, k, d, b):
        symbol = BernsteinSymbol.relativistic(1.0, alpha)
        assert kernel_moment(symbol, d, k, 0.0, b) == pytest.approx(
            kernel_moment_oracle(d, alpha, 1.0, k, b), rel=1e-12)

    def test_massless_closed_form(self, s01):
        # j_{0,1} = 1/(pi r^2) in d = 1.
        assert kernel_moment(s01, 1, 2, 0.0, 0.5) == pytest.approx(
            0.5 / math.pi, rel=1e-15)
        assert kernel_moment(s01, 1, 0, 1.0, np.inf) == pytest.approx(
            1.0 / math.pi, rel=1e-15)


class TestJPrime:
    def test_sign(self):
        assert j_prime_massive(1, 1.0, 1.0, 1.0) < 0.0

    def test_finite_difference_match(self):
        h = 1e-4
        for r in np.linspace(0.2, 5.0, 9):
            fd = (j_massive(1, 1.0, 1.0, r + h)
                  - j_massive(1, 1.0, 1.0, r - h)) / (2.0 * h)
            assert j_prime_massive(1, 1.0, 1.0, r) == pytest.approx(fd,
                                                                    rel=1e-6)

    def test_decay(self):
        assert abs(j_prime_massive(1, 1.0, 1.0, 2.0)) \
            < abs(j_prime_massive(1, 1.0, 1.0, 1.0))


class TestHeatKernel:
    def test_cauchy_closed_form(self, s01):
        for t, x in [(1.0, 0.0), (1.0, 1.0), (0.5, 0.3), (2.0, 5.0)]:
            assert heat_kernel(s01, 1, t, x) == pytest.approx(
                t / (math.pi * (t * t + x * x)), abs=1e-10)

    def test_normalization_massive(self, s11):
        val, _ = integrate.quad(lambda x: heat_kernel(s11, 1, 0.5, x),
                                0.0, 60.0, limit=200)
        assert 2.0 * val == pytest.approx(1.0, abs=1e-4)

    def test_positive_and_radially_non_increasing(self, s11):
        prof, _ = heat_kernel_profile(s11, 1, 0.5, np.linspace(0.0, 8.0, 40))
        assert prof.min() > 0.0
        assert np.all(np.diff(prof) <= 0.0)

    def test_profile_memory_bounded(self, s01):
        radii = np.geomspace(0.01, 12.0, 300)
        tracemalloc.start()
        try:
            prof, _ = heat_kernel_profile(s01, 1, 0.1, radii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        cauchy = 0.1 / (math.pi * (0.01 + radii ** 2))
        assert prof == pytest.approx(cauchy, rel=1e-9)

    def test_semigroup_property(self, s11):
        t, s = 0.3, 0.2
        yg = np.linspace(-30.0, 30.0, 1201)
        hstep = yg[1] - yg[0]
        pt, _ = heat_kernel_profile(s11, 1, t, np.abs(yg))
        for x in (0.0, 0.5, 1.0, 2.0, 4.0):
            ps, _ = heat_kernel_profile(s11, 1, s, np.abs(x - yg))
            conv = float(np.dot(pt, ps)) * hstep
            assert conv == pytest.approx(heat_kernel(s11, 1, t + s, x),
                                         abs=1e-4)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_massive_closed_form(self, s11, d):
        # Phi_{1,1}: p_t(r) = 2 (m/2pi)^nu t e^(mt) K_nu(m rho) / rho^nu,
        # nu = (d+1)/2, rho = sqrt(r^2 + t^2), m = 1.
        t, nu = 0.5, (d + 1) / 2.0
        radii = np.geomspace(0.05, 8.0, 60)
        if d == 3:
            radii = np.concatenate([[0.0], radii])
        rho = np.sqrt(radii ** 2 + t * t)
        exact = (2.0 * (2.0 * math.pi) ** -nu * t * math.exp(t)
                 * special.kv(nu, rho) / rho ** nu)
        prof, _ = heat_kernel_profile(s11, d, t, radii)
        assert prof == pytest.approx(exact, rel=1e-9)
        if d == 3:
            assert heat_kernel(s11, 3, t, [0.0, 0.0, 0.0]) == pytest.approx(
                exact[0], rel=1e-9)

    def test_table_error_estimates_bound_cauchy_error(self, s01):
        t, radii = 0.1, np.geomspace(0.01, 12.0, 1201)
        table = build_kernel_table(s01, "heat", 1, radii, t=t)
        cauchy = t / (math.pi * (t * t + radii ** 2))
        # 9.6e-14 measured; a rounded panel phase r m_p or rounded panel
        # midpoints each push it above 2e-12.
        assert np.max(np.abs(table.values / cauchy - 1.0)) <= 2e-13
        assert np.all(np.abs(table.values - cauchy) <= table.error_estimates)
        assert np.all(table.error_estimates <= REL_TOL * table.values)

    def test_cauchy_closed_form_d3(self, s01):
        # Phi_{0,1} in d = 3: p_t(r) = t / (pi^2 (t^2 + r^2)^2), from r = 0,
        # where the d = 3 sum takes D xi in place of sin(r xi) / r.
        t = 0.1
        radii = np.concatenate([[0.0], np.geomspace(0.01, 12.0, 400)])
        exact = t / (math.pi ** 2 * (t * t + radii ** 2) ** 2)
        prof, errs = heat_kernel_profile(s01, 3, t, radii)
        # 3.1e-12 measured, largest near r = 10, where p_t is 1e-8 p_t(0).
        assert prof == pytest.approx(exact, rel=1e-11)
        assert abs(prof[0] / exact[0] - 1.0) <= 1e-13
        assert np.all(np.abs(prof - exact) <= errs)
        # The roundoff floor follows |sin(r xi) / r| <= min(xi, 1/r).
        assert np.max(errs / exact) <= 5e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_higher_dimension_mass(self, s11, d):
        surf = 2.0 * math.pi if d == 2 else 4.0 * math.pi
        val, _ = integrate.quad(
            lambda r: surf * r ** (d - 1) * heat_kernel(s11, d, 0.5,
                                                        [r] + [0.0] * (d - 1)),
            0.0, 50.0, limit=200)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_assumption_violation_for_bounded_symbol(self):
        # t |xi|^0.1 at |xi| = 2^63 is about 7.9, far short of ln(1e18).
        slow = BernsteinSymbol.relativistic(0.0, 0.1)
        with pytest.raises(AssumptionViolationError):
            heat_kernel(slow, 1, 0.1, 0.0)

    def test_domain_error(self, s01):
        with pytest.raises(ValueError):
            heat_kernel(s01, 1, 0.0, 0.0)


# G_1 in d = 1 for (m, alpha) at r = 0.3, 1, 4: mpmath sums the integral
# (1/pi) int_0^inf cos(r xi) / (1 + Phi(xi^2)) dxi piecewise between
# consecutive zeros of cos(r xi), as an alternating series (quadosc is off
# by 2e-8 for Phi_{0,0.5}):
#     mp.mp.dps = 30
#     m, alpha, r = mp.mpf(m), mp.mpf(alpha), mp.mpf(r)
#     f = lambda x: mp.cos(r * x) / (1 + (x * x + m ** (2 / alpha))
#                                    ** (alpha / 2) - m)
#     h = mp.pi / r
#     term = lambda k: mp.quad(f, [0, h / 2] if k == 0
#                              else [(k - 0.5) * h, (k + 0.5) * h])
#     mp.nsum(term, [0, mp.inf], method="alternating") / mp.pi
# Phi_{0,1} also matches (Ci(r) cos r + (Si(r) - pi/2) sin r) / -pi to 25
# digits.
RESOLVENT_D1_ORACLE = {
    (1.0, 0.5): [0.362078320069285788379413, 0.07971067078293045921173591,
                 0.001470584654804892128842228],
    (0.0, 1.0): [0.3170896990365550998803199, 0.1093005998610483375339673,
                 0.01581304805283752416138785],
    (0.0, 0.5): [0.1936973110305488218790886, 0.05932189298547370072644389,
                 0.01241219627610300592264282],
    (2.0, 1.0): [0.4968619680770640667846711, 0.1185814080634354854107846,
                 0.0005770532073249631121532909],
}


def stieltjes_oracle(m, alpha, d, r):
    """G_1(r) as a 30-digit mpmath quadrature of the Stieltjes integral
    int sigma(ds) Y_d(s, r) (resolvent_kernel's docstring), integrand times
    e^(k_min r): mpmath's tolerance is absolute, and G_1 can be 1e-134."""
    with mpmath.workdps(30):
        m, alpha, r = mpmath.mpf(m), mpmath.mpf(alpha), mpmath.mpf(r)
        M, phase = m ** (2 / alpha), mpmath.expjpi(-alpha / 2)
        gap = (m - 1) ** (2 / alpha) if m > 1 else 0
        scale = mpmath.exp(mpmath.sqrt(M - gap) * r)
        yukawa = (lambda k: mpmath.exp(-k * r) / (2 * k),
                  lambda k: mpmath.besselk(0, k * r) / (2 * mpmath.pi),
                  lambda k: mpmath.exp(-k * r) / (4 * mpmath.pi * r))[d - 1]
        density = lambda u: (2 * u / mpmath.pi
                             * mpmath.im(1 / (1 - m + u ** alpha * phase)))
        breaks = [0] + [mpmath.mpf(10) ** k for k in range(-30, 6)] + [mpmath.inf]
        integrand = lambda u: scale * density(u) * yukawa(mpmath.sqrt(M + u * u))
        total = mpmath.quad(integrand, breaks, maxdegree=10)
        if m > 1:
            total += scale * gap / (m - 1) / (alpha / 2) * yukawa(mpmath.sqrt(M - gap))
        return total / scale


class TestResolventKernel:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_below_double_range(self, d):
        # Phi_{2,0.1}: M = 2^20, so G_1 ~ e^(-1024 r) is about 1e-133 at
        # r = 0.3, subnormal at r = 0.7 and below every double at r = 1.
        radii = [0.3, 0.7, 1.0]
        values, errs = resolvent_kernel(BernsteinSymbol.relativistic(2.0, 0.1),
                                        d, radii)
        exact = [stieltjes_oracle(2.0, 0.1, d, r) for r in radii]
        assert values[0] == pytest.approx(float(exact[0]), rel=1e-12)
        assert errs[0] <= REL_TOL * values[0]
        assert 0.0 < values[1] < np.finfo(float).tiny
        assert values[2] == 0.0
        for value, err, oracle in zip(values, errs, exact):
            assert abs(mpmath.mpf(value) - oracle) <= err

    def test_value_against_time_integral_oracle(self, s01):
        # G_1(1) = int_0^inf e^-t t/(pi (t^2+1)) dt via the Cauchy density.
        oracle, _ = integrate.quad(
            lambda t: math.exp(-t) * t / (math.pi * (t * t + 1.0)),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400)
        values, _ = resolvent_kernel(s01, 1, [1.0])
        assert values[0] == pytest.approx(oracle, rel=1e-12)

    def test_monotonicity(self, s01):
        values, _ = resolvent_kernel(s01, 1, [1.0, 2.0])
        assert values[0] > values[1]

    def test_origin_rejected(self, s01):
        with pytest.raises(ValueError):
            resolvent_kernel(s01, 1, [0.0, 1.0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_phi11_closed_form(self, s11, d):
        # 1 + Phi_{1,1}(|xi|^2) = sqrt(1 + |xi|^2): a Bessel potential.
        radii = np.geomspace(0.1, 10.0, 50)
        closed = (lambda r: mpmath.besselk(0, r) / mpmath.pi,
                  lambda r: mpmath.exp(-r) / (2 * mpmath.pi * r),
                  lambda r: mpmath.besselk(1, r) / (2 * mpmath.pi ** 2 * r))[d - 1]
        exact = np.array([float(closed(mpmath.mpf(r))) for r in radii])
        values, errs = resolvent_kernel(s11, d, radii)
        assert values == pytest.approx(exact, rel=1e-12)
        assert np.all(np.abs(values - exact) <= errs)
        assert np.all(errs <= REL_TOL * values)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1.5, 1.9])
    def test_bessel_potential_closed_form(self, alpha, d):
        # 1 + Phi_{1,alpha} = (1 + |xi|^2)^(alpha/2), whose kernel is the Bessel
        # potential; its sigma density (2/pi) sin(pi alpha/2) u^(1-alpha) is
        # singular at u = 0.
        radii = np.geomspace(0.01, 20.0, 12)
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            exact = np.array([float(
                2 ** (1 - (d + a) / 2) / (mpmath.pi ** (mpmath.mpf(d) / 2)
                                          * mpmath.gamma(a / 2))
                * r ** ((a - d) / 2) * mpmath.besselk((d - a) / 2, r))
                for r in map(mpmath.mpf, radii)])
        values, errs = resolvent_kernel(BernsteinSymbol.relativistic(1.0, alpha),
                                        d, radii)
        assert values == pytest.approx(exact, rel=1e-12)
        assert np.all(np.abs(values - exact) <= errs)

    @pytest.mark.parametrize("m,alpha", sorted(RESOLVENT_D1_ORACLE))
    def test_d1_against_alternating_series_oracle(self, m, alpha):
        oracle = np.array(RESOLVENT_D1_ORACLE[m, alpha])
        values, errs = resolvent_kernel(BernsteinSymbol.relativistic(m, alpha),
                                        1, [0.3, 1.0, 4.0])
        assert values == pytest.approx(oracle, rel=1e-12)
        assert np.all(np.abs(values - oracle) <= errs)

    @pytest.mark.parametrize("m,alpha", [(0.5, 1.5), (2.0, 1.0)])
    def test_d3_from_d1_radial_identity(self, m, alpha):
        # For a radial symbol, G_3(r) = -(1/(2 pi r)) dG_1/dr; dG_1/dr from a
        # 5-point stencil of step 1e-3 r.  Phi_{2,1} has sigma's atom.
        symbol = BernsteinSymbol.relativistic(m, alpha)
        for r in (0.3, 1.0, 4.0):
            step = 1e-3 * r
            g1, _ = resolvent_kernel(symbol, 1, r + step * np.array([-2, -1, 1, 2]))
            slope = (g1[0] - 8.0 * g1[1] + 8.0 * g1[2] - g1[3]) / (12.0 * step)
            g3, _ = resolvent_kernel(symbol, 3, [r])
            assert g3[0] == pytest.approx(-slope / (2.0 * math.pi * r), rel=1e-9)


class TestSecondMoment:
    def test_massless_closed_form(self, s01):
        # j = 1/(pi r^2) makes r^2 j constant: M(R) = 2/(pi R).
        M = second_moment_decay(s01, 1, [5.0, 10.0, 100.0])
        assert M[1] == pytest.approx(2.0 / (10.0 * math.pi), rel=1e-6)
        assert M[2] / M[1] == pytest.approx(0.1, rel=1e-6)

    def test_massive_decreasing_tail(self, s11):
        M = second_moment_decay(s11, 1, [5.0, 10.0, 20.0, 40.0])
        assert all(b < a for a, b in zip(M, M[1:]))

    def test_input_validation(self, s01):
        with pytest.raises(ValueError):
            second_moment_decay(s01, 1, [5.0])
        with pytest.raises(ValueError):
            second_moment_decay(s01, 1, [5.0, 4.0])


class TestIntegrabilityAssumptions:
    @pytest.mark.parametrize("d,alpha,m", [(1, 0.5, 0.0), (1, 1.0, 1.0),
                                           (2, 1.5, 2.0), (3, 1.0, 0.5)])
    def test_kernel_integrability(self, d, alpha, m):
        # int_0^1 r^(d+1) j dr and int_1^inf r^(d-1) j dr both converge.
        symbol = BernsteinSymbol.relativistic(m, alpha)
        inner, ierr = integrate.quad(
            lambda r: r ** (d + 1) * float(symbol.jump_kernel(d, r)),
            0.0, 1.0, limit=200)
        outer, oerr = integrate.quad(
            lambda r: r ** (d - 1) * float(symbol.jump_kernel(d, r)),
            1.0, np.inf, limit=200)
        assert np.isfinite(inner) and ierr < 1e-6 * (1.0 + inner)
        assert np.isfinite(outer) and oerr < 1e-6 * (1.0 + outer)

    @pytest.mark.parametrize("m,alpha", [(0.5, 0.5), (1.0, 1.0), (2.0, 1.5)])
    def test_lower_bound_constant_positive(self, m, alpha):
        # r^(d+2s) j_{m,alpha}(r) with s = alpha/2 stays bounded below on (0,1].
        symbol = BernsteinSymbol.relativistic(m, alpha)
        r = np.geomspace(1e-3, 1.0, 40)
        vals = r ** (1.0 + alpha) * np.asarray(symbol.jump_kernel(1, r))
        assert vals.min() > 0.0


class TestBernsteinSymbol:
    def test_relativistic_values(self):
        s = BernsteinSymbol.relativistic(1.0, 1.0)
        assert s.evaluate(0.0) == 0.0
        assert s.evaluate(3.0) == pytest.approx(1.0)

    def test_monotone_and_concave_on_log_grid(self):
        z = np.geomspace(1e-3, 1e3, 60)
        for m, alpha in [(0.0, 0.5), (1.0, 1.0), (2.0, 1.5)]:
            vals = BernsteinSymbol.relativistic(m, alpha).evaluate(z)
            assert np.all(np.diff(vals) > 0.0)
            slopes = np.diff(vals) / np.diff(z)
            assert np.all(np.diff(slopes) < 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            BernsteinSymbol.relativistic(1.0, 2.0)
        with pytest.raises(ValueError):
            BernsteinSymbol.relativistic(-1.0, 1.0)


class TestKernelTable:
    def test_build_and_invariants(self, s11):
        radii = np.geomspace(0.2, 5.0, 12)
        table = build_kernel_table(s11, "j", 1, radii)
        assert np.all(table.values >= 0)
        assert np.all(np.diff(table.values) <= 0)
        assert table.params["alpha"] == 1.0

    def test_sigma_table(self, s11):
        radii = np.geomspace(0.2, 5.0, 8)
        table = build_kernel_table(s11, "sigma", 1, radii)
        assert np.all(table.values >= 0)
        values, errs = sigma(1, 1.0, 1.0, radii)
        assert np.array_equal(table.values, values)
        assert np.array_equal(table.error_estimates, errs)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m,alpha", [(1.0, 1.0), (1.0, 0.5)])
    def test_error_estimates_bound_mpmath_error(self, m, alpha, d):
        # The fractional orders of Phi_{1,0.5} carry kv's largest errors,
        # 2.8e-14 near z = 2; sigma's step-halving difference is 0 at some
        # radii, so its estimate rests on GAMMAINC_REL_ERR there.
        radii = np.geomspace(0.05, 20.0, 400)[::8]
        symbol = BernsteinSymbol.relativistic(m, alpha)
        with mpmath.workdps(30):
            mm, aa = mpmath.mpf(m), mpmath.mpf(alpha)
            xi, c = (d + aa) / 2, mm ** (1 / aa)
            pref = (aa * 2 ** ((aa - d) / 2) * mm ** (xi / aa)
                    / (mpmath.pi ** (mpmath.mpf(d) / 2) * mpmath.gamma(1 - aa / 2)))
            c0 = (2 ** aa * mpmath.gamma(xi)
                  / (mpmath.pi ** (mpmath.mpf(d) / 2) * abs(mpmath.gamma(-aa / 2))))
            exact = {"j": [], "j_prime": [], "sigma": []}
            for r in map(mpmath.mpf, radii):
                j = pref * r ** -xi * mpmath.besselk(xi, c * r)
                exact["j"].append(float(j))
                exact["j_prime"].append(float(
                    -pref * c * r ** -xi * mpmath.besselk(xi + 1, c * r)))
                exact["sigma"].append(float(c0 * r ** -(d + aa) - j))
        for kernel_id, ref in exact.items():
            table = build_kernel_table(symbol, kernel_id, d, radii)
            assert np.all(np.abs(table.values - ref) <= table.error_estimates)
            assert np.all(table.error_estimates <= 1e-12 * np.abs(table.values))

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            KernelTable(kernel_id="j", dimension=1, radii=[1.0, 0.5],
                        values=[1.0, 2.0], error_estimates=[0, 0], params={})
        with pytest.raises(ValueError):
            KernelTable(kernel_id="j", dimension=1, radii=[0.5, 1.0],
                        values=[1.0, 2.0], error_estimates=[0, 0], params={})
        with pytest.raises(ValueError):
            KernelTable(kernel_id="nope", dimension=1, radii=[0.5, 1.0],
                        values=[2.0, 1.0], error_estimates=[0, 0], params={})
