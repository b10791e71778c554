import math
import tracemalloc

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
                                                massless_constant,
                                                resolvent_kernel,
                                                second_moment_decay, sigma,
                                                sigma_difference_form,
                                                tanh_sinh_quadrature)
from nonlocal_spectra.special_functions import (REL_TOL, QuadratureError,
                                                bessel_k)


class TestTanhSinh:
    def test_endpoint_singularity(self):
        # Nodes closer than ~eps/2 to x = 0 round onto it and are dropped,
        # so the integral misses up to int_0^(eps/2) x^(-1/2) dx = sqrt(2 eps).
        val, _ = tanh_sinh_quadrature(lambda x: x ** -0.5, 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=0.0,
                                    abs=math.sqrt(2.0 * np.finfo(float).eps))

    def test_log_singularity(self):
        val, _ = tanh_sinh_quadrature(np.log, 0.0, 1.0)
        assert val == pytest.approx(-1.0, rel=1e-10)

    def test_unresolved_integrand_raises_with_partial_value(self):
        # About 1600 periods on [0, 1]; the finest level has ~500 nodes.
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


class TestSigma:
    def test_integral_vs_difference_form(self):
        si = sigma(1, 1.0, 1.0, 1.0)
        sd = sigma_difference_form(1, 1.0, 1.0, 1.0)
        assert abs(si - sd) / j_massless(1, 1.0, 1.0) < 1e-8

    @pytest.mark.parametrize("d,alpha,m", [(1, 1.0, 1.0), (2, 0.5, 2.0),
                                           (3, 1.5, 0.5)])
    def test_decomposition_spot(self, d, alpha, m):
        r = np.geomspace(0.05, 20.0, 12)
        rel = np.abs(j_massless(d, alpha, r) - j_massive(d, alpha, m, r)
                     - sigma(d, alpha, m, r)) / j_massless(d, alpha, r)
        assert rel.max() < 1e-8

    def test_nonnegative(self):
        r = np.geomspace(0.05, 30.0, 25)
        assert np.all(sigma(1, 1.0, 1.0, r) >= 0.0)

    def test_ratio_to_massless_at_large_radius(self):
        # j_massive decays exponentially faster, so sigma/j0 -> 1.
        assert sigma(1, 1.0, 1.0, 50.0) / j_massless(1, 1.0, 50.0) >= 0.99


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
        # 9.7e-14 measured; a rounded panel phase r m_p or rounded panel
        # midpoints each push it above 2e-12.
        assert np.max(np.abs(table.values / cauchy - 1.0)) <= 1e-12
        assert np.all(np.abs(table.values - cauchy) <= table.error_estimates)
        assert np.all(table.error_estimates <= REL_TOL * table.values)

    @pytest.mark.parametrize("d", [2, 3])
    def test_higher_dimension_mass(self, s11, d):
        surf = 2.0 * math.pi if d == 2 else 4.0 * math.pi
        val, _ = integrate.quad(
            lambda r: surf * r ** (d - 1) * heat_kernel(s11, d, 0.5,
                                                        [r] + [0.0] * (d - 1)),
            0.0, 50.0, limit=200)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_assumption_violation_for_bounded_symbol(self):
        bounded = BernsteinSymbol.custom(phi=lambda z: z / (1.0 + z))
        with pytest.raises(AssumptionViolationError):
            heat_kernel(bounded, 1, 1.0, 0.0)

    def test_domain_error(self, s01):
        with pytest.raises(ValueError):
            heat_kernel(s01, 1, 0.0, 0.0)


class TestResolventKernel:
    def test_value_against_time_integral_oracle(self, s01):
        # G_1(1) = int_0^inf e^-t t/(pi (t^2+1)) dt via the Cauchy density.
        oracle, _ = integrate.quad(
            lambda t: math.exp(-t) * t / (math.pi * (t * t + 1.0)),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400)
        assert resolvent_kernel(s01, 1, 1.0) == pytest.approx(oracle, abs=1e-8)

    def test_symmetry_and_monotonicity(self, s01):
        assert resolvent_kernel(s01, 1, 1.5) == resolvent_kernel(s01, 1, -1.5)
        assert resolvent_kernel(s01, 1, 1.0) > resolvent_kernel(s01, 1, 2.0)

    def test_origin_rejected(self, s01):
        with pytest.raises(ValueError):
            resolvent_kernel(s01, 1, 0.0)

    def test_d2_against_time_integral(self, s11):
        val = resolvent_kernel(s11, 2, [1.0, 0.0])
        assert val > 0.0
        assert val > resolvent_kernel(s11, 2, [2.0, 0.0])


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
        assert s.has_closed_kernel and s.kernel_available

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
        with pytest.raises(ValueError):
            BernsteinSymbol(kind="custom")

    def test_custom_without_density_has_no_kernel(self):
        s = BernsteinSymbol.custom(phi=lambda z: np.sqrt(z))
        assert not s.kernel_available
        with pytest.raises(ValueError):
            s.jump_kernel(1, 1.0)

    def test_custom_with_density_reproduces_massless(self):
        # Levy density of sqrt(z) fed through the subordination formula.
        dens = lambda t: 0.5 / math.gamma(0.5) * t ** (-1.5)
        s = BernsteinSymbol.custom(phi=lambda z: np.sqrt(z), levy_density=dens)
        assert float(s.jump_kernel(1, 2.0)) == pytest.approx(
            j_massless(1, 1.0, 2.0), rel=1e-8)


class TestKernelTable:
    def test_build_and_invariants(self, s11):
        radii = np.geomspace(0.2, 5.0, 12)
        table = build_kernel_table(s11, "j", 1, radii)
        assert np.all(table.values >= 0)
        assert np.all(np.diff(table.values) <= 0)
        assert table.params["alpha"] == 1.0

    def test_sigma_table(self, s11):
        table = build_kernel_table(s11, "sigma", 1, np.geomspace(0.2, 5.0, 8))
        assert np.all(table.values >= 0)

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
