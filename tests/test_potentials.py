import math
from functools import lru_cache

import numpy as np
import pytest
from scipy import integrate

from nonlocal_spectra.bernstein_kernels import sphere_surface
from nonlocal_spectra.potentials import (BoxTooSmallError, PotentialField,
                                         WellSpec, anharmonic, mollified_well,
                                         reflected_values, sharp_well)
from nonlocal_spectra.spectral_core import Field, Grid


@lru_cache(maxsize=8)
def mollifier_normalization(d):
    """C_rho with int_{B_1} rho = 1, computed once per dimension."""
    val, _ = integrate.quad(
        lambda r: r ** (d - 1) * math.exp(-1.0 / (1.0 - r * r)),
        0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)
    return 1.0 / (sphere_surface(d) * val)


def eta_direct(spec, x):
    """eta_eps(x) in d = 1 by direct quadrature of rho_{eps/2} * 1_{B_{a+eps/2}}."""
    C = mollifier_normalization(1)
    half = spec.eps / 2.0
    b = spec.a + half
    lo = max(-b, x - half)
    hi = min(b, x + half)
    if hi <= lo:
        return 0.0
    scale = 2.0 / spec.eps

    def rho(y):
        t = scale * abs(x - y)
        return C * scale * math.exp(-1.0 / (1.0 - t * t)) if t < 1.0 else 0.0

    val, _ = integrate.quad(rho, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


@pytest.fixture(scope="module")
def grid():
    return Grid(d=1, n=1024, L=32.0)


class TestWellSpec:
    def test_invariants(self):
        with pytest.raises(ValueError):
            WellSpec(a=0.0, v=1.0)
        with pytest.raises(ValueError):
            WellSpec(a=1.0, v=0.0)
        with pytest.raises(ValueError):
            WellSpec(a=1.0, v=1.0, eps=-0.1)


class TestSharpWell:
    def test_two_values_and_geometry(self, grid):
        pot = sharp_well(WellSpec(a=1.0, v=4.0), grid)
        assert set(np.unique(pot.values)) == {-4.0, 0.0}
        x = grid.axis()
        assert pot.values[grid.n // 2] == -4.0                   # origin
        idx = grid.n // 2 + int(round((1.0 + grid.h) / grid.h))  # |x| = a + h
        assert pot.values[idx] == 0.0

    def test_measure_riemann_count(self, grid):
        pot = sharp_well(WellSpec(a=1.0, v=4.0), grid)
        measure = grid.h * float(np.sum(pot.values == -4.0))
        assert abs(measure - 2.0) <= grid.h * (1.0 + 1e-12)

    def test_box_too_small(self, grid):
        with pytest.raises(BoxTooSmallError):
            sharp_well(WellSpec(a=16.0, v=1.0), grid)

    def test_eps_must_be_zero(self, grid):
        with pytest.raises(ValueError):
            sharp_well(WellSpec(a=1.0, v=1.0, eps=0.1), grid)


class TestMollifiedWell:
    def test_plateau_support_range(self, grid):
        spec = WellSpec(a=1.0, v=4.0, eps=0.4)
        pot = mollified_well(spec, grid)
        x = grid.axis()
        eta = -pot.values / 4.0
        assert np.all(pot.values[np.abs(x) <= 1.0] == -4.0)
        assert np.all(pot.values[np.abs(x) > 1.4] == 0.0)
        assert eta.min() >= 0.0 and eta.max() <= 1.0

    def test_radially_non_increasing_and_strict_midpoint(self, grid):
        spec = WellSpec(a=1.0, v=4.0, eps=0.4)
        eta = -mollified_well(spec, grid).values / 4.0
        profile = eta[grid.n // 2:]
        assert np.all(np.diff(profile) <= 1e-14)
        mid = grid.n // 2 + int(round((1.0 + 0.2) / grid.h))
        assert 0.0 < eta[mid] < 1.0

    def test_smooth_finite_differences(self, grid):
        eta = -mollified_well(WellSpec(a=1.0, v=4.0, eps=0.4), grid).values / 4.0
        d2 = np.diff(eta, 2) / grid.h ** 2
        assert np.all(np.isfinite(d2))
        assert np.abs(d2).max() < 1e3

    def test_direct_quadrature_spot_check(self, grid):
        # The grid eta samples both convolution factors, so the honest
        # tolerance against the continuum convolution is O(h * max rho).
        spec = WellSpec(a=1.0, v=4.0, eps=0.4)
        eta = -mollified_well(spec, grid).values / 4.0
        rho_max = (2.0 / spec.eps) * mollifier_normalization(1) * math.exp(-1.0)
        tol = 4.0 * rho_max * grid.h
        x = grid.axis()
        for r in (1.05, 1.1, 1.2, 1.3, 1.35):
            j = grid.n // 2 + int(round(r / grid.h))
            assert abs(eta[j] - eta_direct(spec, float(x[j]))) < tol

    def test_equality_region_exact(self, grid):
        # V_eps = V exactly on B_a and outside B_{a+eps}.
        spec = WellSpec(a=1.0, v=4.0, eps=0.3)
        sharp = sharp_well(WellSpec(a=1.0, v=4.0), grid)
        moll = mollified_well(spec, grid)
        x = np.abs(grid.axis())
        region = (x <= 1.0) | (x > 1.3)
        assert np.array_equal(moll.values[region], sharp.values[region])

    def test_lp_convergence_rate(self, grid):
        # ||V_eps - V||_p -> 0 like eps^(1/p) within a factor 2.
        sharp = sharp_well(WellSpec(a=1.0, v=4.0), grid)
        for p in (1, 2):
            dists = []
            eps_list = [0.8, 0.4, 0.2, 0.1]
            for eps in eps_list:
                moll = mollified_well(WellSpec(a=1.0, v=4.0, eps=eps), grid)
                dists.append((grid.h * np.sum(
                    np.abs(moll.values - sharp.values) ** p)) ** (1.0 / p))
            assert all(b < a for a, b in zip(dists, dists[1:]))
            for (e1, d1), (e2, d2) in zip(zip(eps_list, dists),
                                          zip(eps_list[1:], dists[1:])):
                ratio = d1 / d2
                expect = (e1 / e2) ** (1.0 / p)
                assert expect / 2.0 < ratio < expect * 2.0

    def test_sup_norm_is_depth(self, grid):
        for eps in (0.4, 0.2, 0.1):
            moll = mollified_well(WellSpec(a=1.0, v=4.0, eps=eps), grid)
            assert np.abs(moll.values).max() == 4.0

    def test_box_too_small(self, grid):
        with pytest.raises(BoxTooSmallError):
            mollified_well(WellSpec(a=15.8, v=1.0, eps=0.4), grid)

    def test_below_grid_floor_rejected(self, grid):
        # Below 2h the mollifier's transition falls between grid points.
        with pytest.raises(ValueError, match="below the resolvable floor"):
            mollified_well(WellSpec(a=1.0, v=4.0, eps=1.9 * grid.h), grid)
        eta = -mollified_well(WellSpec(a=1.0, v=4.0, eps=2.0 * grid.h),
                              grid).values / 4.0
        assert np.count_nonzero((eta > 0.0) & (eta < 1.0)) == 2


class TestAnharmonic:
    def test_values(self, grid):
        pot = anharmonic(3, grid)
        assert pot.values[grid.n // 2] == 0.0
        i = grid.n // 2 + int(round(1.0 / grid.h))
        assert pot.values[i] == pytest.approx(1.0, rel=1e-12)
        # a grid whose spacing divides 0.9 exactly
        g = Grid(d=1, n=1024, L=28.8)
        pot10 = anharmonic(10, g)
        i9 = g.n // 2 + int(round(0.9 / g.h))
        assert g.axis()[i9] == pytest.approx(0.9, abs=1e-14)
        assert pot10.values[i9] == pytest.approx(0.9 ** 20, rel=1e-10)

    def test_nonnegative_radially_nondecreasing(self, grid):
        pot = anharmonic(2, grid)
        prof = pot.values[grid.n // 2:]
        assert np.all(pot.values >= 0.0)
        assert np.all(np.diff(prof) >= 0.0)

    def test_power_domination(self, grid):
        v1 = anharmonic(3, grid).values
        v2 = anharmonic(4, grid).values
        x = np.abs(grid.axis())
        assert np.all(v1[x >= 1.0] <= v2[x >= 1.0])
        assert np.all(v1[x <= 1.0] >= v2[x <= 1.0])

    def test_overflow_clamped_and_flagged(self):
        g = Grid(d=1, n=1024, L=64.0)
        pot = anharmonic(120, g)
        assert pot.meta["clamped"]
        assert np.all(np.isfinite(pot.values))
        assert pot.values.max() <= 1e300

    def test_k_validated(self, grid):
        for k in (0, 1.5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="integer >= 1"):
                anharmonic(k, grid)
        # An integral float is the integer itself, not a truncation.
        assert anharmonic(2.0, grid).meta["k"] == 2
        assert np.array_equal(anharmonic(2.0, grid).values,
                              anharmonic(2, grid).values)


class TestPotentialField:
    def test_a_potential_is_a_field(self, grid):
        pot = sharp_well(WellSpec(a=1.0, v=4.0), grid)
        assert isinstance(pot, Field) and pot.meta["kind"] == "sharp_well"
        with pytest.raises(ValueError, match="does not match grid shape"):
            PotentialField(grid=grid, values=np.zeros(3), meta={})


class TestReflectPotential:
    """V^mu(x) = V(x^mu) through reflected_values."""

    def test_mu_zero_identity(self, grid):
        pot = sharp_well(WellSpec(a=1.0, v=4.0), grid)
        assert np.array_equal(reflected_values(pot, 0.0), pot.values)

    def test_support_translation(self, grid):
        pot = sharp_well(WellSpec(a=1.0, v=4.0), grid)
        refl = reflected_values(pot, -1.0)
        x = grid.axis()
        support = x[refl == -4.0]
        assert support.min() == pytest.approx(-3.0, abs=grid.h)
        assert support.max() == pytest.approx(-1.0, abs=grid.h)

    def test_involution_exact_on_grid_multiple(self, grid):
        pot = sharp_well(WellSpec(a=1.0, v=4.0), grid)
        mu = -8.0 * grid.h  # 2 mu is a grid multiple
        once = Field(grid=grid, values=reflected_values(pot, mu))
        assert np.array_equal(reflected_values(once, mu), pot.values)
