import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from nonlocal_spectra.bernstein_kernels import (BernsteinSymbol,
                                                kernel_moment,
                                                massless_constant)
from nonlocal_spectra.experiments import random_band_limited
from nonlocal_spectra.spectral_core import (CostGuardError,
                                            Field, FormValue, Grid,
                                            SpectralOperator, _lattice_images,
                                            apply_multiplier,
                                            dirichlet_form,
                                            field_from_function,
                                            gagliardo_seminorm,
                                            pointwise_nonlocal,
                                            seminorm_direct, seminorm_fourier)


def counting_symbol(m, alpha):
    """(Phi_{m,alpha}, list): the list gets the size of every jump_kernel
    evaluation."""
    radii = []

    class Counting(BernsteinSymbol):
        def jump_kernel(self, d, r):
            radii.append(np.size(r))
            return super().jump_kernel(d, r)

    return Counting(m=m, alpha=alpha), radii


class TestGridField:
    def test_grid_invariants(self):
        with pytest.raises(ValueError):
            Grid(d=4, n=64, L=10.0)
        with pytest.raises(ValueError):
            Grid(d=1, n=100, L=10.0)   # not a power of two
        with pytest.raises(ValueError):
            Grid(d=1, n=8, L=10.0)     # below minimum
        with pytest.raises(ValueError):
            Grid(d=1, n=64, L=-1.0)

    def test_axis_and_spacing(self):
        g = Grid(d=1, n=64, L=16.0)
        assert g.h == 0.25
        x = g.axis()
        assert x[0] == -8.0 and x[-1] == pytest.approx(8.0 - 0.25)

    def test_field_shape_checked(self):
        g = Grid(d=2, n=16, L=4.0)
        with pytest.raises(ValueError):
            Field(grid=g, values=np.zeros(16))

    def test_norm_measure_weight(self):
        g = Grid(d=1, n=64, L=16.0)
        u = Field(grid=g, values=np.ones(64))
        assert u.l2_norm() == pytest.approx(4.0)   # sqrt(L)

    def test_field_io_roundtrip(self, tmp_path):
        from nonlocal_spectra.io_utils import read_field, write_field
        g = Grid(d=2, n=16, L=4.0)
        u = field_from_function(g, lambda x, y: np.sin(x) + np.cos(y))
        write_field(tmp_path / "f", u)
        v = read_field(tmp_path / "f")
        assert v.grid == g
        assert np.array_equal(v.values, u.values)


class TestApplyMultiplier:
    def test_constant_to_zero(self, s01, grid128):
        u = Field(grid=grid128, values=np.ones(grid128.shape))
        assert np.abs(apply_multiplier(s01, u).values).max() == 0.0

    def test_plane_wave_eigenvector(self, s01, grid128):
        k = 2.0 * math.pi * 3 / grid128.L
        u = field_from_function(grid128, lambda x: np.cos(k * x))
        out = apply_multiplier(s01, u)
        assert np.abs(out.values - s01.evaluate(k * k) * u.values).max() < 1e-12

    def test_self_adjoint(self, s11, grid128):
        rng = np.random.default_rng(5)
        u = Field(grid=grid128, values=rng.standard_normal(grid128.shape))
        v = Field(grid=grid128, values=rng.standard_normal(grid128.shape))
        lhs = apply_multiplier(s11, u).inner(v)
        rhs = u.inner(apply_multiplier(s11, v))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_detected(self, s01, grid128):
        u = Field(grid=grid128, values=np.full(grid128.shape, 1e308))
        with pytest.raises(OverflowError):
            apply_multiplier(s01, u)

    def test_agrees_with_pointwise_oracle_at_center(self, s01):
        # Torus truncation bias scales like the kernel's image sum, so the
        # box must be large for the massless symbol at 1e-4.
        g = Grid(d=1, n=4096, L=160.0)
        u = field_from_function(g, lambda x: np.exp(-x * x))
        out = apply_multiplier(s01, u)
        center = g.n // 2
        oracle = pointwise_nonlocal(s01, lambda y: np.exp(-y * y),
                                    float(g.axis()[center]))
        assert abs(out.values[center] - oracle) < 1e-4


class TestSeminorms:
    def test_constant_is_null(self, s01, grid128):
        u = Field(grid=grid128, values=np.full(grid128.shape, 2.5))
        assert seminorm_fourier(s01, u) == 0.0
        assert seminorm_direct(s01, u) == pytest.approx(0.0, abs=1e-8)

    def test_plane_wave_value(self, s01, grid128):
        k = 2.0 * math.pi * 5 / grid128.L
        u = field_from_function(grid128, lambda x: np.cos(k * x))
        u = Field(grid=grid128, values=u.values / u.l2_norm())
        assert seminorm_fourier(s01, u) ** 2 == pytest.approx(
            s01.evaluate(k * k), rel=1e-12)

    @pytest.mark.parametrize("symbol_name", ["massless", "massive"])
    def test_plancherel_gaussian(self, s01, s11, gaussian128, symbol_name):
        symbol = s01 if symbol_name == "massless" else s11
        sf = seminorm_fourier(symbol, gaussian128)
        sd = seminorm_direct(symbol, gaussian128)
        assert abs(sf ** 2 - sd ** 2) <= 1e-3 * (1.0 + sf ** 2)

    def test_plancherel_random_band_limited(self, s01, grid128):
        for seed in range(4):
            u = random_band_limited(grid128, seed)
            sf = seminorm_fourier(s01, u)
            sd = seminorm_direct(s01, u)
            assert abs(sf ** 2 - sd ** 2) <= 1e-3 * (1.0 + sf ** 2)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.25, 1.5, 1.75, 1.9])
    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_routes_agree_to_roundoff(self, m, alpha):
        # The kernel's singular origin is a Taylor series in h against
        # closed-form kernel moments; tanh-sinh starts at h0.
        u = random_band_limited(Grid(d=1, n=256, L=40.0), 1)
        symbol = BernsteinSymbol.relativistic(m, alpha)
        assert seminorm_direct(symbol, u) == pytest.approx(
            seminorm_fourier(symbol, u), rel=1e-14)

    @pytest.mark.parametrize("m, alpha", [(0.001, 0.5), (0.01, 1.0)])
    def test_routes_agree_small_mass(self, m, alpha):
        # Decay lengths m^(-1/alpha) of 1e6 and 100 against L = 40: both
        # outrun the 18-cell image window, so its continuum carries them.
        u = random_band_limited(Grid(d=1, n=256, L=40.0), 1)
        symbol = BernsteinSymbol.relativistic(m, alpha)
        assert seminorm_direct(symbol, u) == pytest.approx(
            seminorm_fourier(symbol, u), rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.25, 1.5, 1.75, 1.9])
    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_routes_agree_d2(self, m, alpha):
        # Accuracy is set by the lattice sum over the outer partition's ramp
        # on [L/8, L/2 - h] (2.0e-10 at alpha = 0.5, massless or massive).
        u = random_band_limited(Grid(d=2, n=64, L=20.0), 1)
        symbol = BernsteinSymbol.relativistic(m, alpha)
        assert seminorm_direct(symbol, u) == pytest.approx(
            seminorm_fourier(symbol, u), rel=1e-9 if m else 1e-5)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
    def test_routes_agree_d2_small_mass(self, alpha):
        # Decay lengths of 400, 20 and 4.8 against L = 20 and the 18-cell
        # image window: its continuum carries the first two.
        u = random_band_limited(Grid(d=2, n=64, L=20.0), 1)
        symbol = BernsteinSymbol.relativistic(0.05, alpha)
        assert seminorm_direct(symbol, u) == pytest.approx(
            seminorm_fourier(symbol, u), rel=1e-5)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    @pytest.mark.parametrize("m", [0.0, 0.05])
    def test_routes_agree_d2_at_partition_floor(self, m, alpha):
        # Massless and slowly decaying kernels reach the massive kernel's
        # floor, set by the outer partition's ramp (2.1e-10 measured).
        u = random_band_limited(Grid(d=2, n=64, L=20.0), 1)
        symbol = BernsteinSymbol.relativistic(m, alpha)
        assert seminorm_direct(symbol, u) == pytest.approx(
            seminorm_fourier(symbol, u), rel=5e-10)

    @pytest.mark.parametrize("d", [1, 2])
    def test_image_sum_within_budget(self, d):
        # A decay length of 1e6 drops no image: the window's reach alone
        # bounds the sum, in every d.
        symbol, radii = counting_symbol(1e-6, 1.0)
        images = _lattice_images(symbol, 20.0, d)
        radii.clear()
        value = images(*[np.zeros(3)] * d)
        assert 0 < sum(radii) <= 6000
        assert np.all(np.isfinite(value)) and np.all(value > 0.0)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_image_sum_against_brute_force(self, m, d):
        # Per-offset sums of j (1 - w) over every image 0 < |k| L <= R1 +
        # sqrt(d) L / 2, w the Gaussian step of [R0, R1] = [2L, 18L], plus
        # the continuum of j w: QUADPACK on the ramp, kernel_moment beyond
        # R1.  The offsets lie outside the canonical octant 0 <= h_x <= h_y:
        # negative, swapped, and the -L/2 row of the roll-offset lattice.
        L, h = 20.0, 20.0 / 64
        r0, r1 = 2.0 * L, 18.0 * L
        mid, s = (r0 + r1) / 2.0, math.sqrt((r1 - r0) * L / (4.0 * math.pi))
        symbol = BernsteinSymbol.relativistic(m, 1.0)

        def step(r):
            return 0.0 if r <= r0 else 1.0 if r >= r1 else \
                0.5 * math.erfc((mid - r) / (s * math.sqrt(2.0)))

        reach = r1 / L + math.sqrt(d) / 2.0
        k = L * np.array([c for c in itertools.product(
            range(-int(reach), int(reach) + 1), repeat=d)
            if 0 < sum(x * x for x in c) <= reach * reach])
        ramp = integrate.quad(lambda r: symbol.jump_kernel(d, r) * r ** (d - 1)
                              * step(r), r0, r1, epsabs=0.0, epsrel=1e-13,
                              limit=200)[0]
        surface = 2.0 if d == 1 else 2.0 * math.pi
        tail = surface * (ramp + kernel_moment(symbol, d, 0, r1, np.inf)) / L ** d
        hx = np.array([-L / 2] * 5 + [5 * h, -3 * h, 12 * h, -12 * h, 0.0, 1.234])
        hy = np.array([-32 * h, -5 * h, 0.0, 7 * h, 31 * h,
                       -3 * h, 5 * h, 2 * h, -2 * h, -7 * h, -0.5])
        offsets = np.stack([hx, hy][:d], axis=1)
        brute = []
        for x in offsets:
            r = np.sqrt(np.sum((x + k) ** 2, axis=1))
            brute.append(tail + math.fsum(
                j * (1.0 - step(ri)) for j, ri in zip(symbol.jump_kernel(d, r), r)))
        assert _lattice_images(symbol, L, d)(*offsets.T) == pytest.approx(
            brute, rel=1e-14)

    def test_image_sum_once_per_symmetry_class(self):
        # The 64^2 roll offsets take 33 values of |h_k| per axis, so j is
        # evaluated at 33 * 34 / 2 = 561 sorted pairs per image, not 4096.
        symbol, radii = counting_symbol(0.0, 1.0)
        images = _lattice_images(symbol, 20.0, 2)
        radii.clear()
        images(np.zeros(1), np.zeros(1))
        n_images = sum(radii)
        off = (20.0 / 64 * np.arange(64) + 10.0) % 20.0 - 10.0
        hx, hy = np.meshgrid(off, off, indexing="ij")
        radii.clear()
        assert images(hx, hy).shape == (64, 64)
        assert n_images > 1000 and sum(radii) <= 600 * n_images

    def test_plancherel_d2(self, s11):
        g = Grid(d=2, n=64, L=20.0)
        u = field_from_function(g, lambda x, y: np.exp(-(x * x + y * y)))
        sf = seminorm_fourier(s11, u)
        sd = seminorm_direct(s11, u)
        assert abs(sf ** 2 - sd ** 2) <= 1e-3 * (1.0 + sf ** 2)

    def test_direct_d2_memory_bounded(self, s01):
        g = Grid(d=2, n=64, L=20.0)
        u = field_from_function(g, lambda x, y: np.exp(-(x * x + y * y)))
        tracemalloc.start()
        try:
            sd = seminorm_direct(s01, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6
        sf = seminorm_fourier(s01, u)
        assert abs(sf ** 2 - sd ** 2) <= 1e-3 * (1.0 + sf ** 2)

    def test_massless_ratio_law(self, s01, gaussian128):
        # [u]_{Phi_{0,alpha}} = sqrt(c(d,alpha)/2) [[u]]_{alpha/2} with the
        # two sides sharing identical quadrature nodes.
        sd = seminorm_direct(s01, gaussian128)
        gg = gagliardo_seminorm(0.5, gaussian128)
        assert sd / gg == pytest.approx(
            math.sqrt(massless_constant(1, 1.0) / 2.0), rel=1e-6)

    def test_gagliardo_d2_against_spectral(self):
        g = Grid(d=2, n=64, L=20.0)
        u = field_from_function(g, lambda x, y: np.exp(-(x * x + y * y)))
        s = 0.5
        frac = BernsteinSymbol.relativistic(0.0, 2.0 * s)   # z^s
        spectral_sq = (2.0 / massless_constant(2, 2.0 * s)) \
            * seminorm_fourier(frac, u) ** 2
        direct = gagliardo_seminorm(s, u)
        assert direct ** 2 == pytest.approx(spectral_sq, rel=1e-3)

    def test_cost_guards(self, s01):
        big = Grid(d=1, n=512, L=40.0)
        u = field_from_function(big, lambda x: np.exp(-x * x))
        with pytest.raises(CostGuardError):
            seminorm_direct(s01, u)
        big2 = Grid(d=2, n=128, L=20.0)
        u2 = field_from_function(big2, lambda x, y: np.exp(-x * x - y * y))
        with pytest.raises(CostGuardError):
            gagliardo_seminorm(0.5, u2)

    def test_gagliardo_order_validated(self, gaussian128):
        with pytest.raises(ValueError):
            gagliardo_seminorm(1.0, gaussian128)

    def test_refinement_differences_shrink(self, s01):
        # Lorentzian spectrum decays like e^-|xi|, so aliasing falls over
        # several doublings instead of collapsing to roundoff at once.
        vals = []
        for n in (64, 128, 256, 512):
            g = Grid(d=1, n=n, L=32.0)
            u = field_from_function(g, lambda x: 1.0 / (1.0 + x * x))
            vals.append(seminorm_fourier(s01, u))
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert diffs[1] < diffs[0] and diffs[2] < diffs[1]


class TestDirichletForm:
    def test_plane_wave_energy(self, s01, grid128):
        k = 2.0 * math.pi * 4 / grid128.L
        u = field_from_function(grid128, lambda x: np.cos(k * x))
        form = dirichlet_form(s01, u, u)
        assert form.kinetic == pytest.approx(
            s01.evaluate(k * k) * u.l2_norm() ** 2, rel=1e-12)
        assert form.potential == 0.0
        assert form.total == form.kinetic

    def test_symmetry_and_polarization(self, s11, grid128):
        rng = np.random.default_rng(7)
        u = Field(grid=grid128, values=rng.standard_normal(grid128.shape))
        v = Field(grid=grid128, values=rng.standard_normal(grid128.shape))
        e_uv = dirichlet_form(s11, u, v).kinetic
        e_vu = dirichlet_form(s11, v, u).kinetic
        assert e_uv == pytest.approx(e_vu, abs=1e-12)
        up = Field(grid=grid128, values=u.values + v.values)
        um = Field(grid=grid128, values=u.values - v.values)
        polar = 0.25 * (dirichlet_form(s11, up, up).kinetic
                        - dirichlet_form(s11, um, um).kinetic)
        assert e_uv == pytest.approx(polar, abs=1e-10)

    def test_kinetic_matches_seminorm(self, s11, gaussian128):
        form = dirichlet_form(s11, gaussian128, gaussian128)
        assert form.kinetic == pytest.approx(
            seminorm_fourier(s11, gaussian128) ** 2, rel=1e-12)

    def test_positive(self, s11, grid128):
        for seed in range(5):
            u = random_band_limited(grid128, seed)
            assert dirichlet_form(s11, u, u).kinetic >= 0.0

    def test_potential_term_and_grid_mismatch(self, s01, grid128):
        V = field_from_function(grid128, lambda x: -np.exp(-x * x))
        u = field_from_function(grid128, lambda x: np.exp(-x * x / 2))
        form = dirichlet_form(s01, u, u, V)
        expect = grid128.cell_volume * float(np.sum(V.values * u.values ** 2))
        assert form.potential == pytest.approx(expect, rel=1e-13)
        assert form.total == form.kinetic + form.potential
        other = Grid(d=1, n=64, L=40.0)
        w = field_from_function(other, lambda x: np.exp(-x * x))
        with pytest.raises(ValueError):
            dirichlet_form(s01, u, w)

    def test_formvalue_total(self):
        fv = FormValue(kinetic=2.0, potential=-0.5)
        assert fv.total == 1.5


def _circulant_oracle(grid, phi):
    """Dense matrix of Phi(-Delta) on the grid from an explicit DFT matrix.

    E[j, k] = exp(2 pi i j k / n) per axis (Kronecker product over axes),
    so the operator is E diag(Phi(|xi|^2)) E^* / n^d with the full,
    signed frequency lattice; no FFT routine is involved.
    """
    n, d = grid.n, grid.d
    j = np.arange(n)
    e1 = np.exp(2j * math.pi * np.outer(j, j) / n)
    signed = np.where(j <= n // 2, j, j - n)
    xi1 = 2.0 * math.pi * signed / grid.L
    E, xi_sq = e1, xi1 ** 2
    for _ in range(d - 1):
        E = np.kron(E, e1)
        xi_sq = np.add.outer(xi_sq, xi1 ** 2).ravel()
    A = (E * phi(xi_sq)[None, :]) @ E.conj().T / n ** d
    assert np.abs(A.imag).max() < 1e-12 * np.abs(A.real).max()
    return A.real


# Closed forms of Phi_{m,1}(z) = sqrt(z + m^2) - m, independent of the
# symbol class.
_CLOSED_PHI = {0.0: np.sqrt, 1.0: lambda z: np.sqrt(z + 1.0) - 1.0}


class TestSpectralOperatorOracle:
    @pytest.mark.parametrize("d, n, L", [(1, 32, 8.0), (2, 16, 6.0)])
    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_against_dense_circulant(self, d, n, L, m):
        grid = Grid(d=d, n=n, L=L)
        A = _circulant_oracle(grid, _CLOSED_PHI[m])
        op = SpectralOperator(BernsteinSymbol.relativistic(m, 1.0), grid)
        rng = np.random.default_rng(11)
        u = Field(grid=grid, values=rng.standard_normal(grid.shape))
        v = Field(grid=grid, values=rng.standard_normal(grid.shape))
        V = field_from_function(grid, lambda *x: -4.0 * np.exp(-sum(
            xi * xi for xi in x)) + 0.5 * np.cos(x[0]))
        uf, Vf = u.values.ravel(), V.values.ravel()
        hd = grid.cell_volume

        Au = A @ uf
        got = op.apply(u).values.ravel()
        assert np.abs(got - Au).max() <= 1e-12 * np.abs(Au).max()

        for w in (u, v):
            expect_kin = hd * float(uf @ A @ w.values.ravel())
            expect_pot = hd * float(np.sum(Vf * uf * w.values.ravel()))
            form = op.form(u, w, V)
            assert form.kinetic == pytest.approx(expect_kin, rel=1e-12)
            assert form.potential == pytest.approx(expect_pot, rel=1e-12)
            assert form.total == pytest.approx(expect_kin + expect_pot,
                                               rel=1e-12)

        lam = 0.7
        r = Au + Vf * uf - lam * uf
        expect = math.sqrt(hd * float(r @ r))
        assert op.residual(u, lam, V) == pytest.approx(expect, rel=1e-12)
        mask = (grid.radius() <= L / 4.0).astype(float)
        rm = r * mask.ravel()
        expect_masked = math.sqrt(hd * float(rm @ rm))
        assert op.residual(u, lam, V, mask) == pytest.approx(expect_masked,
                                                             rel=1e-12)


class TestPointwiseNonlocal:
    def test_constant_vanishes(self, s01):
        assert pointwise_nonlocal(
            s01, lambda h: np.ones_like(np.asarray(h)), 0.3) == pytest.approx(
                0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_plane_wave_symbol_action(self, alpha):
        s = BernsteinSymbol.relativistic(0.0, alpha)
        k, x = 2.0, 0.7
        val = pointwise_nonlocal(s, lambda y: np.cos(k * y), x)
        assert val == pytest.approx(s.evaluate(k * k) * math.cos(k * x),
                                    abs=1e-6)

    def test_massive_plane_wave(self, s11):
        k, x = 1.5, -0.4
        val = pointwise_nonlocal(s11, lambda y: np.cos(k * y), x)
        assert val == pytest.approx(s11.evaluate(k * k) * math.cos(k * x),
                                    abs=1e-8)


    def test_odd_bump_negative_at_minimum(self, s01, s11):
        w = lambda y: y * np.exp(-y * y)
        x_star = -1.0 / math.sqrt(2.0)
        assert pointwise_nonlocal(s01, w, x_star) < 0.0
        assert pointwise_nonlocal(s11, w, x_star) < 0.0

    def test_matches_multiplier_on_compact_bump(self, s11):
        # Massive kernel decays exponentially, so torus bias is negligible.
        g = Grid(d=1, n=1024, L=80.0)

        def bump(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            inside = np.abs(x) < 2.0
            out[inside] = np.exp(-1.0 / (1.0 - (x[inside] / 2.0) ** 2))
            return out

        u = field_from_function(g, lambda x: bump(x))
        out = apply_multiplier(s11, u)
        for x0 in (0.0, 0.625, 1.25):
            i = int(round((x0 + g.L / 2.0) / g.h))
            val = pointwise_nonlocal(s11, bump, float(g.axis()[i]))
            assert abs(out.values[i] - val) < 1e-3

    def test_unbounded_input_rejected(self, s11):
        with pytest.raises(ValueError):
            pointwise_nonlocal(s11, lambda y: np.asarray(y) ** 2, 0.0)

    def test_unbounded_input_rejected_d2(self, s11):
        with pytest.raises(ValueError, match="unbounded"):
            pointwise_nonlocal(s11, lambda x, y: x ** 2 + y ** 2,
                               np.array([0.0, 0.0]))

    def test_d2_plane_wave(self, s11):
        k = 1.2
        val = pointwise_nonlocal(s11, lambda x, y: np.cos(k * x),
                                 np.array([0.4, 0.0]))
        assert val == pytest.approx(
            s11.evaluate(k * k) * math.cos(0.4 * k), abs=1e-6)

    @pytest.mark.parametrize("d, alpha", [(2, 0.5), (3, 0.5), (3, 1.0),
                                          (1, 1.75), (1, 1.9), (2, 1.9),
                                          (3, 1.75)])
    def test_massive_plane_wave_nd(self, d, alpha):
        # Phi(-Delta) cos(k x_1) = Phi(k^2) cos(k x_1) in every dimension;
        # at alpha >= 1.75 the kernel moments near r = 0 must be closed-form.
        s = BernsteinSymbol.relativistic(1.0, alpha)
        k, x = 1.2, np.array([0.4] + [0.0] * (d - 1))
        val = pointwise_nonlocal(s, lambda *coords: np.cos(k * coords[0]), x)
        assert val == pytest.approx(s.evaluate(k * k) * math.cos(0.4 * k),
                                    abs=1e-10)
