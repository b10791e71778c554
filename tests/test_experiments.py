import math

import mpmath
import numpy as np
import pytest

from nonlocal_spectra.bernstein_kernels import BernsteinSymbol
from nonlocal_spectra.eigensolver import SolverConfig, ground_state
from nonlocal_spectra.experiments import (antisym_constant_c1,
                                          antisym_constant_c2,
                                          antisym_constant_c4,
                                          antisymmetric_minimum_check,
                                          anharmonic_to_dirichlet,
                                          embedding_tail_check,
                                          kernel_lower_constant,
                                          monotonicity_check,
                                          moving_plane_difference,
                                          moving_plane_min,
                                          operator_image_convergence,
                                          random_band_limited,
                                          stability_sweep, symmetry_check,
                                          uniform_shift_sweep)
from nonlocal_spectra.potentials import WellSpec, reflect_potential, sharp_well
from nonlocal_spectra.spectral_core import Field, Grid

GRID = Grid(d=1, n=1024, L=32.0)
CFG = SolverConfig(tol=1e-12, max_iters=30000, seed=11)
WELL = WellSpec(a=1.0, v=4.0)


@pytest.fixture(scope="module")
def sweep(s01):
    return stability_sweep(s01, WELL, [0.4, 0.2, 0.1], GRID, CFG)


class TestStabilitySweep:
    def test_gap_decay_and_convergence(self, sweep):
        gaps = sweep.gaps
        assert sweep.monotone_gap_decay
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert sweep.converged
        assert all(b < a for a, b in zip(sweep.l2_gaps, sweep.l2_gaps[1:]))

    def test_minmax_margins_positive(self, sweep):
        # lambda_eps + v < lambda_a holds for every mollified well.
        assert all(m > 1e-6 for m in sweep.minmax_margins)

    def test_eps_zero_shortcut_gap_vanishes(self, s01):
        rep = stability_sweep(s01, WELL, [0.2, 0.0], GRID, CFG)
        assert rep.gaps[-1] == 0.0
        assert rep.l2_gaps[-1] == 0.0

    def test_schedule_validation(self, s01):
        with pytest.raises(ValueError):
            stability_sweep(s01, WELL, [0.1, 0.2], GRID, CFG)
        with pytest.raises(ValueError):
            stability_sweep(s01, WELL, [0.2, GRID.h], GRID, CFG)
        with pytest.raises(ValueError, match="entries must be >= 0"):
            stability_sweep(s01, WELL, [0.2, -0.1], GRID, CFG)

    def test_json_and_csv_shapes(self, sweep):
        payload = sweep.to_json_dict()
        assert len(payload["lambda"]) == 3
        rows = list(sweep.csv_rows())
        assert len(rows) == 3 and len(rows[0]) == 4


class TestUniformShift:
    def test_exact_spectral_shift(self, s01):
        rep = uniform_shift_sweep(s01, WELL, [1, 2, 4], GRID, CFG)
        for k, lam in zip(rep.params, rep.lam_list):
            assert lam == pytest.approx(rep.lam_target - WELL.v / k,
                                        abs=1e-12)
        assert all(g < 1e-12 for g in rep.l2_gaps)
        assert rep.converged


class TestAnharmonicToDirichlet:
    def test_tail_convergence_and_confinement(self, s01):
        # The gap sequence is physically non-monotone at k=1 -> 2 (the x^4
        # well is softer than x^2 inside the ball); the approach toward the
        # Dirichlet value over the tail of the list is what the stability
        # theory guarantees at desk scale.
        rep = anharmonic_to_dirichlet(s01, [2, 4, 8, 16], GRID, CFG)
        gaps = rep.gaps
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert rep.lam_dirichlet > 0.0
        outside = np.abs(GRID.axis()) > 1.0
        masses = [GRID.cell_volume * float(np.sum(phi.values[outside] ** 2))
                  for phi in rep.solutions]
        # Confinement tightens with k; the k = 16 leakage measures a few
        # permille through the still-soft wall.
        assert all(b < a for a, b in zip(masses, masses[1:]))
        assert masses[-1] < 5e-3

    def test_k1_vs_k2_ordering_recorded(self, s01):
        # Direct numerical confirmation (no a-priori claim): lambda(1) >
        # lambda(2) for the massless d=1 symbol.
        rep = anharmonic_to_dirichlet(s01, [1, 2], GRID, CFG)
        assert rep.lam_list[0] > rep.lam_list[1]

    def test_unconverged_well_solve_flags_report(self, s01):
        # The Dirichlet target converges; a 5-iteration well solve does not.
        cfg = SolverConfig(tol=1e-12, max_iters=5, seed=11)
        rep = anharmonic_to_dirichlet(s01, [1, 2], GRID, cfg)
        assert not rep.converged

    def test_k_list_must_increase(self, s01):
        with pytest.raises(ValueError):
            anharmonic_to_dirichlet(s01, [4, 2], GRID, CFG)


class TestOperatorImageConvergence:
    def test_gaps_decrease_and_identity_bound(self, s01, sweep):
        rep = operator_image_convergence(s01, WELL, sweep)
        assert rep.monotone
        assert rep.bound_ok
        assert all(g > 0 for g in rep.image_gaps)

    def test_identical_runs_have_zero_gap(self, s01):
        rep0 = stability_sweep(s01, WELL, [0.2, 0.0], GRID, CFG)
        rep = operator_image_convergence(s01, WELL, rep0)
        assert rep.image_gaps[-1] == 0.0


class TestSymmetryCheck:
    def test_parity_defect_small_after_long_run(self, s01):
        cfg = SolverConfig(tol=1e-13, max_iters=4000, seed=11)
        res = ground_state(s01, sharp_well(WELL, GRID), cfg)
        assert symmetry_check(res)["exact"] < 1e-10

    def test_off_center_well_breaks_symmetry(self, s01):
        pot = reflect_potential(sharp_well(WELL, GRID), -1.0)
        res = ground_state(s01, pot, CFG)
        assert symmetry_check(res)["exact"] > 1e-2

    def test_d2_exact_maps_and_interpolated(self, s01):
        g2 = Grid(d=2, n=64, L=16.0)
        cfg = SolverConfig(tol=1e-13, max_iters=3000, seed=11)
        res = ground_state(s01, sharp_well(WellSpec(a=1.0, v=4.0), g2), cfg)
        out = symmetry_check(res, rotations=3)
        assert out["exact"] < 1e-10
        # bilinear interpolation allowance, far looser than grid-exact maps
        assert out["interpolated"] < 5e-2


class TestMonotonicityCheck:
    def test_well_ground_state_monotone(self, s01):
        cfg = SolverConfig(tol=1e-13, max_iters=4000, seed=11)
        res = ground_state(s01, sharp_well(WELL, GRID), cfg)
        rep = monotonicity_check(res)
        assert rep.max_violation <= 1e-6 * rep.profile[0]
        assert rep.region_flags["core [0,a]"]
        assert rep.region_flags["tail [a+eps,inf)"]

    def test_negative_control_odd_profile(self, s01):
        # A fabricated odd-bump field is nowhere radially monotone.
        x = GRID.axis()
        vals = np.abs(x) * np.exp(-x * x)
        fake = ground_state(s01, sharp_well(WELL, GRID),
                            SolverConfig(tol=1e-6, max_iters=50,
                                         seed=1))
        fake.phi = Field(grid=GRID, values=vals / np.sqrt(
            GRID.cell_volume * np.sum(vals ** 2)))
        fake.meta = {"potential": {}}
        rep = monotonicity_check(fake)
        assert rep.max_violation > 1e-2

    def test_moving_plane_diagnostics(self, s01):
        cfg = SolverConfig(tol=1e-13, max_iters=3000, seed=11)
        res = ground_state(s01, sharp_well(WELL, GRID), cfg)
        w = moving_plane_difference(res.phi, -1.5)
        assert w.values.shape == GRID.shape
        # The half-space sign of w_mu holds for the exact ground state and
        # is reported rather than asserted; at this resolution it does hold.
        assert moving_plane_min(res.phi, -1.5) > -1e-8


class TestAntisymmetricMinimum:
    def test_analytic_constants(self):
        assert antisym_constant_c1(1, 1.0) == pytest.approx(1.0 / math.pi,
                                                            rel=1e-12)
        assert antisym_constant_c2(1, 1.0) == pytest.approx(1.0, rel=1e-9)
        assert antisym_constant_c2(2, 1.0) == pytest.approx(2.0, rel=1e-14)
        assert antisym_constant_c2(3, 1.0) == pytest.approx(math.pi,
                                                            rel=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_c2_against_mpmath(self, d):
        # The half-space integral in cylindrical coordinates (z_1, rho).
        # alpha = 0.5 is avoided: the slower decay there leaves this 2D
        # quadrature about 5e-8 (relative) off.
        alpha = 1.5
        expo = mpmath.mpf(d + alpha) / 2
        surf = 2 if d == 2 else 2 * mpmath.pi   # |S^(d-2)|
        with mpmath.workdps(20):
            ref = mpmath.quad(lambda z, rho: surf * rho ** (d - 2)
                              * (rho ** 2 + (1 + z) ** 2) ** -expo,
                              [0, mpmath.inf], [0, mpmath.inf])
        assert antisym_constant_c2(d, alpha) == pytest.approx(float(ref),
                                                              rel=3e-11)

    def test_c4_against_mpmath_d2(self):
        # d = 2, alpha = 1: xi = 3/2, where K_(3/2) is elementary, and the
        # transverse direction is integrated numerically, not in closed form.
        c = mpmath.mpf("0.7")   # m^(1/alpha) delta1 with m = 1, delta1 = 0.7

        def k32(x):
            return (mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.exp(-x)
                    * (1 + 1 / x))

        def f(z, y):
            s2 = y * y + (1 + z) ** 2
            return 2 * k32(c * mpmath.sqrt(s2)) / s2 ** mpmath.mpf("0.75")

        with mpmath.workdps(20):
            ref = mpmath.quad(f, [0, mpmath.inf], [0, mpmath.inf])
        assert antisym_constant_c4(2, 1.0, 1.0, 0.7) == pytest.approx(
            float(ref), rel=1e-12)

    def test_massless_sign_conclusion(self, s01):
        check = antisymmetric_minimum_check(s01, lambda y: y * np.exp(-y * y),
                                            0.0)
        assert check.x_star == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-8)
        assert check.delta == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)
        assert check.sign_ok and check.lhs < 0.0
        assert check.rhs1 is None and check.rhs2 is None

    def test_massive_bounds(self, s11):
        check = antisymmetric_minimum_check(s11, lambda y: y * np.exp(-y * y),
                                            0.0)
        assert check.sign_ok and check.bounds_ok
        assert check.lhs <= check.rhs1 and check.lhs <= check.rhs2
        assert check.constants["C2"] == pytest.approx(1.0, rel=1e-9)
        assert check.antisym_defect <= 1e-10

    def test_non_antisymmetric_rejected(self, s11):
        with pytest.raises(ValueError):
            antisymmetric_minimum_check(s11,
                                        lambda y: np.exp(-np.asarray(y) ** 2),
                                        0.0)

    def test_no_negative_minimum_rejected(self, s11):
        # Antisymmetric but positive on the half-space x < 0.
        with pytest.raises(ValueError):
            antisymmetric_minimum_check(s11,
                                        lambda y: -np.asarray(y) * np.exp(
                                            -np.asarray(y) ** 2), 0.0)

    def test_custom_symbol_rejected(self):
        s = BernsteinSymbol.custom(phi=lambda z: np.sqrt(z))
        with pytest.raises(ValueError, match="relativistic"):
            antisymmetric_minimum_check(s, lambda y: y * np.exp(-y * y), 0.0)


class TestEmbeddingTail:
    def test_constant_field_trivial(self, s11):
        u = Field(grid=GRID, values=np.ones(GRID.shape))
        assert embedding_tail_check(s11, u) == [True]

    def test_gaussian_and_random_fields(self, s01, s11):
        fields = [random_band_limited(GRID, seed) for seed in range(20)]
        assert all(embedding_tail_check(s01, fields))
        assert all(embedding_tail_check(s11, fields))

    def test_lower_constant_positive(self, s11):
        assert kernel_lower_constant(s11, 1, 0.5) > 0.0

    def test_custom_symbol_needs_order(self):
        s = BernsteinSymbol.custom(phi=lambda z: np.sqrt(z))
        u = Field(grid=GRID, values=np.ones(GRID.shape))
        with pytest.raises(ValueError):
            embedding_tail_check(s, u)


class TestDeterminism:
    def test_reports_bit_identical(self, s01):
        rep1 = stability_sweep(s01, WELL, [0.4, 0.2], GRID, CFG)
        rep2 = stability_sweep(s01, WELL, [0.4, 0.2], GRID, CFG)
        assert rep1.lam_list == rep2.lam_list
        assert rep1.l2_gaps == rep2.l2_gaps
        assert rep1.lam_target == rep2.lam_target
