import math

import numpy as np
import pytest

from nonlocal_spectra.bernstein_kernels import BernsteinSymbol
from nonlocal_spectra.eigensolver import (EigenResult, SolverConfig,
                                          dirichlet_ground_state,
                                          existence_criterion,
                                          fourier_residual, ground_state,
                                          initial_field)
from nonlocal_spectra.experiments import symmetry_check
from nonlocal_spectra.potentials import PotentialField, WellSpec, sharp_well
from nonlocal_spectra.spectral_core import (CostGuardError, Field, Grid,
                                            SpectralOperator, dirichlet_form,
                                            field_from_function)

# Kwasnicki, "Eigenvalues of the fractional Laplace operator in the
# interval", J. Funct. Anal. 262 (2012): lambda_1 of (-Delta)^(1/2) on (-1,1).
KWASNICKI_LAMBDA1 = 1.1577738836977

GRID = Grid(d=1, n=512, L=32.0)
CFG = SolverConfig(tau=0.02, tol=1e-12, max_iters=20000, seed=3)


def zero_potential(grid):
    return PotentialField(field=Field(grid=grid, values=np.zeros(grid.shape)),
                          meta={"kind": "zero"})


@pytest.fixture(scope="module")
def well_result(s01):
    return ground_state(s01, sharp_well(WellSpec(a=1.0, v=4.0), GRID), CFG)


class TestSolverConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SolverConfig(tau=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)


class TestGroundState:
    def test_free_operator_flat_mode(self, s01):
        res = ground_state(s01, zero_potential(GRID), CFG)
        assert res.lam == pytest.approx(0.0, abs=1e-8)
        flat = res.phi.values / res.phi.values.mean()
        assert np.abs(flat - 1.0).max() < 1e-4

    def test_well_binds_with_negative_eigenvalue(self, well_result):
        assert well_result.converged
        assert well_result.lam < 0.0

    def test_normalization(self, well_result):
        assert abs(well_result.phi.l2_norm() - 1.0) < 1e-12

    def test_strict_positivity(self, s01, well_result):
        assert well_result.phi.values.min() > 0.0
        assert initial_field(GRID, s01, CFG).values.min() > 0.0

    def test_rayleigh_consistency(self, s01, well_result):
        pot = sharp_well(WellSpec(a=1.0, v=4.0), GRID)
        form = dirichlet_form(s01, well_result.phi, well_result.phi, pot.field)
        assert well_result.lam == pytest.approx(form.total, abs=1e-10)

    def test_monotone_descent(self, well_result):
        hist = well_result.history
        diffs = np.diff(hist[5:])
        assert np.all(diffs <= 1e-12)

    def test_minmax_upper_bound_for_probes(self, s01, well_result):
        pot = sharp_well(WellSpec(a=1.0, v=4.0), GRID)
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            w = Field(grid=GRID, values=rng.uniform(0.1, 1.0, GRID.shape))
            w = Field(grid=GRID, values=w.values / w.l2_norm())
            probe = dirichlet_form(s01, w, w, pot.field).total
            assert well_result.lam <= probe + 1e-10

    def test_simplicity_two_seeds(self, s01, well_result):
        cfg2 = SolverConfig(tau=CFG.tau, tol=1e-13, max_iters=30000, seed=99,
                            min_iters=1200)
        res2 = ground_state(s01, sharp_well(WellSpec(a=1.0, v=4.0), GRID),
                            cfg2)
        overlap = abs(well_result.phi.inner(res2.phi))
        assert overlap == pytest.approx(1.0, abs=1e-6)

    def test_non_converged_flagged(self, s01):
        cfg = SolverConfig(tau=0.02, tol=1e-300, max_iters=10, seed=3)
        res = ground_state(s01, sharp_well(WellSpec(a=1.0, v=4.0), GRID), cfg)
        assert not res.converged
        assert len(res.history) == 10

    def test_infinite_potential_rejected(self, s01):
        bad = PotentialField(
            field=Field(grid=GRID, values=np.full(GRID.shape, np.inf)),
            meta={"kind": "bad"})
        with pytest.raises(ValueError):
            ground_state(s01, bad, CFG)


class TestDirichlet:
    def test_support_projection_exact(self, s01):
        res = dirichlet_ground_state(s01, 1.0, GRID)
        outside = np.abs(GRID.axis()) > 1.0
        assert np.abs(res.phi.values[outside]).max() == 0.0
        assert res.lam > 0.0
        assert res.method == "dense-eigh"

    def test_acceptance_grid_eigenpair(self, s01):
        grid = Grid(d=1, n=2048, L=32.0)
        res = dirichlet_ground_state(s01, 1.0, grid)
        assert res.lam == pytest.approx(1.14353671, abs=1e-8)
        assert res.converged
        assert res.residual <= 1e-10 * float(np.max(
            SpectralOperator(s01, grid).multiplier))
        assert res.residual == fourier_residual(s01, None, res)
        assert abs(res.phi.l2_norm() - 1.0) < 1e-12
        assert np.all(res.phi.values[np.abs(grid.axis()) > 1.0] == 0.0)

    def test_profile_radially_non_increasing(self, s01):
        res = dirichlet_ground_state(s01, 1.0, GRID)
        prof = res.phi.values[GRID.n // 2:]
        assert float(np.max(np.diff(prof))) <= 1e-8 * prof[0]

    def test_dilation_scaling(self, s01):
        # Dilation x -> 2x maps (r, L) -> (2r, 2L) and halves the restricted
        # matrix exactly for the 1-homogeneous massless symbol, so the
        # eigenvalue halves to rounding.
        r1 = dirichlet_ground_state(s01, 1.0, Grid(d=1, n=1024, L=32.0))
        r2 = dirichlet_ground_state(s01, 2.0, Grid(d=1, n=1024, L=64.0))
        assert 2.0 * r2.lam == pytest.approx(r1.lam, rel=1e-12)

    def test_converges_to_kwasnicki_from_below(self, s01):
        # lambda_1 of (-Delta)^(1/2) on B_1 at L = 32: the discrete value
        # rises with n toward the published one.  Measured relative errors:
        # 1.230e-2 at n = 2048, 4.268e-3 at n = 8192.
        lams = [dirichlet_ground_state(s01, 1.0, Grid(d=1, n=n, L=32.0)).lam
                for n in (2048, 8192)]
        errs = [(KWASNICKI_LAMBDA1 - lam) / KWASNICKI_LAMBDA1 for lam in lams]
        assert lams[0] < lams[1] < KWASNICKI_LAMBDA1
        assert errs[0] < 1.3e-2
        assert errs[1] < 4.5e-3

    @pytest.mark.parametrize("grid", [Grid(d=2, n=256, L=20.0),
                                      Grid(d=3, n=64, L=16.0)],
                             ids=["d2", "d3"])
    def test_ball_in_higher_dimensions(self, s01, grid):
        res = dirichlet_ground_state(s01, 1.0, grid)
        assert res.converged
        assert np.all(res.phi.values[grid.radius() > 1.0] == 0.0)
        assert res.phi.values.min() >= 0.0
        # Quarter turns and flips (d = 2), flips and the axis swap (d = 3).
        assert symmetry_check(res)["exact"] <= 1e-10

    def test_cost_guard(self, s01):
        # 2 * 2048 + 1 = 4097 points of B_1 at h = 1/2048: one above the cap.
        with pytest.raises(CostGuardError, match="4097"):
            dirichlet_ground_state(s01, 1.0, Grid(d=1, n=65536, L=32.0))

    def test_radius_must_fit(self, s01):
        with pytest.raises(ValueError):
            dirichlet_ground_state(s01, 20.0, GRID)
        with pytest.raises(ValueError):
            dirichlet_ground_state(s01, 0.0, GRID)


class TestExistenceCriterion:
    def test_boolean_arithmetic(self, s01):
        lam_a, sat = existence_criterion(s01, 1.0, 1.0, GRID)
        assert lam_a > 0.0
        _, sat_deep = existence_criterion(s01, 1.0, 2.0 * lam_a, GRID)
        _, sat_shallow = existence_criterion(s01, 1.0, lam_a / 2.0, GRID)
        assert sat_deep is True
        assert sat_shallow is False

    def test_criterion_implies_bound_state(self, s01):
        lam_a, _ = existence_criterion(s01, 1.0, 1.0, GRID)
        v = 2.0 * lam_a
        res = ground_state(s01, sharp_well(WellSpec(a=1.0, v=v), GRID), CFG)
        assert res.lam < 0.0


class TestFourierResidual:
    def test_fabricated_single_mode_pair(self, s01):
        # A plane wave with a constant potential satisfies the eigenvalue
        # identity exactly: H u = (Phi(k^2) + c) u.
        k = 2.0 * math.pi * 4 / GRID.L
        u = field_from_function(GRID, lambda x: np.cos(k * x))
        u = Field(grid=GRID, values=u.values / u.l2_norm())
        c = -0.7
        pot = PotentialField(
            field=Field(grid=GRID, values=np.full(GRID.shape, c)),
            meta={"kind": "constant"})
        fake = EigenResult(lam=float(s01.evaluate(k * k)) + c, phi=u,
                           residual=0.0, iters=0, history=[], converged=True,
                           method="splitting", meta={})
        assert fourier_residual(s01, pot, fake) < 1e-10

    def test_residual_decreases_with_tau(self, s01):
        pot = sharp_well(WellSpec(a=1.0, v=4.0), GRID)
        res_a = ground_state(s01, pot, SolverConfig(tau=0.04, tol=1e-13,
                                                    max_iters=30000, seed=3))
        res_b = ground_state(s01, pot, SolverConfig(tau=0.02, tol=1e-13,
                                                    max_iters=30000, seed=3))
        assert res_b.residual < res_a.residual

    def test_engineering_bound_after_refinement(self, s01, well_result):
        # residual <= 10 tol (1 + |lam|) is a tau-limited engineering bound;
        # at this fixed tau the splitting error dominates, so compare against
        # the tau^2 scale instead of asserting the raw bound.
        assert well_result.residual < 0.1


class TestCountedWork:
    """Work per solve, counted through the numpy.fft and symbol entry points."""

    @staticmethod
    def _counted_solve(monkeypatch, symbol, max_iters):
        counts = {"rfftn": 0, "irfftn": 0, "evaluate": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as mp:
            for name in ("rfftn", "irfftn"):
                mp.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
            mp.setattr(BernsteinSymbol, "evaluate",
                       counting("evaluate", BernsteinSymbol.evaluate))
            cfg = SolverConfig(tau=0.02, tol=1e-300, max_iters=max_iters, seed=3)
            res = ground_state(symbol, sharp_well(WellSpec(a=1.0, v=4.0), GRID),
                               cfg)
        assert res.iters == max_iters
        return counts

    def test_three_transforms_per_iteration(self, monkeypatch, s01):
        short = self._counted_solve(monkeypatch, s01, 10)
        long = self._counted_solve(monkeypatch, s01, 50)
        transforms = lambda c: c["rfftn"] + c["irfftn"]
        assert transforms(long) - transforms(short) == 3 * 40
        assert long["rfftn"] - short["rfftn"] == 2 * 40
        # Seed smoothing and the final residual: O(1) transforms per solve.
        assert 0 <= transforms(short) - 3 * 10 <= 6

    def test_multiplier_evaluated_once_per_solve(self, monkeypatch, s01):
        short = self._counted_solve(monkeypatch, s01, 10)
        long = self._counted_solve(monkeypatch, s01, 50)
        assert short["evaluate"] == long["evaluate"] == 1

    def test_overflowing_step_raises(self, s01):
        # V is finite but exp(-tau V / 2) overflows inside the well.
        deep = sharp_well(WellSpec(a=1.0, v=1e4), GRID)
        cfg = SolverConfig(tau=1.0, tol=1e-12, max_iters=100, seed=3)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(RuntimeError, match="NaN/Inf in iterate at "
                                                   "iteration 1; tau=1.0"):
                ground_state(s01, deep, cfg)

    def test_underflowing_step_raises(self, s01):
        # exp(-tau V / 2) underflows to 0 everywhere: the iterate vanishes.
        high = PotentialField(field=Field(grid=GRID,
                                          values=np.full(GRID.shape, 1e4)),
                              meta={"kind": "constant"})
        cfg = SolverConfig(tau=1.0, tol=1e-12, max_iters=100, seed=3)
        with pytest.raises(RuntimeError, match="collapsed to zero"):
            ground_state(s01, high, cfg)

    def test_missing_potential_rejected(self, s01):
        with pytest.raises(ValueError, match="zero potential"):
            ground_state(s01, None, CFG)
