import math
import tracemalloc

import numpy as np
import pytest

from nonlocal_spectra import potentials
from nonlocal_spectra.bernstein_kernels import BernsteinSymbol
from nonlocal_spectra.eigensolver import (EigenResult, SolverConfig,
                                          dirichlet_ground_state,
                                          existence_criterion,
                                          fourier_residual, ground_state)
from nonlocal_spectra.experiments import symmetry_check
from nonlocal_spectra.potentials import (PotentialField, WellSpec, anharmonic,
                                         mollified_well, sharp_well)
from nonlocal_spectra.spectral_core import (CostGuardError, Field, Grid,
                                            SpectralOperator, dirichlet_form,
                                            field_from_function)

# Kwasnicki, "Eigenvalues of the fractional Laplace operator in the
# interval", J. Funct. Anal. 262 (2012): lambda_1 of (-Delta)^(1/2) on (-1,1).
KWASNICKI_LAMBDA1 = 1.1577738836977

GRID = Grid(d=1, n=512, L=32.0)
CFG = SolverConfig(tol=1e-12, max_iters=20000, seed=3)


def zero_potential(grid):
    return PotentialField(field=Field(grid=grid, values=np.zeros(grid.shape)),
                          meta={"kind": "zero"})


def constant_potential(grid, c):
    return PotentialField(field=Field(grid=grid, values=np.full(grid.shape, c)),
                          meta={"kind": "constant"})


@pytest.fixture(scope="module")
def well_result(s01):
    return ground_state(s01, sharp_well(WellSpec(a=1.0, v=4.0), GRID), CFG)


class TestSolverConfig:
    def test_invariants(self):
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

    def test_strict_positivity(self, well_result):
        assert well_result.phi.values.min() > 0.0

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
        cfg2 = SolverConfig(tol=1e-13, max_iters=30000, seed=99)
        res2 = ground_state(s01, sharp_well(WellSpec(a=1.0, v=4.0), GRID),
                            cfg2)
        overlap = abs(well_result.phi.inner(res2.phi))
        assert overlap == pytest.approx(1.0, abs=1e-6)

    def test_non_converged_flagged(self, s01):
        cfg = SolverConfig(tol=1e-300, max_iters=10, seed=3)
        res = ground_state(s01, sharp_well(WellSpec(a=1.0, v=4.0), GRID), cfg)
        assert not res.converged
        assert res.iters == 10
        assert res.meta["stop"] == "budget"

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
                           method="lobpcg", meta={})
        assert fourier_residual(s01, pot, fake) < 1e-10

    def test_engineering_bound_after_refinement(self, well_result):
        # residual <= 10 tol (1 + |lam|), the engineering bound a residual
        # test gives at its tolerance.
        bound = 10.0 * CFG.tol * (1.0 + abs(well_result.lam))
        assert well_result.residual <= bound


# Potentials every solve must converge on, with the symbol fixture to use.
CONVERGENCE_CASES = {
    "free": ("s01", zero_potential),
    "well": ("s01", lambda g: sharp_well(WellSpec(a=1.0, v=4.0), g)),
    "massive-well": ("s11", lambda g: sharp_well(WellSpec(a=1.0, v=4.0), g)),
    "mollified": ("s01", lambda g: mollified_well(
        WellSpec(a=1.0, v=4.0, eps=0.2), g)),
    "deep-well": ("s01", lambda g: sharp_well(WellSpec(a=1.0, v=1e4), g)),
    "constant-1e4": ("s01", lambda g: constant_potential(g, 1e4)),
    "anharmonic-2": ("s01", lambda g: anharmonic(2, g)),
    "anharmonic-16": ("s01", lambda g: anharmonic(16, g)),
}


class TestConvergence:
    @pytest.mark.parametrize("case", sorted(CONVERGENCE_CASES))
    def test_converged_result_meets_its_threshold(self, request, case):
        name, build = CONVERGENCE_CASES[case]
        symbol = request.getfixturevalue(name)
        pot = build(GRID)
        res = ground_state(symbol, pot, CFG)
        norm_h = float(np.max(SpectralOperator(symbol, GRID).multiplier)) \
            + float(np.max(np.abs(pot.values)))
        threshold = max(CFG.tol, 100.0 * float(np.finfo(float).eps) * norm_h)
        assert res.meta["threshold"] == pytest.approx(threshold, rel=1e-15)
        assert res.converged and res.meta["stop"] == "residual"
        assert res.method == "lobpcg"
        # The residual recomputed from phi and lambda alone.
        assert fourier_residual(symbol, pot, res) <= threshold
        assert abs(res.phi.l2_norm() - 1.0) < 1e-12
        assert res.phi.values.sum() > 0.0

    def test_2d_well_meets_its_threshold(self, s01):
        pot = sharp_well(WellSpec(a=1.0, v=4.0), Grid(d=2, n=64, L=16.0))
        res = ground_state(s01, pot, CFG)
        assert res.converged
        assert fourier_residual(s01, pot, res) <= res.meta["threshold"]

    def test_deep_well(self, s01):
        # The splitting solver's exp(-tau V / 2) overflowed here.
        v = 1e4
        res = ground_state(s01, sharp_well(WellSpec(a=1.0, v=v), GRID), CFG)
        lam_d = dirichlet_ground_state(s01, 1.0, GRID).lam
        assert res.converged
        # -v < lambda <= lambda_D(B_1) - v by min-max.
        assert -v < res.lam <= lam_d - v

    def test_high_constant_potential(self, s01):
        # The splitting solver's exp(-tau V / 2) underflowed to 0 here.
        # Phi(0) = 0, so the ground state is flat with lambda = V.
        res = ground_state(s01, constant_potential(GRID, 1e4), CFG)
        assert res.converged
        assert res.lam == pytest.approx(1e4, abs=res.meta["threshold"])
        flat = res.phi.values / res.phi.values.mean()
        assert np.abs(flat - 1.0).max() < 1e-8

    @pytest.mark.parametrize("k", [8, 16])
    def test_anharmonic_cap_bracket(self, monkeypatch, s01, k):
        # Raising the cap raises V pointwise, so lambda can only rise
        # (min-max); the 1e6 cap must already be within 1e-7 of a 1e8 cap.
        lams = []
        for cap in (1e6, 1e8):
            monkeypatch.setattr(potentials, "ANHARMONIC_CAP", cap)
            pot = anharmonic(k, GRID)
            assert pot.meta["cap"] == cap and pot.meta["clamped"]
            res = ground_state(s01, pot, CFG)
            assert res.converged
            lams.append(res.lam)
        assert lams[0] <= lams[1]
        assert (lams[1] - lams[0]) / lams[1] <= 1e-7

    def test_reruns_bit_identical(self, s01):
        pot = anharmonic(4, GRID)
        a, b = ground_state(s01, pot, CFG), ground_state(s01, pot, CFG)
        assert a.lam == b.lam and a.history == b.history
        assert np.array_equal(a.phi.values, b.phi.values)

    def test_peak_memory_256_squared(self, s01):
        # The criterion-11 grid, where one full-grid vector is 0.5 MB.
        pot = sharp_well(WellSpec(a=1.0, v=4.0), Grid(d=2, n=256, L=20.0))
        cfg = SolverConfig(tol=1e-13, max_iters=3000, seed=11)
        tracemalloc.start()
        try:
            res = ground_state(s01, pot, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak <= 10e6


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
            cfg = SolverConfig(tol=1e-300, max_iters=max_iters, seed=3)
            res = ground_state(symbol, sharp_well(WellSpec(a=1.0, v=4.0), GRID),
                               cfg)
        assert res.iters == max_iters
        assert counts["evaluate"] == 1
        # A matvec and a preconditioner pair per iteration; the first and
        # the final Rayleigh-Ritz matvec, the Rayleigh quotient and the
        # residual are O(1) per solve.
        assert counts["rfftn"] + counts["irfftn"] <= 4 * res.iters + 8
        return counts

    def test_multiplier_evaluated_once_per_solve(self, monkeypatch, s01):
        short = self._counted_solve(monkeypatch, s01, 10)
        long = self._counted_solve(monkeypatch, s01, 20)
        assert short["evaluate"] == long["evaluate"] == 1

    def test_missing_potential_rejected(self, s01):
        with pytest.raises(ValueError, match="zero potential"):
            ground_state(s01, None, CFG)
