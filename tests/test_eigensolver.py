import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg
from scipy.sparse.linalg import LinearOperator, lobpcg

from nonlocal_spectra import eigensolver, potentials
from nonlocal_spectra.bernstein_kernels import BernsteinSymbol
from nonlocal_spectra.eigensolver import (EigenResult, SolverConfig,
                                          dirichlet_ground_state, ground_state)
from nonlocal_spectra.experiments import symmetry_check
from nonlocal_spectra.potentials import (PotentialField, WellSpec, anharmonic,
                                         mollified_well, sharp_well)
from nonlocal_spectra.spectral_core import (Field, Grid, SpectralOperator,
                                            apply_multiplier, dirichlet_form)

from helpers import field_from_function

# Kwasnicki, "Eigenvalues of the fractional Laplace operator in the
# interval", J. Funct. Anal. 262 (2012): lambda_1 of (-Delta)^(1/2) on (-1,1).
KWASNICKI_LAMBDA1 = 1.1577738836977

GRID = Grid(d=1, n=512, L=32.0)
CFG = SolverConfig(tol=1e-12, max_iters=20000, seed=3)


def zero_potential(grid):
    return PotentialField(grid=grid, values=np.zeros(grid.shape),
                          meta={"kind": "zero"})


def constant_potential(grid, c):
    return PotentialField(grid=grid, values=np.full(grid.shape, c),
                          meta={"kind": "constant"})


def fourier_residual(symbol, potential, result):
    """L^2 norm of Phi(|xi|^2) phi_hat - lam phi_hat - F[V phi] (Plancherel),
    inside the ball for a Dirichlet result."""
    phi = result.phi
    r = apply_multiplier(symbol, phi).values
    if potential is not None:
        r = r + potential.values * phi.values
    r = r - result.lam * phi.values
    radius = result.meta.get("ball_radius")
    if radius is not None:
        r = r * (phi.grid.radius() <= radius)
    return Field(grid=phi.grid, values=r).l2_norm()


@pytest.fixture(scope="module")
def well_result(s01):
    return ground_state(s01, sharp_well(WellSpec(a=1.0, v=4.0), GRID), CFG)


class TestSolverConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(tol=tol)
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
        form = dirichlet_form(s01, well_result.phi, well_result.phi, pot)
        assert well_result.lam == pytest.approx(form, abs=1e-10)

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
            probe = dirichlet_form(s01, w, w, pot)
            assert well_result.lam <= probe + 1e-10

    def test_simplicity_two_seeds(self, s01, well_result):
        cfg2 = SolverConfig(tol=1e-13, max_iters=30000, seed=99)
        res2 = ground_state(s01, sharp_well(WellSpec(a=1.0, v=4.0), GRID),
                            cfg2)
        overlap = abs(GRID.cell_volume
                      * float(np.sum(well_result.phi.values * res2.phi.values)))
        assert overlap == pytest.approx(1.0, abs=1e-6)

    def test_non_converged_flagged(self, s01):
        cfg = SolverConfig(tol=1e-300, max_iters=10, seed=3)
        res = ground_state(s01, sharp_well(WellSpec(a=1.0, v=4.0), GRID), cfg)
        assert not res.converged
        assert res.iters == 10
        assert res.meta["stop"] == "budget"

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_breakdown_stops_the_loop(self, fill):
        # A preconditioned residual of zero or non-finite norm ends the loop.
        diag = np.array([1.0, 2.0, 3.0])
        _, history, _, iters, stop = eigensolver._lobpcg(
            lambda u, out: np.multiply(diag, u, out=out),
            lambda r, out: out.fill(fill), np.ones(3), 1e-12, 10)
        assert stop == "breakdown" and iters == 1
        assert history == [pytest.approx(2.0)]

    def test_zero_weight_off_x_keeps_x(self):
        # w is always e_3 and x = (1, 1, 0) / sqrt(2), so x . H w = 0, the
        # Ritz vector is (1, 0) and s = 0 at every step: p is never formed
        # and x stays where it started.
        diag, start = np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 0.0])

        def precondition(r, out):
            out[:] = (0.0, 0.0, 1.0)

        x, history, residuals, iters, stop = eigensolver._lobpcg(
            lambda u, out: np.multiply(diag, u, out=out), precondition,
            start, 1e-12, 5)
        assert stop == "budget" and iters == 5
        assert history == [pytest.approx(1.5, rel=1e-15)] * 6
        assert residuals == [pytest.approx(0.5, rel=1e-15)] * 6
        assert np.array_equal(x, start / math.sqrt(2.0))

    def test_a_step_allocates_no_vector(self):
        # The pool of five vector/image pairs is the loop's only vector-sized
        # array until it returns a copy of x, whatever the step count.
        n = 2 ** 16
        diag = np.linspace(1.0, 100.0, n)
        inverse = 1.0 / (1.0 + diag)
        start = np.random.default_rng(0).uniform(0.5, 1.5, n)
        in_loop = []

        def precondition(r, out):
            in_loop.append(tracemalloc.get_traced_memory()[1])
            np.multiply(inverse, r, out=out)

        tracemalloc.start()
        try:
            _, _, _, iters, stop = eigensolver._lobpcg(
                lambda u, out: np.multiply(diag, u, out=out), precondition,
                start, 1e-300, 30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stop == "budget" and iters == len(in_loop) == 30
        assert max(in_loop) <= 10 * 8 * n + 64_000
        assert peak <= 11 * 8 * n + 64_000

    def test_residual_history(self, well_result):
        # One loop residual per iterate, from the start to the returned x,
        # which met a tenth of the threshold.
        residuals = well_result.meta["residuals"]
        assert len(residuals) == well_result.iters + 1
        assert well_result.meta["stop"] == "residual"
        assert residuals[-1] <= 0.1 * well_result.meta["threshold"]
        assert min(residuals[:-1]) > 0.1 * well_result.meta["threshold"]

    def test_infinite_potential_rejected(self, s01):
        bad = PotentialField(grid=GRID, values=np.full(GRID.shape, np.inf),
                             meta={"kind": "bad"})
        with pytest.raises(ValueError):
            ground_state(s01, bad, CFG)


def dense_operator(symbol, grid, points):
    """Phi(-Delta) between the grid points (one index array per axis) as a
    dense matrix: the circulant's first column irfftn(Phi(|xi|^2)) at the
    wrapped index differences."""
    column = np.fft.irfftn(SpectralOperator(symbol, grid).multiplier,
                           s=grid.shape, axes=tuple(range(grid.d)))
    flat = np.zeros((points[0].size,) * 2, dtype=np.intp)
    for idx in points:
        flat *= grid.n
        flat += np.subtract.outer(idx, idx) % grid.n
    return column.ravel()[flat]


def dense_dirichlet(symbol, radius, grid):
    """(lambda, phi) of Phi(-Delta) restricted to the ball's grid points by
    dense eigh; phi is of unit L^2 norm and positive in sum."""
    inside = grid.radius() <= radius
    lams, vecs = linalg.eigh(dense_operator(symbol, grid, np.nonzero(inside)),
                             subset_by_index=[0, 0])
    phi = np.zeros(grid.shape)
    phi[inside] = vecs[:, 0]
    phi /= math.sqrt(grid.cell_volume * np.sum(phi ** 2)) * np.sign(phi.sum())
    return float(lams[0]), phi


# Balls of B_1 with 129 (d = 1), 797 (d = 2) and 619 (d = 3) grid points.
BALL_GRIDS = {"d1": Grid(d=1, n=2048, L=32.0), "d2": Grid(d=2, n=128, L=8.0),
              "d3": Grid(d=3, n=32, L=6.0)}


class TestDirichlet:
    def test_support_projection_exact(self, s01):
        res = dirichlet_ground_state(s01, 1.0, GRID, CFG)
        outside = np.abs(GRID.axis()) > 1.0
        assert np.abs(res.phi.values[outside]).max() == 0.0
        assert res.lam > 0.0
        assert res.method == "lobpcg"

    def test_acceptance_grid_eigenpair(self, s01):
        grid = Grid(d=1, n=2048, L=32.0)
        res = dirichlet_ground_state(s01, 1.0, grid, CFG)
        assert res.lam == pytest.approx(1.14353671, abs=1e-8)
        threshold = max(CFG.tol, 100.0 * float(np.finfo(float).eps) * float(
            np.max(SpectralOperator(s01, grid).multiplier)))
        assert res.meta["threshold"] == pytest.approx(threshold, rel=1e-15)
        assert res.converged and res.meta["stop"] == "residual"
        assert res.residual <= threshold
        assert res.residual == fourier_residual(s01, None, res)
        assert abs(res.phi.l2_norm() - 1.0) < 1e-12
        assert np.all(res.phi.values[np.abs(grid.axis()) > 1.0] == 0.0)

    @pytest.mark.parametrize("grid", sorted(BALL_GRIDS))
    @pytest.mark.parametrize("m, alpha", [(0.0, 1.0), (1.0, 1.0), (0.0, 0.5),
                                          (1.0, 1.5)])
    def test_dense_oracle(self, grid, m, alpha):
        grid = BALL_GRIDS[grid]
        symbol = BernsteinSymbol.relativistic(m, alpha)
        res = dirichlet_ground_state(symbol, 1.0, grid, CFG)
        lam, phi = dense_dirichlet(symbol, 1.0, grid)
        assert res.converged
        assert res.lam == pytest.approx(lam, rel=1e-12, abs=0.0)
        assert np.abs(res.phi.values - phi).max() <= 1e-10

    def test_profile_radially_non_increasing(self, s01):
        res = dirichlet_ground_state(s01, 1.0, GRID, CFG)
        prof = res.phi.values[GRID.n // 2:]
        assert float(np.max(np.diff(prof))) <= 1e-8 * prof[0]

    def test_dilation_scaling(self, s01):
        # Dilation x -> 2x maps (r, L) -> (2r, 2L) and halves the masked
        # operator exactly for the 1-homogeneous massless symbol, so the
        # eigenvalue halves to rounding.
        r1 = dirichlet_ground_state(s01, 1.0, Grid(d=1, n=1024, L=32.0), CFG)
        r2 = dirichlet_ground_state(s01, 2.0, Grid(d=1, n=1024, L=64.0), CFG)
        assert 2.0 * r2.lam == pytest.approx(r1.lam, rel=1e-12)

    def test_converges_to_kwasnicki_from_below(self, s01):
        # lambda_1 of (-Delta)^(1/2) on B_1 at L = 32: the discrete value
        # rises with n toward the published one.  Measured relative errors:
        # 1.230e-2 at n = 2048, 4.268e-3 at n = 8192 and 1.909e-3 at
        # n = 65536, whose ball holds 4097 points.
        lams = []
        for n in (2048, 8192, 65536):
            grid = Grid(d=1, n=n, L=32.0)
            res = dirichlet_ground_state(s01, 1.0, grid, CFG)
            assert res.converged
            assert np.all(res.phi.values[grid.radius() > 1.0] == 0.0)
            lams.append(res.lam)
        errs = [(KWASNICKI_LAMBDA1 - lam) / KWASNICKI_LAMBDA1 for lam in lams]
        assert lams[0] < lams[1] < lams[2] < KWASNICKI_LAMBDA1
        assert errs[0] < 1.3e-2
        assert errs[1] < 4.5e-3
        assert errs[2] < 2.0e-3

    @pytest.mark.parametrize("grid", [Grid(d=2, n=256, L=20.0),
                                      Grid(d=3, n=64, L=16.0)],
                             ids=["d2", "d3"])
    def test_ball_in_higher_dimensions(self, s01, grid):
        res = dirichlet_ground_state(s01, 1.0, grid, CFG)
        assert res.converged
        assert np.all(res.phi.values[grid.radius() > 1.0] == 0.0)
        assert res.phi.values.min() >= 0.0
        # Quarter turns and flips (d = 2), flips and the axis swap (d = 3).
        assert symmetry_check(res)["exact"] <= 1e-10

    def test_radius_must_fit(self, s01):
        with pytest.raises(ValueError):
            dirichlet_ground_state(s01, 20.0, GRID, CFG)
        with pytest.raises(ValueError):
            dirichlet_ground_state(s01, 0.0, GRID, CFG)


class TestExistenceCriterion:
    def test_criterion_implies_bound_state(self, s01):
        # lambda_a - v < 0 guarantees a bound state of the depth-v well.
        lam_a = dirichlet_ground_state(s01, 1.0, GRID, CFG).lam
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
        pot = PotentialField(grid=GRID, values=np.full(GRID.shape, c),
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
        # The deep well's recurrence residual can stall at its rounding
        # floor, between the ask and the threshold.
        assert res.converged and res.meta["stop"] in (
            ("residual", "floor") if case == "deep-well" else ("residual",))
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
        lam_d = dirichlet_ground_state(s01, 1.0, GRID, CFG).lam
        assert res.converged
        # -v < lambda <= lambda_D(B_1) - v by min-max.
        assert -v < res.lam <= lam_d - v

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_deep_well_stops_at_its_floor(self, s01, seed):
        # The loop residual's rounding floor lies above the ask, so without
        # the floor stop most seeds ran out their 20,000 iterations.
        res = ground_state(s01, sharp_well(WellSpec(a=1.0, v=1e4), GRID),
                           replace(CFG, seed=seed))
        assert res.converged and res.iters <= 200
        assert res.meta["stop"] in ("residual", "floor")

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
        assert a.meta["residuals"] == b.meta["residuals"]
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


# Wells and constants run on the modes, where the planes k_d = 0 and n/2
# hold each mode and its mirror; d = 3 mirrors them on two axes.
MODE_GRIDS = {"d2": Grid(d=2, n=64, L=16.0), "d3": Grid(d=3, n=16, L=8.0)}


class TestModeBasis:
    @pytest.mark.parametrize("grid", sorted(MODE_GRIDS))
    @pytest.mark.parametrize("value", [10.0, 1e4])
    def test_constant_potential(self, s01, grid, value):
        # Phi(0) = 0, so lambda = V with a flat ground state.  A plane left
        # conjugate only to rounding let the loop converge to a mode that
        # irfftn cannot see.
        res = ground_state(s01, constant_potential(MODE_GRIDS[grid], value),
                           CFG)
        assert res.converged
        assert res.lam == pytest.approx(value, abs=res.meta["threshold"])
        flat = res.phi.values / res.phi.values.mean()
        assert np.abs(flat - 1.0).max() < 1e-8

    @pytest.mark.parametrize("grid", sorted(MODE_GRIDS))
    @pytest.mark.parametrize("shift", [10.0, -10.0])
    def test_shift_moves_lambda_by_the_shift(self, s01, grid, shift):
        # Shifted up, the well leaves V_+ = 4 outside it and runs on the
        # grid; shifted down it stays on the modes.
        grid = MODE_GRIDS[grid]
        well = sharp_well(WellSpec(a=1.0, v=4.0), grid)
        shifted = PotentialField(grid=grid, values=well.values + shift,
                                 meta={"kind": "shifted_well"})
        base, moved = ground_state(s01, well, CFG), ground_state(s01, shifted, CFG)
        assert base.converged and moved.converged
        assert moved.lam - base.lam == pytest.approx(
            shift, abs=moved.meta["threshold"])


def dense_lowest_eigenvalue(symbol, pot):
    """Lowest eigenvalue of the dense H: Phi(-Delta) on every grid point
    plus diag(V)."""
    grid = pot.grid
    matrix = (dense_operator(symbol, grid,
                             np.indices(grid.shape).reshape(grid.d, -1))
              + np.diag(pot.values.ravel()))
    return float(linalg.eigvalsh(matrix, subset_by_index=[0, 0])[0])


# Dense eigh errs by about eps ||H||, so the anharmonic boxes have L = 4,
# where |x|^8 stays below 256 in d = 1 and 2, or L = 8 for |x|^4.
DENSE_CASES = {
    "well-1d-s01": ("s01", sharp_well(WellSpec(a=1.0, v=4.0),
                                      Grid(d=1, n=128, L=16.0))),
    "well-1d-s11": ("s11", sharp_well(WellSpec(a=1.0, v=4.0),
                                      Grid(d=1, n=128, L=16.0))),
    "anharmonic-4-1d-s01": ("s01", anharmonic(4, Grid(d=1, n=128, L=4.0))),
    "anharmonic-4-1d-s11": ("s11", anharmonic(4, Grid(d=1, n=128, L=4.0))),
    "anharmonic-2-1d-s01": ("s01", anharmonic(2, Grid(d=1, n=128, L=8.0))),
    "anharmonic-2-1d-s11": ("s11", anharmonic(2, Grid(d=1, n=128, L=8.0))),
    "well-2d-s01": ("s01", sharp_well(WellSpec(a=1.0, v=4.0),
                                      Grid(d=2, n=32, L=8.0))),
    "anharmonic-4-2d-s01": ("s01", anharmonic(4, Grid(d=2, n=32, L=4.0))),
}


class TestAgainstIndependentSolvers:
    @pytest.mark.parametrize("case", sorted(DENSE_CASES))
    def test_dense_oracle(self, request, case):
        # Wells take the D = 1 preconditioner, anharmonic wells the split
        # one; V_+ reaches 256 against t0 of 25 to 50, so both of its blocks
        # are non-empty.
        name, pot = DENSE_CASES[case]
        symbol = request.getfixturevalue(name)
        res = ground_state(symbol, pot, CFG)
        assert res.converged
        assert res.lam == pytest.approx(dense_lowest_eigenvalue(symbol, pot),
                                        rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("build", [
        lambda g: sharp_well(WellSpec(a=1.0, v=4.0), g),
        lambda g: anharmonic(4, g)], ids=["well", "anharmonic-4"])
    def test_no_more_iterations_than_scipy_lobpcg(self, monkeypatch, s01,
                                                  build):
        # scipy's block LOBPCG gets the start, operator, preconditioner and
        # tolerance ground_state hands its own loop.
        grid, loop, seen = Grid(d=1, n=2048, L=32.0), eigensolver._lobpcg, {}

        def spy(apply_H, precondition, x, tol, max_iters):
            seen.update(apply_H=apply_H, precondition=precondition,
                        start=x.copy(), tol=tol, max_iters=max_iters)
            return loop(apply_H, precondition, x, tol, max_iters)

        monkeypatch.setattr(eigensolver, "_lobpcg", spy)
        res = ground_state(s01, build(grid),
                           SolverConfig(tol=1e-13, max_iters=60000, seed=0))
        assert res.converged and res.meta["stop"] == "residual"

        applications = 0

        # The well's vectors are its modes, the anharmonic well's its grid
        # values: either way start's shape.
        shape = seen["start"].shape

        def precondition(x):
            nonlocal applications
            applications += 1
            out = np.empty(shape)
            seen["precondition"](x.reshape(shape), out)
            return out.reshape(x.shape)

        def apply_H(x):
            out = np.empty(shape)
            seen["apply_H"](x.reshape(shape), out)
            return out.reshape(x.shape)

        size = seen["start"].size
        H = LinearOperator((size, size), apply_H, dtype=float)
        M = LinearOperator((size, size), precondition, dtype=float)
        _, _, residuals = lobpcg(H, seen["start"].reshape(size, 1), M=M,
                                 tol=seen["tol"], maxiter=seen["max_iters"] - 1,
                                 largest=False, retResidualNormsHistory=True)
        assert min(residuals) <= seen["tol"]
        assert res.iters <= applications


def spied_solve(monkeypatch, symbol, pot, cfg):
    """ground_state's result and what it hands _lobpcg."""
    loop, seen = eigensolver._lobpcg, {}

    def spy(apply_H, precondition, x, tol, max_iters):
        seen.update(apply_H=apply_H, precondition=precondition,
                    start=x.copy(), tol=tol, max_iters=max_iters)
        return loop(apply_H, precondition, x, tol, max_iters)

    monkeypatch.setattr(eigensolver, "_lobpcg", spy)
    return ground_state(symbol, pot, cfg), seen


class TestPreconditioner:
    """Where V_+ <= t0, the diagonal of Phi(-Delta), the preconditioner is
    chi D (c + Phi)^(-1) D chi; elsewhere the diagonal 1 / (c + t0 + V_+).
    V_+ is the part of V above max(0, min V)."""

    CFG = SolverConfig(tol=1e-13, max_iters=60000, seed=1)
    GRID = Grid(d=1, n=2048, L=32.0)

    def split_and_product_iters(self, monkeypatch, symbol, pot):
        """Iterations of ground_state, and of the product rule
        D (c + Phi)^(-1) D on every point, D from V_+ = max(V, 0), run
        from the same start to the same tolerance."""
        res, seen = spied_solve(monkeypatch, symbol, pot, self.CFG)
        assert res.converged and res.meta["stop"] == "residual"
        op = SpectralOperator(symbol, pot.grid)
        c = 1.0 + max(0.0, -float(np.min(pot.values)))
        # t0, the diagonal of the dense Phi(-Delta).
        t0 = float(dense_operator(symbol, pot.grid, (np.array([0]),))[0, 0])
        D = np.sqrt((c + t0) / (c + t0 + np.maximum(pot.values, 0.0)))
        inverse = 1.0 / (c + op.multiplier)
        _, _, _, product_iters, stop = eigensolver._lobpcg(
            seen["apply_H"],
            lambda r, out: np.multiply(D, op.filter(D * r, inverse), out=out),
            seen["start"], seen["tol"], seen["max_iters"])
        assert stop == "residual"
        return res.iters, product_iters

    def test_well_takes_the_plain_fourier_inverse(self, monkeypatch, s01):
        pot = sharp_well(WellSpec(a=1.0, v=4.0), self.GRID)
        _, seen = spied_solve(monkeypatch, s01, pot, self.CFG)
        op = SpectralOperator(s01, self.GRID)
        # The loop runs on the modes, where the inverse is a product.
        r = np.random.default_rng(0).standard_normal(seen["start"].shape)
        out = np.empty_like(r)
        seen["precondition"](r, out)
        # c = 1 + max(0, -min V) = 5.
        assert np.array_equal(out.view(complex),
                              r.view(complex) * (1.0 / (5.0 + op.multiplier)))

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
    def test_fewer_iterations_than_the_product_rule(self, monkeypatch, s01, k):
        split, product = self.split_and_product_iters(
            monkeypatch, s01, anharmonic(k, self.GRID))
        if k == 1:
            assert split <= product
        else:
            assert 2 * split <= product

    @pytest.mark.parametrize("shift", [200.0, 1e4])
    def test_plateau_above_t0_stays_in_the_fourier_block(self, monkeypatch,
                                                         s01, shift):
        # V >= shift - 4 > t0 (about 100) everywhere.  Measured from 0,
        # every point would take the diagonal alone, which leaves the
        # kinetic part unpreconditioned: 133 and 121 iterations against the
        # product rule's 31 and 28.
        well = sharp_well(WellSpec(a=1.0, v=4.0), self.GRID)
        pot = PotentialField(grid=self.GRID, values=well.values + shift,
                             meta={"kind": "shifted_well"})
        split, product = self.split_and_product_iters(monkeypatch, s01, pot)
        assert split <= product


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
        # On the modes, one matvec pair per iteration and no transform in
        # the preconditioner.  The start's rfftn, the first matvec, phi's
        # irfftn and the check's pair make 6 per solve.
        assert counts["rfftn"] + counts["irfftn"] <= 2 * res.iters + 6
        return counts

    def test_multiplier_evaluated_once_per_solve(self, monkeypatch, s01):
        short = self._counted_solve(monkeypatch, s01, 10)
        long = self._counted_solve(monkeypatch, s01, 20)
        assert short["evaluate"] == long["evaluate"] == 1

    @staticmethod
    def _unbuffered_transforms(monkeypatch, solve, symbol, max_iters):
        """numpy.fft.rfftn and irfftn calls of one solve made without out."""
        unbuffered = []

        def spying(fn):
            def wrapper(*args, **kwargs):
                if kwargs.get("out") is None:
                    unbuffered.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as mp:
            for name in ("rfftn", "irfftn"):
                mp.setattr(np.fft, name, spying(getattr(np.fft, name)))
            res = solve(symbol, SolverConfig(tol=1e-300, max_iters=max_iters,
                                             seed=3))
        assert res.iters == max_iters
        return sorted(unbuffered)

    @pytest.mark.parametrize("solve", [
        lambda s, cfg: ground_state(s, sharp_well(WellSpec(a=1.0, v=4.0),
                                                  GRID), cfg),
        lambda s, cfg: ground_state(s, anharmonic(4, GRID), cfg),
        lambda s, cfg: ground_state(s, sharp_well(WellSpec(a=1.0, v=4.0),
                                                  Grid(d=2, n=64, L=16.0)), cfg),
        lambda s, cfg: dirichlet_ground_state(s, 1.0, GRID, cfg)],
        ids=["well-1d", "anharmonic-1d", "well-2d", "ball"])
    def test_loop_transforms_write_into_buffers(self, monkeypatch, s01, solve):
        # Only the inverse transform of the check's H phi, after the loop,
        # returns a fresh array; a well's start and phi transforms and the
        # anharmonic t0 write into buffers too.
        short = self._unbuffered_transforms(monkeypatch, solve, s01, 4)
        long = self._unbuffered_transforms(monkeypatch, solve, s01, 8)
        assert short == long == ["irfftn"]

    def test_missing_potential_rejected(self, s01):
        with pytest.raises(ValueError, match="zero potential"):
            ground_state(s01, None, CFG)
