import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from nonlocal_spectra import experiments
from nonlocal_spectra.bernstein_kernels import (BernsteinSymbol,
                                                relativistic_prefactor)
from nonlocal_spectra.eigensolver import (SolverConfig,
                                          dirichlet_ground_state, ground_state)
from nonlocal_spectra.experiments import (antisym_constant_c2,
                                          antisym_constant_c4,
                                          antisymmetric_minimum_check,
                                          anharmonic_to_dirichlet,
                                          embedding_tail_check,
                                          kernel_lower_constant,
                                          monotonicity_check,
                                          moving_plane_min,
                                          random_band_limited,
                                          stability_sweep, symmetry_check)
from nonlocal_spectra.potentials import (BoxTooSmallError, PotentialField,
                                         WellSpec, anharmonic, mollified_well,
                                         reflected_values, sharp_well)
from nonlocal_spectra.spectral_core import Field, Grid

from helpers import field_from_function

GRID = Grid(d=1, n=1024, L=32.0)
CFG = SolverConfig(tol=1e-12, max_iters=30000, seed=11)
WELL = WellSpec(a=1.0, v=4.0)


@pytest.fixture
def solve_counts(monkeypatch):
    """Calls of the two eigensolvers the sequence drivers use, by name."""
    counts = {"ground_state": 0, "dirichlet_ground_state": 0}
    for name in counts:
        def counted(*args, _name=name, _solve=getattr(experiments, name)):
            counts[_name] += 1
            return _solve(*args)
        monkeypatch.setattr(experiments, name, counted)
    return counts


@pytest.fixture
def solved(monkeypatch):
    """Every result of experiments.ground_state, in call order."""
    results = []

    def recording(*args):
        results.append(ground_state(*args))
        return results[-1]

    monkeypatch.setattr(experiments, "ground_state", recording)
    return results


@pytest.fixture(scope="module")
def sweep(s01):
    return stability_sweep(s01, WELL, [0.4, 0.2, 0.1], GRID, CFG)


class TestStabilitySweep:
    def test_gap_decay_and_convergence(self, sweep):
        gaps, l2_gaps = sweep["gaps"], sweep["l2_gaps"]
        assert sweep["monotone_gap_decay"]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert sweep["converged"]
        assert all(b < a for a, b in zip(l2_gaps, l2_gaps[1:]))

    def test_minmax_margins_positive(self, sweep):
        # lambda_eps + v < lambda_a holds for every mollified well.
        assert all(m > 1e-6 for m in sweep["minmax_margins"])

    def test_eps_zero_shortcut_gap_vanishes(self, s01):
        rep = stability_sweep(s01, WELL, [0.2, 0.0], GRID, CFG)
        assert rep["gaps"][-1] == 0.0
        assert rep["l2_gaps"][-1] == 0.0

    def test_schedule_validation(self, s01):
        with pytest.raises(ValueError):
            stability_sweep(s01, WELL, [0.1, 0.2], GRID, CFG)
        with pytest.raises(ValueError):
            stability_sweep(s01, WELL, [0.2, GRID.h], GRID, CFG)
        with pytest.raises(ValueError, match="entries must be >= 0"):
            stability_sweep(s01, WELL, [0.2, -0.1], GRID, CFG)
        # NaN passes every ordered comparison of the decrease test.
        with pytest.raises(ValueError, match="entries must be >= 0 and finite"):
            stability_sweep(s01, WELL, [0.8, math.nan, 0.4], GRID, CFG)

    def test_widest_well_checked_before_any_solve(self, s01, solve_counts):
        # a + eps_0 = 16.2 leaves [-16, 16); the sharp well, its 2n rerun
        # and the ball of radius a = 15.8 would all fit.
        with pytest.raises(BoxTooSmallError, match="a \\+ eps = 16.2"):
            stability_sweep(s01, WellSpec(a=15.8, v=4.0), [0.4, 0.2], GRID,
                            CFG)
        assert solve_counts == {"ground_state": 0,
                                "dirichlet_ground_state": 0}

    def test_report_records_each_solve(self, s01, solved):
        # One iteration count and stop reason per eps, from the solve that
        # made it; eps = 0 repeats the sharp target's, the first solve.
        rep = stability_sweep(s01, WELL, [0.2, 0.0], GRID, CFG)
        target, _, mollified = solved
        assert rep["iters"] == [mollified.iters, target.iters]
        assert rep["stops"] == [mollified.meta["stop"], target.meta["stop"]]

    def test_json_and_csv_shapes(self, sweep):
        # One entry per eps in every list, the four CSV columns included.
        assert all(len(sweep[key]) == 3 for key in (
            "params", "lambda", "gaps", "l2_gaps", "residuals", "iters",
            "stops", "minmax_margins", "image_gaps", "triangle_bounds"))


class TestUniformShift:
    def test_exact_spectral_shift(self, s01):
        # V - v/k shifts the operator by a scalar: lambda_k = lambda - v/k,
        # with the same ground state up to sign.
        well = sharp_well(WELL, GRID)
        target = ground_state(s01, well, CFG)
        assert target.converged
        for k in (1, 2, 4):
            res = ground_state(s01, PotentialField(
                grid=GRID, values=well.values - WELL.v / k,
                meta={"kind": "shifted_well", "shift": WELL.v / k}), CFG)
            assert res.lam == pytest.approx(target.lam - WELL.v / k,
                                            abs=1e-12)
            assert min(Field(grid=GRID, values=res.phi.values
                             - sign * target.phi.values).l2_norm()
                       for sign in (1.0, -1.0)) < 1e-12
            assert res.converged


class TestAnharmonicToDirichlet:
    def test_tail_convergence_and_confinement(self, s01, solved):
        # The gap sequence is physically non-monotone at k=1 -> 2 (the x^4
        # well is softer than x^2 inside the ball); the approach toward the
        # Dirichlet value over the tail of the list is what the stability
        # theory guarantees at desk scale.
        rep = anharmonic_to_dirichlet(s01, [2, 4, 8, 16], GRID, CFG)
        gaps = rep["gaps"]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert rep["lambda_dirichlet"] > 0.0
        outside = np.abs(GRID.axis()) > 1.0
        masses = [GRID.cell_volume * float(np.sum(res.phi.values[outside]
                                                  ** 2)) for res in solved]
        # Confinement tightens with k; the k = 16 leakage measures a few
        # permille through the still-soft wall.
        assert all(b < a for a, b in zip(masses, masses[1:]))
        assert masses[-1] < 5e-3

    def test_k1_vs_k2_ordering_recorded(self, s01):
        # Direct numerical confirmation (no a-priori claim): lambda(1) >
        # lambda(2) for the massless d=1 symbol.
        rep = anharmonic_to_dirichlet(s01, [1, 2], GRID, CFG)
        assert rep["lambda"][0] > rep["lambda"][1]

    def test_unconverged_well_solve_flags_report(self, s01):
        # The Dirichlet target converges; a 5-iteration well solve does not.
        cfg = SolverConfig(tol=1e-12, max_iters=5, seed=11)
        rep = anharmonic_to_dirichlet(s01, [1, 2], GRID, cfg)
        assert not rep["converged"]

    def test_report_records_each_solve(self, s01, solved):
        cfg = SolverConfig(tol=1e-12, max_iters=5, seed=11)
        payload = anharmonic_to_dirichlet(s01, [1, 2], GRID, cfg)
        assert payload["iters"] == [res.iters for res in solved] == [5, 5]
        assert payload["stops"] == [res.meta["stop"] for res in solved]

    def test_report_json_has_no_image_gaps(self, s01):
        # Only the stability sweep computes criterion 9's image gaps.
        cfg = SolverConfig(tol=1e-12, max_iters=5, seed=11)
        payload = anharmonic_to_dirichlet(s01, [1], GRID, cfg)
        assert "image_gaps" not in payload
        assert "triangle_bounds" not in payload

    def test_k_list_must_increase(self, s01):
        with pytest.raises(ValueError):
            anharmonic_to_dirichlet(s01, [4, 2], GRID, CFG)

    @pytest.mark.parametrize("k_list, match", [
        ([1.5, 2], "integer >= 1, got 1.5"), ([0, 2], "integer >= 1, got 0"),
        ([2, 2], "increasing")])
    def test_k_list_checked_before_any_solve(self, s01, solve_counts, k_list,
                                             match):
        with pytest.raises(ValueError, match=match):
            anharmonic_to_dirichlet(s01, k_list, GRID, CFG)
        assert solve_counts == {"ground_state": 0,
                                "dirichlet_ground_state": 0}


class TestOperatorImageConvergence:
    def test_gaps_decrease_and_identity_bound(self, sweep):
        gaps = sweep["image_gaps"]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert all(g <= b for g, b in zip(gaps, sweep["triangle_bounds"]))
        assert all(g > 0 for g in gaps)

    def test_identical_runs_have_zero_gap(self, s01):
        rep0 = stability_sweep(s01, WELL, [0.2, 0.0], GRID, CFG)
        assert rep0["image_gaps"][-1] == 0.0


class TestSymmetryCheck:
    def test_parity_defect_small_after_long_run(self, s01):
        cfg = SolverConfig(tol=1e-13, max_iters=4000, seed=11)
        res = ground_state(s01, sharp_well(WELL, GRID), cfg)
        assert symmetry_check(res)["exact"] < 1e-10

    def test_off_center_well_breaks_symmetry(self, s01):
        pot = Field(grid=GRID,
                    values=reflected_values(sharp_well(WELL, GRID), -1.0))
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

    @pytest.mark.parametrize("d, rotations", [(2, -2), (1, -2), (1, 3)])
    def test_rotations_that_cannot_run_rejected(self, d, rotations):
        # The interpolated rotations are 2D only; nothing rotates by a
        # negative count.
        grid = Grid(d=d, n=16, L=8.0)
        phi = field_from_function(grid, lambda *x: np.exp(-sum(
            t * t for t in x)))
        with pytest.raises(ValueError, match=f"got {rotations} in d = {d}"):
            symmetry_check(SimpleNamespace(phi=phi), rotations=rotations)

    def test_d3_checks_the_full_cubic_group(self):
        # Flips and swap-xy alone (a group of order 16) leave this field
        # invariant; swap-yz, one of the 48 cubic maps, does not.
        g3 = Grid(d=3, n=16, L=8.0)
        ellipsoid = field_from_function(
            g3, lambda x, y, z: np.exp(-(x * x + y * y) - 2.0 * z * z))
        radial = field_from_function(
            g3, lambda x, y, z: np.exp(-(x * x + y * y + z * z)))
        assert symmetry_check(SimpleNamespace(phi=ellipsoid))["exact"] > 1e-2
        assert symmetry_check(SimpleNamespace(phi=radial))["exact"] <= 1e-12


class TestMonotonicityCheck:
    def test_well_ground_state_monotone(self, s01):
        cfg = SolverConfig(tol=1e-13, max_iters=4000, seed=11)
        res = ground_state(s01, sharp_well(WELL, GRID), cfg)
        rep = monotonicity_check(res)
        assert rep["max_violation"] <= 1e-6 * rep["chi0"]
        assert rep["region_flags"]["core [0,a]"]
        assert rep["region_flags"]["tail [a+eps,inf)"]

    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_d3_well_ground_state_monotone(self, m):
        # At 32^3 the Phi_{1,1} tail rises by 1.0e-6: discretisation, not a
        # violation of the theorem, so the grid is 64^3.
        grid = Grid(d=3, n=64, L=16.0)
        res = ground_state(BernsteinSymbol.relativistic(m, 1.0),
                           sharp_well(WELL, grid), SolverConfig())
        assert res.converged
        assert symmetry_check(res)["exact"] <= 1e-10
        rep = monotonicity_check(res)
        assert rep["max_violation"] <= 1e-6 * rep["chi0"]
        assert rep["region_flags"]["core [0,a]"]
        assert rep["region_flags"]["tail [a+eps,inf)"]

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
        assert rep["max_violation"] > 1e-2

    def test_moving_plane_diagnostics(self, s01):
        cfg = SolverConfig(tol=1e-13, max_iters=3000, seed=11)
        res = ground_state(s01, sharp_well(WELL, GRID), cfg)
        w = reflected_values(res.phi, -1.5) - res.phi.values
        assert w.shape == GRID.shape
        # The half-space sign of w_mu holds for the exact ground state and
        # is reported rather than asserted; at this resolution it does hold.
        assert moving_plane_min(res.phi, -1.5) > -1e-8


class TestAntisymmetricMinimum:
    def test_analytic_constants(self):
        # C1 is the massless kernel's prefactor: 1/pi at d = 1, alpha = 1.
        assert relativistic_prefactor(1, 1.0, 1.0) == pytest.approx(
            1.0 / math.pi, rel=1e-12)
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
        assert check["x_star"] == pytest.approx(-1.0 / math.sqrt(2.0),
                                                abs=1e-8)
        assert check["delta"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)
        assert check["sign_ok"] and check["lhs"] < 0.0
        assert check["rhs1"] is None and check["rhs2"] is None

    def test_massive_bounds(self, s11):
        check = antisymmetric_minimum_check(s11, lambda y: y * np.exp(-y * y),
                                            0.0)
        assert check["sign_ok"] and check["bounds_ok"]
        assert check["lhs"] <= check["rhs1"] and check["lhs"] <= check["rhs2"]
        assert check["constants"]["C2"] == pytest.approx(1.0, rel=1e-9)
        assert check["antisym_defect"] <= 1e-10

    # Measured errors 3.4e-15, 2.0e-13 and 1.3e-11, set by the Taylor
    # origin of pointwise_nonlocal.
    @pytest.mark.parametrize("alpha, bound", [(0.5, 2e-14), (1.0, 1e-12),
                                              (1.5, 1e-10)], ids=["0.5", "1.0", "1.5"])
    def test_massless_lhs_against_closed_form(self, alpha, bound):
        # (-Delta)^(alpha/2) x e^(-x^2) = 2^alpha Gamma((3+alpha)/2) /
        # Gamma(3/2) x 1F1((3+alpha)/2; 3/2; -x^2), by mpmath at x_star.
        check = antisymmetric_minimum_check(
            BernsteinSymbol.relativistic(0.0, alpha),
            lambda y: y * np.exp(-y * y), 0.0)
        with mpmath.workdps(30):
            a, x = mpmath.mpf(alpha), mpmath.mpf(check["x_star"])
            exact = float(2 ** a * mpmath.gamma((3 + a) / 2) / mpmath.gamma(1.5)
                          * x * mpmath.hyp1f1((3 + a) / 2, 1.5, -x * x))
        assert abs(check["lhs"] - exact) <= bound

    def test_non_decaying_input_rejected(self, s11):
        # sin is 0-antisymmetric with negative minima, but does not vanish at
        # infinity, as pointwise_nonlocal requires.
        with pytest.raises(ValueError, match="vanish at infinity"):
            antisymmetric_minimum_check(s11, np.sin, 0.0)

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


class TestEmbeddingTail:
    def test_constant_field_trivial(self, s11):
        u = Field(grid=GRID, values=np.ones(GRID.shape))
        assert embedding_tail_check(s11, [u])["passes"] == [True]

    @pytest.mark.parametrize("fields, s, match", [
        ([], None, "at least one field"),
        (None, 1.5, "order s must lie in \\(0,1\\), got 1.5"),
        (None, 0.0, "order s must lie in \\(0,1\\), got 0.0"),
        (None, 0.9, "order s must be <= alpha/2 = 0.5, got 0.9")])
    def test_inputs_rejected(self, s11, fields, s, match):
        u = Field(grid=GRID, values=np.ones(GRID.shape))
        with pytest.raises(ValueError, match=match):
            embedding_tail_check(s11, [u] if fields is None else fields, s=s)

    def test_gaussian_and_random_fields(self, s01, s11):
        fields = [random_band_limited(GRID, seed) for seed in range(20)]
        assert embedding_tail_check(s01, fields)["all_pass"]
        assert embedding_tail_check(s11, fields)["all_pass"]

    @pytest.mark.parametrize("kmax_frac", [-1.0, float("nan")])
    def test_negative_band_rejected(self, kmax_frac):
        # Below 0 no mode survives the cut, and the field would be divided
        # by a zero norm.
        with pytest.raises(ValueError, match="kmax_frac must be >= 0"):
            random_band_limited(GRID, 1, kmax_frac)

    def test_zero_band_keeps_the_constant_mode(self):
        u = random_band_limited(GRID, 1, 0.0)
        assert u.l2_norm() == pytest.approx(1.0, rel=1e-14)
        assert np.ptp(u.values) <= 1e-15

    def test_lower_constant_positive(self, s11):
        assert kernel_lower_constant(s11, 1, 0.5) > 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m, alpha", [(0.0, 1.0), (1.0, 1.5)])
    def test_lower_constant_is_the_minimum_at_1(self, m, alpha, d):
        # r^(d+2s) j(r) >= j(1) on (0, 1], to rounding, for s <= alpha/2.
        symbol = BernsteinSymbol.relativistic(m, alpha)
        r = np.union1d(np.geomspace(1e-6, 1.0, 2001),
                       np.linspace(1e-3, 1.0, 2001))
        for s in (0.25 * alpha, 0.5 * alpha):
            c_low = kernel_lower_constant(symbol, d, s)
            assert c_low == symbol.jump_kernel(d, 1.0)
            vals = r ** (d + 2.0 * s) * symbol.jump_kernel(d, r)
            assert np.all(vals >= c_low * (1.0 - 8.0 * np.finfo(float).eps))
        # Above alpha/2 the infimum is 0 and there is no constant.
        with pytest.raises(ValueError, match="order s must"):
            kernel_lower_constant(symbol, d, 0.75 * alpha)


class TestDeterminism:
    def test_reports_bit_identical(self, s01):
        rep1 = stability_sweep(s01, WELL, [0.4, 0.2], GRID, CFG)
        rep2 = stability_sweep(s01, WELL, [0.4, 0.2], GRID, CFG)
        assert rep1 == rep2


def _shift(phi, upper, lower):
    """<phi, (upper - lower) phi> for a unit grid function phi."""
    return phi.grid.cell_volume * float(
        np.sum(phi.values ** 2 * (upper.values - lower.values)))


class TestMinMaxEnclosure:
    """For potentials V and W on one discrete operator, the min-max
    principle gives <phi_W, (W - V) phi_W> <= lambda(W) - lambda(V) <=
    <phi_V, (W - V) phi_V>: lambda(W) <= R_W(phi_V) and lambda(V) <=
    R_V(phi_W).  Computed eigenpairs move each side by about residual^2 /
    gap, 1e-25 here, so the slack is rounding only."""

    CFG = SolverConfig(tol=1e-13, max_iters=60000, seed=3)
    SLACK = 1e-10

    def margins(self, symbol, grid, eps_list):
        """gap - lower and upper - gap for the mollified wells of eps_list
        against the sharp well a = 1, v = 4, all of them >= 0 if the
        enclosure holds."""
        target = sharp_well(WELL, grid)
        v = ground_state(symbol, target, self.CFG)
        margins = []
        for eps in eps_list:
            well = mollified_well(WellSpec(a=1.0, v=4.0, eps=eps), grid)
            w = ground_state(symbol, well, self.CFG)
            assert v.converged and w.converged
            gap = w.lam - v.lam
            margins += [gap - _shift(w.phi, well, target),
                        _shift(v.phi, well, target) - gap]
        return margins

    @pytest.mark.parametrize("m, alpha", [(0.0, 1.0), (1.0, 1.0), (0.0, 0.5),
                                          (0.0, 1.5)])
    def test_sweep_gaps_in_1d(self, m, alpha):
        symbol = BernsteinSymbol.relativistic(m, alpha)
        margins = self.margins(symbol, Grid(d=1, n=2048, L=32.0),
                               [0.4, 0.2, 0.1, 0.05])
        assert min(margins) >= -self.SLACK, margins

    def test_sweep_gaps_in_2d(self, s01):
        margins = self.margins(s01, Grid(d=2, n=128, L=16.0), [0.8, 0.4])
        assert min(margins) >= -self.SLACK, margins

    def test_anharmonic_below_the_dirichlet_form(self, s01):
        # phi_D vanishes outside B_1, so <phi_D, Phi(-Delta) phi_D> = lambda_D
        # and R_k(phi_D) = lambda_D + <phi_D, V_k phi_D> bounds lambda_k.
        grid = Grid(d=1, n=2048, L=32.0)
        ball = dirichlet_ground_state(s01, 1.0, grid, self.CFG)
        zero = PotentialField(grid=grid, values=np.zeros(grid.shape), meta={})
        for k in (1, 2, 4, 8, 16):
            pot = anharmonic(k, grid)
            lam = ground_state(s01, pot, self.CFG).lam
            assert lam <= ball.lam + _shift(ball.phi, pot, zero) + self.SLACK
