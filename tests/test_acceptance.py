"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (visible with pytest -s or in failure reports).

Criterion 10 is implemented exactly as stated and is expected to fail for
physics reasons documented in the decisions ledger (DECISIONS.md): the
anharmonic eigenvalue dips between k=1 and k=2 (the x^4 well is softer
than x^2 inside the unit ball, for any kinetic symbol), and the
k -> infinity approach to the Dirichlet value decays like ~1/k (gap
ratios 1.69 and 1.95 per doubling from k = 16 to 64), which at k = 16
leaves a gap of about 7 percent.  Both facts were cross-validated with a
dense-matrix eigensolver; no grid, time step, or mass choice repairs the
stated clauses.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from nonlocal_spectra.bernstein_kernels import (BernsteinSymbol,
                                                heat_kernel,
                                                j_massive, j_massless,
                                                massless_constant,
                                                second_moment_decay, sigma)
from nonlocal_spectra.eigensolver import SolverConfig, ground_state
from nonlocal_spectra.experiments import (antisymmetric_minimum_check,
                                          anharmonic_to_dirichlet,
                                          operator_image_convergence,
                                          monotonicity_check,
                                          random_band_limited,
                                          stability_sweep, symmetry_check)
from nonlocal_spectra.potentials import WellSpec, mollified_well, sharp_well
from nonlocal_spectra.special_functions import bessel_k, bessel_k_grid
from nonlocal_spectra.spectral_core import (Grid, field_from_function,
                                            gagliardo_seminorm,
                                            seminorm_direct, seminorm_fourier)

S01 = BernsteinSymbol.relativistic(0.0, 1.0)
S11 = BernsteinSymbol.relativistic(1.0, 1.0)

GRID = Grid(d=1, n=2048, L=32.0)
CFG = SolverConfig(tol=1e-13, max_iters=60000, seed=11)
CFG_LONG = SolverConfig(tol=1e-13, max_iters=4000, seed=11)
WELL = WellSpec(a=1.0, v=4.0)
EPS_SCHEDULE = [0.4, 0.2, 0.1, 0.05]


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def sweep_runs():
    return stability_sweep(S01, WELL, EPS_SCHEDULE, GRID, CFG)


@pytest.fixture(scope="module")
def dirichlet_b1():
    from nonlocal_spectra.eigensolver import dirichlet_ground_state
    return dirichlet_ground_state(S01, 1.0, GRID)


def test_criterion_01_kernel_decomposition():
    worst = 0.0
    radii = np.geomspace(0.05, 20.0, 25)
    for d in (1, 2, 3):
        for alpha in (0.5, 1.0, 1.5):
            for m in (0.5, 1.0, 2.0):
                j0 = j_massless(d, alpha, radii)
                jm = j_massive(d, alpha, m, radii)
                sg = sigma(d, alpha, m, radii)
                worst = max(worst, float(np.max(np.abs(j0 - jm - sg) / j0)))
    ok = worst <= 1e-8
    assert report(1, ok, f"decomposition j0 = jm + sigma, worst relative "
                         f"error {worst:.3e} over the (d,alpha,m) matrix")


def test_criterion_02_sigma_total_mass():
    devs = []
    for m in (0.5, 2.0):
        val, _ = integrate.quad(lambda r: sigma(1, 1.0, m, r), 0.0, np.inf,
                                limit=300)
        devs.append(abs(2.0 * val - m) / m)
    ok = max(devs) <= 1e-4
    assert report(2, ok, f"sigma total mass equals m, relative deviations "
                         f"{devs[0]:.2e} (m=0.5), {devs[1]:.2e} (m=2)")


def test_criterion_03_bessel_identities():
    zs = np.geomspace(0.1, 10.0, 25)
    worst_rec = 0.0
    for xi in (0.5, 1.0, 1.5, 2.5):
        up = bessel_k_grid(xi + 1.0, zs)
        down = bessel_k_grid(abs(xi - 1.0), zs)
        mid = bessel_k_grid(xi, zs)
        worst_rec = max(worst_rec, float(
            np.max(np.abs((down + 2.0 * xi / zs * mid) / up - 1.0))))
    worst_der = 0.0
    h = 1e-5
    for xi in (0.5, 1.0, 1.5, 2.5):
        for z in (0.5, 1.0, 3.0, 7.0):
            fd = (bessel_k(xi, z + h) - bessel_k(xi, z - h)) / (2.0 * h)
            ident = -(bessel_k(xi + 1.0, z) + bessel_k(abs(xi - 1.0), z)) / 2.0
            worst_der = max(worst_der, abs(fd / ident - 1.0))
    ok = worst_rec <= 1e-8 and worst_der <= 1e-6
    assert report(3, ok, f"recurrence worst {worst_rec:.2e} (tol 1e-8), "
                         f"derivative identity worst {worst_der:.2e} "
                         f"(tol 1e-6)")


def test_criterion_04_plancherel_equality():
    grid = Grid(d=1, n=128, L=40.0)
    fields = [field_from_function(grid, lambda x: np.exp(-x * x))]
    fields += [random_band_limited(grid, seed) for seed in range(20)]
    worst = 0.0
    for u in fields:
        sf = seminorm_fourier(S01, u)
        sd = seminorm_direct(S01, u)
        worst = max(worst, abs(sf ** 2 - sd ** 2) / (1.0 + sf ** 2))
    ok = worst <= 1e-3
    assert report(4, ok, f"Fourier vs direct seminorm, worst normalized "
                         f"deviation {worst:.2e} over Gaussian + 20 random "
                         f"band-limited fields (tol 1e-3)")


def test_criterion_05_massless_seminorm_ratio():
    grid = Grid(d=1, n=128, L=40.0)
    u = field_from_function(grid, lambda x: np.exp(-x * x))
    ratio = seminorm_direct(S01, u) / gagliardo_seminorm(0.5, u)
    expected = math.sqrt(massless_constant(1, 1.0) / 2.0)  # c(1,1) = 1/pi
    dev = abs(ratio / expected - 1.0)
    ok = dev <= 1e-5
    assert report(5, ok, f"[u]_Phi / [[u]]_(1/2) = sqrt(c/2): relative "
                         f"deviation {dev:.2e} (tol 1e-5)")


def test_criterion_06_heat_kernel():
    pts = [(0.5, 0.0), (0.5, 0.7), (1.0, 0.0), (1.0, 1.0), (1.0, 2.5),
           (2.0, 0.3), (2.0, 5.0), (0.2, 0.1), (3.0, 1.5), (1.5, 4.0)]
    worst = max(abs(heat_kernel(S01, 1, t, x)
                    - t / (math.pi * (t * t + x * x))) for t, x in pts)
    val, _ = integrate.quad(lambda x: heat_kernel(S11, 1, 0.5, x), 0.0, 60.0,
                            limit=200)
    mass_dev = abs(2.0 * val - 1.0)
    ok = worst <= 1e-6 and mass_dev <= 1e-4
    assert report(6, ok, f"Cauchy closed form worst abs error {worst:.2e} "
                         f"at 10 points (tol 1e-6); massive normalization "
                         f"deviation {mass_dev:.2e} (tol 1e-4)")


def test_criterion_07_existence_and_minmax_margin(dirichlet_b1):
    lam_a = dirichlet_b1.lam
    v = 2.0 * lam_a
    res = ground_state(S01, sharp_well(WellSpec(a=1.0, v=v), GRID), CFG)
    margin = lam_a - (res.lam + v)
    ok = res.lam < 0.0 and margin >= 1e-6
    assert report(7, ok, f"well depth v = 2 lambda_a = {v:.6f}: ground state "
                         f"lambda = {res.lam:.6f} < 0; margin "
                         f"lambda_a - (lambda + v) = {margin:.6f} >= 1e-6")


def test_criterion_08_spectral_stability(sweep_runs):
    rep = sweep_runs
    gaps = rep.gaps
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    l2_decreasing = all(b < a for a, b in zip(rep.l2_gaps, rep.l2_gaps[1:]))
    below_floor = gaps[-1] < 10.0 * rep.discretization_floor
    ok = decreasing and l2_decreasing and below_floor
    assert report(8, ok, f"lambda gaps {['%.3e' % g for g in gaps]} strictly "
                         f"decreasing={decreasing}; final {gaps[-1]:.3e} < "
                         f"10 x floor {10 * rep.discretization_floor:.3e}; "
                         f"aligned L2 gaps decreasing={l2_decreasing}")


def test_criterion_09_operator_image_convergence(sweep_runs):
    rep = operator_image_convergence(S01, WELL, sweep_runs)
    ok = rep.monotone and rep.bound_ok
    assert report(9, ok, f"image gaps {['%.3e' % g for g in rep.image_gaps]} "
                         f"decreasing={rep.monotone}; identity triangle bound "
                         f"holds={rep.bound_ok} (1e-8 slack + residuals)")


def test_criterion_10_anharmonic_to_dirichlet():
    rep = anharmonic_to_dirichlet(S01, [1, 2, 4, 8, 16], GRID, CFG)
    gaps = rep.gaps
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] < 0.05 * rep.lam_dirichlet
    ok = decreasing and final_ok
    assert report(
        10, ok,
        f"gaps {['%.3e' % g for g in gaps]} decreasing={decreasing}; final "
        f"{gaps[-1]:.3e} vs 5% of lambda_1 = {0.05 * rep.lam_dirichlet:.3e} "
        f"-> {final_ok} (known-unattainable at k <= 16; see decisions ledger)")


def test_criterion_11_symmetry_and_monotonicity():
    sharp_res = ground_state(S01, sharp_well(WELL, GRID), CFG_LONG)
    parity = symmetry_check(sharp_res)["exact"]

    g2 = Grid(d=2, n=256, L=20.0)
    cfg2 = SolverConfig(tol=1e-13, max_iters=3000, seed=11)
    res2 = ground_state(S01, sharp_well(WellSpec(a=1.0, v=4.0), g2), cfg2)
    quarter = symmetry_check(res2)["exact"]

    rep_sharp = monotonicity_check(sharp_res)
    moll_res = ground_state(S01, mollified_well(
        WellSpec(a=1.0, v=4.0, eps=0.2), GRID), CFG_LONG)
    rep_moll = monotonicity_check(moll_res)

    sym_ok = parity <= 1e-10 and quarter <= 1e-10
    mono_ok = (rep_sharp.max_violation <= 1e-6 * rep_sharp.profile[0]
               and rep_moll.max_violation <= 1e-6 * rep_moll.profile[0])
    region_ok = rep_moll.region_flags["tail [a+eps,inf)"]
    ok = sym_ok and mono_ok and region_ok
    assert report(11, ok, f"parity defect {parity:.2e}, quarter-turn defect "
                          f"{quarter:.2e} (tol 1e-10); monotonicity "
                          f"violations sharp {rep_sharp.max_violation:.2e} / "
                          f"mollified {rep_moll.max_violation:.2e} (tol "
                          f"1e-6 chi(0)); approximant tail region "
                          f"pass={region_ok}")


def test_criterion_12_antisymmetric_minimum():
    w = lambda y: y * np.exp(-y * y)
    massless = antisymmetric_minimum_check(S01, w, 0.0)
    massive = antisymmetric_minimum_check(S11, w, 0.0)
    consts_ok = (massive.constants["C2"] == pytest.approx(1.0, rel=1e-9)
                 and massive.constants["C1"] == pytest.approx(
                     1.0 / math.pi, rel=1e-12))
    ok = (massless.sign_ok and massive.sign_ok and massive.bounds_ok
          and consts_ok)
    assert report(12, ok, f"lhs(m=0) = {massless.lhs:.5f} < 0, lhs(m=1) = "
                          f"{massive.lhs:.5f} < 0; lhs <= rhs1 = "
                          f"{massive.rhs1:.5f}, lhs <= rhs2 = "
                          f"{massive.rhs2:.5f}; C2(1,1) = 1, C1(1,1) = 1/pi")


def test_criterion_13_second_moment_decay():
    M0 = second_moment_decay(S01, 1, [5.0, 10.0, 50.0])
    closed_dev = abs(M0[1] / (2.0 / (10.0 * math.pi)) - 1.0)
    Mm = second_moment_decay(S11, 1, [5.0, 10.0, 20.0, 40.0])
    decreasing = all(b < a for a, b in zip(Mm, Mm[1:]))
    tail_ok = Mm[-1] < 0.1 * Mm[0]
    ok = closed_dev <= 1e-6 and decreasing and tail_ok
    assert report(13, ok, f"M(10) matches 2/(pi R) to {closed_dev:.2e} "
                          f"(tol 1e-6); massive M decreasing={decreasing} "
                          f"with last/first = {Mm[-1] / Mm[0]:.3f} < 0.1")


def test_criterion_14_determinism(tmp_path):
    import json
    from nonlocal_spectra.cli import main
    payload = {"command": "stability-sweep",
               "symbol": {"m": 0.0, "alpha": 1.0},
               "grid": {"d": 1, "n": 256, "L": 32.0},
               "potential": {"kind": "well", "a": 1.0, "v": 4.0},
               "solver": {"tol": 1e-10, "max_iters": 4000, "seed": 11},
               "eps_schedule": [0.5, 0.25]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    for sub in ("a", "b"):
        assert main(["--config", str(cfg_path), "--output",
                     str(tmp_path / sub)]) == 0
    same_csv = ((tmp_path / "a" / "report.csv").read_bytes()
                == (tmp_path / "b" / "report.csv").read_bytes())
    same_manifest = ((tmp_path / "a" / "manifest.json").read_bytes()
                     == (tmp_path / "b" / "manifest.json").read_bytes())
    ok = same_csv and same_manifest
    assert report(14, ok, f"repeated dispatch byte-identical: csv={same_csv}, "
                          f"manifest={same_manifest}")
