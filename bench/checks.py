"""Output checks against references that do not come from the program.

Eigenpairs are re-read from the documented little-endian float64 ``phi``
format and re-applied with this file's own symbol and scipy.fft, so the
residual ||H phi - lambda phi|| / |lambda| does not trust the solver's
stagnation-based ``converged`` flag.  Kernel tables are compared with
mpmath evaluations of the closed forms and with exact identities.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
import numpy as np
from scipy import fft as sfft

from workloads import (HEAT_RADII, HEAT_T, PHI01, TABLE_RADII, WELL)

# Kwasnicki, "Eigenvalues of the fractional Laplace operator in the
# interval", J. Funct. Anal. 262 (2012): lambda_1 of (-Delta)^(1/2) on (-1,1).
KWASNICKI_LAMBDA1 = 1.1577738836977
# At h = 1/64 the discrete ball value converges at first order and sits
# about 1.2% low (the tau-free value at n = 2048 is 1.14354); the tau = 0.01
# splitting bias adds about 1e-3.  3% is 2.5 times that budget.
DIRICHLET_REL_TOL = 0.03
# Chen-Song: lambda_1 of (-Delta)^(alpha/2) on a ball is at most
# lambda_1(-Delta)^(alpha/2); for the unit disk and alpha = 1 that is the
# first zero of J_0.
J01 = float(mpmath.besseljzero(0, 1))

# 20 digits leave four to spare after the sigma = j_0 - j_m cancellation at
# the smallest radius (sigma / j_0 ~ 0.05 there).
ORACLE_DPS = 20
SYMMETRY_TOL = 1e-10          # criterion 11, quarter-turn defect
MONOTONE_TOL = 1e-6           # criterion 11, times chi(0)
SEMINORM_TOL = 1e-3           # criterion 4
RAYLEIGH_TOL = 1e-9           # reported lambda vs Rayleigh quotient of phi
# Table entries against mpmath: j and j' come from a trapezoid Bessel
# engine with rel_tol 1e-10, sigma from a tanh-sinh rule accepting
# 10 * rel_tol per level; the heat profile accepts 1e-8 relative.
TABLE_TOL = {"j": 1e-9, "j_prime": 1e-9, "sigma": 1e-8, "heat": 1e-7,
             "resolvent": 1e-6}


@dataclass
class Outcome:
    """Failed checks and measured errors of one operation."""

    failures: list = field(default_factory=list)
    residual: float = None
    oracle_err: float = None
    gap_ratio: float = None

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)


def symbol_values(sym, z):
    """Phi_{m,alpha}(z), written without the cancellation at small z."""
    m, alpha = sym["m"], sym["alpha"]
    if m == 0.0:
        return z ** (alpha / 2.0)
    mu = m ** (2.0 / alpha)
    return m * np.expm1(0.5 * alpha * np.log1p(z / mu))


def _freq_sq(d, n, L):
    full = 2.0 * math.pi * sfft.fftfreq(n, d=L / n)
    half = 2.0 * math.pi * sfft.rfftfreq(n, d=L / n)
    mesh = np.meshgrid(*([full] * (d - 1) + [half]), indexing="ij")
    return sum(k * k for k in mesh)


def _radius(d, n, L):
    axis = -L / 2.0 + (L / n) * np.arange(n)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.sqrt(sum(x * x for x in mesh))


def read_phi(out):
    """Read <out>/phi.bin through its JSON header; returns (values, L)."""
    header = json.loads((out / "phi.json").read_text())
    if header.get("dtype") != "<f8" or header.get("order") != "C":
        raise ValueError(f"unexpected field header {header}")
    d, n = int(header["d"]), int(header["n"])
    raw = (out / "phi.bin").read_bytes()
    if len(raw) != 8 * n ** d:
        raise ValueError(f"phi.bin has {len(raw)} bytes, expected {8 * n ** d}")
    return np.frombuffer(raw, dtype="<f8").reshape((n,) * d), float(header["L"])


def _eigenpair(out, sym, oc, well=None, ball=None):
    """Residual and Rayleigh consistency of the written eigenpair."""
    phi, L = read_phi(out)
    lam = json.loads((out / "result.json").read_text())["lambda"]
    d, n = phi.ndim, phi.shape[0]
    r = _radius(d, n, L)
    V = np.where(r <= well["a"], -well["v"], 0.0) if well else 0.0
    kinetic = sfft.irfftn(sfft.rfftn(phi) * symbol_values(sym, _freq_sq(d, n, L)),
                          s=phi.shape)
    h_phi = kinetic + V * phi
    res = h_phi - lam * phi
    if ball is not None:
        res = np.where(r <= ball, res, 0.0)
        oc.require(not np.any(phi[r > ball]), "phi leaves the Dirichlet ball")
    norm_sq = float(np.sum(phi * phi))
    oc.residual = math.sqrt(float(np.sum(res * res)) / norm_sq) / abs(lam)
    rq = float(np.sum(phi * h_phi)) / norm_sq
    oc.require(abs(rq - lam) <= RAYLEIGH_TOL * abs(lam),
               f"lambda {lam!r} differs from the Rayleigh quotient {rq!r}")
    return lam, phi, r, L


def _dirichlet_b1(sym, lam, oc):
    """1D unit-ball Dirichlet value against Kwasnicki; Phi_{1,1} is
    bracketed through sqrt(z) - 1 <= Phi_{1,1}(z) <= sqrt(z)."""
    lo, hi = KWASNICKI_LAMBDA1 * (1 - DIRICHLET_REL_TOL), \
        KWASNICKI_LAMBDA1 * (1 + DIRICHLET_REL_TOL)
    if sym == PHI01:
        err = abs(lam - KWASNICKI_LAMBDA1) / KWASNICKI_LAMBDA1
        oc.oracle_err = max(oc.oracle_err or 0.0, err)
        oc.require(err <= DIRICHLET_REL_TOL,
                   f"lambda_D(B_1) = {lam} is {err:.2%} from Kwasnicki")
    else:
        oc.require(lo - 1.0 <= lam <= hi,
                   f"lambda_D(B_1) = {lam} outside [{lo - 1.0}, {hi}]")


def _well_bounds(lam, oc, lam_d_upper):
    # -v < lambda (V >= -v, Phi >= 0) and lambda <= lambda_D(B_a) - v
    # (min-max with the ball's Dirichlet eigenfunction as probe).
    v = WELL["v"]
    oc.require(-v < lam <= lam_d_upper - v,
               f"well ground state {lam} outside (-v, lambda_D - v]")


def _check_ground_state(op, out, oc):
    sym = op.config["symbol"]
    lam = _eigenpair(out, sym, oc, well=WELL)[0]
    _well_bounds(lam, oc, KWASNICKI_LAMBDA1 * (1 + DIRICHLET_REL_TOL))


def _check_dirichlet(op, out, oc):
    sym = op.config["symbol"]
    lam = _eigenpair(out, sym, oc, ball=op.config["ball_radius"])[0]
    _dirichlet_b1(sym, lam, oc)


def _check_sweep(op, out, oc):
    rep = json.loads((out / "report.json").read_text())
    target = rep["lambda_target"]
    _well_bounds(target, oc, KWASNICKI_LAMBDA1 * (1 + DIRICHLET_REL_TOL))
    _dirichlet_b1(op.config["symbol"], rep["lambda_dirichlet"], oc)
    oc.require(len(rep["lambda"]) == len(op.config["eps_schedule"]),
               "sweep reports the wrong number of eigenvalues")
    for eps, lam in zip(rep["params"], rep["lambda"]):
        # The mollified well lies below the sharp one, so its eigenvalue
        # cannot be higher.
        oc.require(-WELL["v"] < lam <= target + 1e-9 * abs(target),
                   f"eps={eps}: lambda {lam} outside (-v, lambda_target]")


def _check_anharmonic(op, out, oc):
    rep = json.loads((out / "report.json").read_text())
    _dirichlet_b1(op.config["symbol"], rep["lambda_dirichlet"], oc)
    # |x|^2k <= 1 on B_1: the Dirichlet eigenfunction as probe bounds
    # lambda_k by lambda_D(B_1) + 1.
    upper = KWASNICKI_LAMBDA1 * (1 + DIRICHLET_REL_TOL) + 1.0
    for k, lam in zip(rep["params"], rep["lambda"]):
        oc.require(0.0 < lam <= upper, f"k={k}: lambda {lam} outside (0, {upper}]")
    oc.require(list(rep["params"]) == list(op.config["k_list"]),
               "anharmonic report lists other k")
    # Criterion 10's verdict is reported, not checked.
    oc.gap_ratio = rep["gaps"][-1] / rep["lambda_dirichlet"]


def _check_embedding(op, out, oc):
    rep = json.loads((out / "report.json").read_text())
    flags = rep["passes"]
    oc.require(len(flags) == op.config["num_fields"] and all(flags),
               f"embedding bound fails on {flags.count(False)} fields")


def _check_monotonicity(op, out, oc):
    lam, phi, r, L = _eigenpair(out, op.config["symbol"], oc, well=WELL)
    _well_bounds(lam, oc, J01)
    n = phi.shape[0]
    h = L / n
    # Quarter turn (x, y) -> (-y, x) about the grid point x = 0 (index n/2).
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    quarter = phi[(n - j) % n, i]
    defect = h * math.sqrt(float(np.sum((quarter - phi) ** 2)))
    oc.require(defect <= SYMMETRY_TOL, f"quarter-turn defect {defect:.3e}")
    # Shell averages over |x| bins of width h.
    idx = np.floor(r.ravel() / h + 0.5).astype(int)
    sums = np.bincount(idx, weights=phi.ravel())
    counts = np.bincount(idx)
    profile = sums[counts > 0] / counts[counts > 0]
    rise = float(np.max(np.maximum(np.diff(profile), 0.0)))
    oc.require(rise <= MONOTONE_TOL * profile[0],
               f"radial profile rises by {rise:.3e}")


class KernelOracles:
    """mpmath values of the closed-form kernels on the benchmark radii."""

    def __init__(self):
        self.table_radii = np.geomspace(TABLE_RADII["start"], TABLE_RADII["stop"],
                                        TABLE_RADII["num"])
        self.heat_radii = np.geomspace(HEAT_RADII["start"], HEAT_RADII["stop"],
                                       HEAT_RADII["num"])
        self._tables = {}
        self._bessel = {}

    def table(self, kid, d, sym):
        key = (kid, d, sym["m"], sym["alpha"])
        if key not in self._tables:
            self._tables[key] = self._compute(kid, d, sym)
        return self._tables[key]

    def _besselk(self, order, c):
        # Shared between tables (j and sigma use the same order, and j' at d
        # uses the order of j at d + 2); integer orders are slow in mpmath.
        key = (order, c)
        if key not in self._bessel:
            self._bessel[key] = [mpmath.besselk(order, c * mpmath.mpf(r))
                                 for r in self.table_radii]
        return self._bessel[key]

    def _compute(self, kid, d, sym):
        if kid == "heat":
            t = HEAT_T
            return self.heat_radii, t / (math.pi * (t * t + self.heat_radii ** 2))
        if kid == "resolvent":
            # Phi_{1,1}: 1 + Phi(|xi|^2) = sqrt(1 + |xi|^2), so G_1 is
            # K_0(r)/pi in d = 1 and e^-r / (2 pi r) in d = 2.
            radii = np.geomspace(0.1, 10.0, 50)
            with mpmath.workdps(ORACLE_DPS):
                if d == 1:
                    vals = [mpmath.besselk(0, r) / mpmath.pi for r in radii]
                else:
                    vals = [mpmath.exp(-r) / (2 * mpmath.pi * r) for r in radii]
            return radii, np.array([float(v) for v in vals])
        with mpmath.workdps(ORACLE_DPS):
            m, alpha = mpmath.mpf(sym["m"]), mpmath.mpf(sym["alpha"])
            xi = (d + alpha) / 2
            c = m ** (1 / alpha)
            pref = (alpha * 2 ** ((alpha - d) / 2) * m ** (xi / alpha)
                    / (mpmath.pi ** (mpmath.mpf(d) / 2) * mpmath.gamma(1 - alpha / 2)))
            c0 = (2 ** alpha * mpmath.gamma((d + alpha) / 2)
                  / (mpmath.pi ** (mpmath.mpf(d) / 2) * abs(mpmath.gamma(-alpha / 2))))
            # d/dr [r^-xi K_xi(c r)] = -c r^-xi K_(xi+1)(c r)
            order = xi + 1 if kid == "j_prime" else xi
            vals = []
            for r, k in zip(self.table_radii, self._besselk(order, c)):
                r = mpmath.mpf(r)
                if kid == "j_prime":
                    vals.append(-pref * c * r ** -xi * k)
                elif kid == "j":
                    vals.append(pref * r ** -xi * k)
                else:
                    vals.append(c0 * r ** -(d + alpha) - pref * r ** -xi * k)
        return self.table_radii, np.array([float(v) for v in vals])


def _check_table(op, out, oc, oracles):
    kernel = op.config["kernel"]
    kid, d, sym = kernel["id"], op.config["grid"]["d"], op.config["symbol"]
    rows = (out / "table.csv").read_text().splitlines()
    oc.require(rows[0] == "r,value,error_estimate", f"table header {rows[0]!r}")
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    radii, ref = oracles.table(kid, d, sym)
    if data.shape != (len(radii), 3) or not np.array_equal(data[:, 0], radii):
        oc.failures.append("table radii differ from the configured radii")
        return
    err = float(np.max(np.abs(data[:, 1] - ref) / np.abs(ref)))
    oc.oracle_err = err
    oc.require(err <= TABLE_TOL[kid], f"{kid} table relative error {err:.3e}")


def _check_antisym(op, out, oc):
    rep = json.loads((out / "report.json").read_text())
    c = rep["constants"]
    oc.require(rep["sign_ok"] and rep["bounds_ok"] and rep["lhs"] < 0.0
               and rep["lhs"] <= rep["rhs1"] and rep["lhs"] <= rep["rhs2"],
               f"antisymmetric-minimum estimate fails: {rep}")
    # Closed forms at d = 1, alpha = 1: C1 = 1/pi, C2 = int_0^inf (1+z)^-2 = 1.
    oc.require(abs(c["C1"] * math.pi - 1.0) <= 1e-12, f"C1 = {c['C1']}")
    oc.require(abs(c["C2"] - 1.0) <= 1e-9, f"C2 = {c['C2']}")


_CLI_CHECKS = {"ground-state": _check_ground_state,
               "dirichlet-eig": _check_dirichlet,
               "stability-sweep": _check_sweep,
               "anharmonic-limit": _check_anharmonic,
               "embedding-check": _check_embedding,
               "monotonicity": _check_monotonicity,
               "antisym-check": _check_antisym}


def check_cli(op, out, oracles):
    """Check the artifacts a CLI operation wrote to ``out``."""
    oc = Outcome()
    out = Path(out)
    if op.config["command"] == "kernel-table":
        _check_table(op, out, oc, oracles)
    else:
        _CLI_CHECKS[op.config["command"]](op, out, oc)
    return oc


def check_seminorm(direct, fourier):
    oc = Outcome()
    dev = abs(fourier ** 2 - direct ** 2) / (1.0 + fourier ** 2)
    oc.require(dev <= SEMINORM_TOL, f"seminorm routes differ by {dev:.3e}")
    return oc
