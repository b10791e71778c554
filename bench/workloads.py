"""The three benchmark workloads as fixed lists of operations.

A pass is one run through a workload's list.  Every operation but the
two-route seminorm is a CLI configuration; the seed becomes the CLI
``--seed`` (solver start field, embedding-check fields) and the seed of the
seminorm test fields, and changes nothing else.
"""

from dataclasses import dataclass

PHI01 = {"m": 0.0, "alpha": 1.0}
PHI11 = {"m": 1.0, "alpha": 1.0}
PHI1H = {"m": 1.0, "alpha": 0.5}
WELL = {"kind": "well", "a": 1.0, "v": 4.0}

# Acceptance-suite solver and grid (tests/test_acceptance.py CFG, GRID).
GRID_1D = {"d": 1, "n": 2048, "L": 32.0}
SOLVER_1D = {"tau": 0.01, "tol": 1e-13, "max_iters": 60000}
EPS_SCHEDULE = [0.4, 0.2, 0.1, 0.05]
K_LIST = [1, 2, 4, 8, 16]            # criterion 10's list

# Criterion-11 two-dimensional case.
GRID_2D = {"d": 2, "n": 256, "L": 20.0}
SOLVER_2D = {"tau": 0.02, "tol": 1e-13, "min_iters": 2500, "max_iters": 3000}

# 400 radii put the Bessel/sigma quadrature at about a third of a kernels
# pass next to the heat profile (about half); see README.md.
TABLE_RADII = {"start": 0.05, "stop": 20.0, "num": 400}
HEAT_RADII = {"start": 0.01, "stop": 12.0, "num": 1201}
HEAT_T = 0.1
SEMINORM_GRIDS = ((1, 256, 40.0), (2, 64, 20.0))

# kernel-table ignores n and L; parse_config still requires a valid grid.
_KERNEL_GRID = {"n": 16, "L": 1.0}


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a CLI config, or a seminorm pair when
    ``config`` is None (``seminorm`` = (symbol, d, n, L))."""

    name: str
    config: dict = None
    seminorm: tuple = None


def _label(symbol):
    return f"m{symbol['m']:g}a{symbol['alpha']:g}"


def _solve_1d():
    ops = []
    for sym in (PHI01, PHI11):
        tag = _label(sym)
        ops.append(Op(f"ground-state_{tag}", {
            "command": "ground-state", "symbol": sym, "grid": GRID_1D,
            "potential": WELL, "solver": SOLVER_1D}))
        ops.append(Op(f"dirichlet-eig_{tag}", {
            "command": "dirichlet-eig", "symbol": sym, "grid": GRID_1D,
            "solver": SOLVER_1D, "ball_radius": 1.0}))
        ops.append(Op(f"stability-sweep_{tag}", {
            "command": "stability-sweep", "symbol": sym, "grid": GRID_1D,
            "potential": WELL, "solver": SOLVER_1D,
            "eps_schedule": EPS_SCHEDULE}))
    ops.append(Op("anharmonic-limit_m0a1", {
        "command": "anharmonic-limit", "symbol": PHI01, "grid": GRID_1D,
        "solver": SOLVER_1D, "k_list": K_LIST}))
    ops.append(Op("embedding-check_m0a1", {
        "command": "embedding-check", "symbol": PHI01, "grid": GRID_1D,
        "solver": SOLVER_1D, "num_fields": 20}))
    return ops


def _solve_2d():
    return [Op("monotonicity_m0a1", {
        "command": "monotonicity", "symbol": PHI01, "grid": GRID_2D,
        "potential": WELL, "solver": SOLVER_2D, "rotations": 1})]


def _kernels():
    ops = []
    for sym in (PHI11, PHI1H):
        for d in (1, 2, 3):
            for kid in ("j", "j_prime", "sigma"):
                ops.append(Op(f"kernel-table_{kid}_d{d}_{_label(sym)}", {
                    "command": "kernel-table", "symbol": sym,
                    "grid": dict(_KERNEL_GRID, d=d),
                    "kernel": {"id": kid, "radii": TABLE_RADII}}))
    ops.append(Op("kernel-table_heat_d1_m0a1", {
        "command": "kernel-table", "symbol": PHI01,
        "grid": dict(_KERNEL_GRID, d=1),
        "kernel": {"id": "heat", "t": HEAT_T, "radii": HEAT_RADII}}))
    # CLI default radii; both tables raise QuadratureError (a known defect,
    # counted in fail_ratio until it is fixed).
    for d in (1, 2):
        ops.append(Op(f"kernel-table_resolvent_d{d}_m1a1", {
            "command": "kernel-table", "symbol": PHI11,
            "grid": dict(_KERNEL_GRID, d=d), "kernel": {"id": "resolvent"}}))
    ops.append(Op("antisym-check_m1a1", {
        "command": "antisym-check", "symbol": PHI11,
        "grid": dict(_KERNEL_GRID, d=1)}))
    for sym in (PHI01, PHI11):
        for d, n, L in SEMINORM_GRIDS:
            ops.append(Op(f"seminorm_d{d}_{_label(sym)}",
                          seminorm=(sym, d, n, L)))
    return ops


WORKLOADS = {"solve-1d": _solve_1d, "solve-2d": _solve_2d,
             "kernels": _kernels}


def operations(workload):
    return WORKLOADS[workload]()
