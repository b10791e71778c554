"""Command-line front end: parse a JSON run configuration, dispatch one
experiment, and write machine-readable artifacts plus a manifest.

Unknown configuration keys are rejected outright: a silent typo in an
epsilon schedule would invalidate an experiment, so strictness wins over
convenience.  CSV cells use shortest round-trip float formatting, making
repeated runs of the same configuration byte-identical.
"""

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import io_utils
from .bernstein_kernels import KERNEL_IDS, BernsteinSymbol, build_kernel_table
from .eigensolver import SolverConfig, dirichlet_ground_state, ground_state
from .experiments import (anharmonic_to_dirichlet, antisymmetric_minimum_check,
                          embedding_tail_check, monotonicity_check,
                          random_band_limited, stability_sweep, symmetry_check,
                          validate_eps_schedule)
from .potentials import WellSpec, anharmonic, mollified_well, sharp_well
from .spectral_core import Grid


class ConfigError(ValueError):
    pass


def _require_keys(section, data, allowed, required=()):
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ConfigError(f"missing key(s) in {section}: {sorted(missing)}")


@dataclass
class RunConfig:
    command: str
    symbol: BernsteinSymbol
    grid: Grid
    solver: SolverConfig
    extras: dict
    output_dir: str
    raw: dict


# tau and min_iters belonged to the deleted imaginary-time solver; they are
# accepted and ignored while the benchmark workload configs still pass them.
_SOLVER_KEYS = ("tau", "tol", "max_iters", "seed", "min_iters")
# The top-level keys every command reads (solver too: its seed goes into
# the manifest), and the further keys of each command with the defaults
# parse_config fills in.  A listed potential is required.
_SHARED_KEYS = ("command", "symbol", "grid", "solver", "output_dir")
_COMMAND_KEYS = {
    "kernel-table": {"kernel": {}},
    "ground-state": {"potential": None},
    "dirichlet-eig": {"ball_radius": 1.0},
    "stability-sweep": {"potential": None,
                        "eps_schedule": [0.4, 0.2, 0.1, 0.05]},
    "anharmonic-limit": {"k_list": [1, 2, 4, 8, 16]},
    "monotonicity": {"potential": None, "rotations": 0},
    "antisym-check": {"mu": 0.0},
    "embedding-check": {"num_fields": 20, "kmax_frac": 0.25, "s": None},
}
COMMANDS = tuple(_COMMAND_KEYS)


def _parse_potential(command, pot_raw, grid):
    """The well or anharmonic potential with its defaults filled in."""
    if not pot_raw:
        raise ConfigError(f"command {command!r} requires a potential")
    kind = pot_raw.get("kind")
    keys = {"well": ("a", "v", "eps"), "anharmonic": ("k",)}.get(kind)
    if keys is None:
        raise ConfigError(f"unknown potential kind {kind!r}")
    _require_keys("potential", pot_raw, ("kind",) + keys)
    if command == "stability-sweep" and (kind != "well" or "eps" in pot_raw):
        raise ConfigError("stability-sweep requires a well potential without "
                          "eps; its eps values come from eps_schedule")
    if kind == "well":
        a = float(pot_raw.get("a", 1.0))
        v = float(pot_raw.get("v", 4.0))
        eps = float(pot_raw.get("eps", 0.0))
        if not (a > 0 and v > 0 and eps >= 0):
            raise ConfigError("well invariant violated: a > 0, v > 0, "
                              "eps >= 0")
        if not a + eps < grid.L / 2.0:
            raise ConfigError(f"box too small: a + eps = {a + eps} must "
                              f"be < L/2 = {grid.L / 2.0}")
        return {"kind": kind, "a": a, "v": v, "eps": eps}
    k = int(pot_raw.get("k", 1))
    if k < 1:
        raise ConfigError("anharmonic invariant violated: k >= 1")
    return {"kind": kind, "k": k}


def parse_config(path):
    """Load, validate and resolve a run configuration file, defaults
    included; a key the command does not read is an error."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: "
                          f"{exc.msg}") from None

    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of "
                          f"{COMMANDS}")
    _require_keys("top level", raw,
                  _SHARED_KEYS + tuple(_COMMAND_KEYS[command]),
                  required=("command", "grid"))

    sym_raw = dict(raw.get("symbol", {}))
    _require_keys("symbol", sym_raw, ("m", "alpha"))
    m = float(sym_raw.get("m", 0.0))
    alpha = float(sym_raw.get("alpha", 1.0))
    if not 0.0 < alpha < 2.0:
        raise ConfigError(f"symbol invariant violated: alpha in (0,2), "
                          f"got {alpha}")
    if m < 0.0:
        raise ConfigError(f"symbol invariant violated: m >= 0, got {m}")
    symbol = BernsteinSymbol.relativistic(m, alpha)

    grid_raw = dict(raw["grid"])
    _require_keys("grid", grid_raw, ("d", "n", "L"), required=("d", "n", "L"))
    try:
        grid = Grid(d=int(grid_raw["d"]), n=int(grid_raw["n"]),
                    L=float(grid_raw["L"]))
    except ValueError as exc:
        raise ConfigError(f"grid invariant violated: {exc}") from None

    sol_raw = dict(raw.get("solver", {}))
    _require_keys("solver", sol_raw, _SOLVER_KEYS)
    casts = {"tol": float, "max_iters": int, "seed": int}
    try:
        solver = SolverConfig(**{key: cast(sol_raw[key])
                                 for key, cast in casts.items() if key in sol_raw})
    except ValueError as exc:
        raise ConfigError(f"solver invariant violated: {exc}") from None

    extras = {key: raw.get(key, default)
              for key, default in _COMMAND_KEYS[command].items()}
    if "potential" in extras:
        extras["potential"] = _parse_potential(
            command, dict(extras["potential"] or {}), grid)
    if "kernel" in extras:
        kernel = extras["kernel"] = dict(extras["kernel"])
        _require_keys("kernel", kernel, ("id", "radii", "t"),
                      required=("id", "t") if kernel.get("id") == "heat" else ("id",))
        if kernel["id"] not in KERNEL_IDS:
            raise ConfigError(f"unknown kernel id {kernel['id']!r}; expected "
                              f"one of {KERNEL_IDS}")
        if kernel["id"] == "heat" and not float(kernel["t"]) > 0.0:
            raise ConfigError("a heat table needs t > 0")
        radii = kernel.get("radii", {"start": 0.1, "stop": 10.0, "num": 50})
        _require_keys("kernel radii", radii, ("start", "stop", "num"),
                      required=("start", "stop", "num"))
        radii = kernel["radii"] = {"start": float(radii["start"]),
                                   "stop": float(radii["stop"]),
                                   "num": int(radii["num"])}
        if not (0.0 < radii["start"] < radii["stop"] and radii["num"] >= 1):
            raise ConfigError("kernel radii need 0 < start < stop and num >= 1")
        kernel.setdefault("t", None)
    # The Dirichlet ball must fit in the box: dirichlet-eig's, or the unit
    # ball that anharmonic-limit's potentials approach.
    if command in ("dirichlet-eig", "anharmonic-limit"):
        radius = float(extras.get("ball_radius", 1.0))
        if not 0.0 < radius < grid.L / 2.0:
            raise ConfigError(f"ball radius {radius} must lie in "
                              f"(0, L/2 = {grid.L / 2.0})")
    if "eps_schedule" in extras:
        try:
            validate_eps_schedule(extras["eps_schedule"], grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    return RunConfig(command=command, symbol=symbol, grid=grid, solver=solver,
                     extras=extras,
                     output_dir=raw.get("output_dir", "out"), raw=raw)


def _build_potential(pot, grid):
    if pot["kind"] == "anharmonic":
        return anharmonic(pot["k"], grid)
    spec = WellSpec(a=pot["a"], v=pot["v"], eps=pot["eps"])
    return (mollified_well if spec.eps > 0.0 else sharp_well)(spec, grid)


def _write_eigenresult(out, result):
    payload = {"lambda": result.lam, "residual": result.residual,
               "iters": result.iters, "converged": result.converged,
               "method": result.method, "stop": result.meta["stop"],
               "threshold": result.meta["threshold"],
               "history_tail": result.history[-10:]}
    io_utils.write_json(out / "result.json", payload)
    io_utils.write_field(out / "phi", result.phi)
    io_utils.write_radial_profile(result.phi, out / "profile.csv")


def _write_sequence_report(out, report, param):
    """report.json and report.csv of a StabilityReport; the exit status."""
    io_utils.write_json(out / "report.json", report.to_json_dict())
    io_utils.write_csv(out / "report.csv", [param, "lambda", "gap", "gap_l2"],
                       report.csv_columns())
    return 0 if report.converged else 2


def dispatch(cfg):
    """Run one configured command; returns the process exit status."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    extras = cfg.extras
    status = 0

    if cfg.command == "kernel-table":
        kernel, radii = extras["kernel"], extras["kernel"]["radii"]
        table = build_kernel_table(
            cfg.symbol, kernel["id"], cfg.grid.d,
            np.geomspace(radii["start"], radii["stop"], radii["num"]), t=kernel["t"])
        io_utils.write_kernel_table(table, out / "table")

    elif cfg.command in ("ground-state", "monotonicity"):
        result = ground_state(cfg.symbol,
                              _build_potential(extras["potential"], cfg.grid),
                              cfg.solver)
        _write_eigenresult(out, result)
        if cfg.command == "monotonicity":
            report = monotonicity_check(result)
            sym = symmetry_check(result, rotations=int(extras["rotations"]))
            payload = report.to_json_dict()
            payload["symmetry_defect"] = sym["exact"]
            payload["symmetry"] = sym
            io_utils.write_json(out / "report.json", payload)
            io_utils.write_csv(out / "report.csv", ["r", "chi(r)"],
                               report.csv_columns())
        if not result.converged:
            status = 2

    elif cfg.command == "dirichlet-eig":
        result = dirichlet_ground_state(cfg.symbol,
                                        float(extras["ball_radius"]), cfg.grid,
                                        cfg.solver)
        _write_eigenresult(out, result)
        if not result.converged:
            status = 2

    elif cfg.command == "stability-sweep":
        pot = extras["potential"]
        report = stability_sweep(cfg.symbol, WellSpec(a=pot["a"], v=pot["v"]),
                                 extras["eps_schedule"], cfg.grid, cfg.solver)
        status = _write_sequence_report(out, report, "eps")

    elif cfg.command == "anharmonic-limit":
        report = anharmonic_to_dirichlet(
            cfg.symbol, [int(k) for k in extras["k_list"]], cfg.grid,
            cfg.solver)
        status = _write_sequence_report(out, report, "k")

    elif cfg.command == "antisym-check":
        check = antisymmetric_minimum_check(
            cfg.symbol, lambda y: y * np.exp(-y * y), float(extras["mu"]))
        io_utils.write_json(out / "report.json", check.to_json_dict())
        if not (check.sign_ok and check.bounds_ok):
            status = 2

    elif cfg.command == "embedding-check":
        fields = [random_band_limited(cfg.grid, cfg.solver.seed + i,
                                      float(extras["kmax_frac"]))
                  for i in range(int(extras["num_fields"]))]
        flags, c_low = embedding_tail_check(cfg.symbol, fields, s=extras["s"])
        payload = {"passes": flags, "all_pass": all(flags), "c_low": c_low}
        io_utils.write_json(out / "report.json", payload)
        if not all(flags):
            status = 2

    artifacts = sorted(f.name for f in out.iterdir()
                       if f.is_file() and f.name != "manifest.json")
    io_utils.write_manifest(out / "manifest.json", cfg.raw, cfg.solver.seed,
                            extra={"command": cfg.command,
                                   "exit_status": status,
                                   "artifacts": artifacts})
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nonlocal-spectra",
        description="Ground states and kernel identities of non-local "
                    "Schrodinger operators on a periodic grid.")
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--output", default=None, help="output directory "
                        "(overrides config output_dir)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override solver seed")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.solver = replace(cfg.solver, seed=args.seed)
            cfg.raw.setdefault("solver", {})["seed"] = args.seed
    except (TypeError, ValueError) as exc:   # ConfigError, or a wrong type
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.output is not None:
        cfg.output_dir = args.output

    if args.verbose:
        echo = dict(cfg.raw)
        echo["resolved"] = {"command": cfg.command,
                            "symbol": cfg.symbol.label,
                            "grid": {"d": cfg.grid.d, "n": cfg.grid.n,
                                     "L": cfg.grid.L}}
        print(json.dumps(echo, indent=2, sort_keys=True))

    # parse_config raises every ConfigError, before any directory exists.
    try:
        return dispatch(cfg)
    except Exception as exc:  # dispatch failures map to exit 1 with context
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
