"""Command-line front end: parse a JSON run configuration, dispatch one
experiment, and write machine-readable artifacts plus a manifest.

parse_config turns each value into what the library takes, so the
library's own constructors and validators check it once and an invalid
configuration exits 1 before any output directory exists.  Unknown keys,
values of the wrong JSON type (true or "1" for a number) and non-integral
values of integer keys are rejected outright: a silent typo in an epsilon
schedule would invalidate an experiment, so strictness wins over
convenience.  CSV cells use shortest round-trip float formatting, making
repeated runs of the same configuration byte-identical.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io_utils
from .bernstein_kernels import (BernsteinSymbol, build_kernel_table,
                                validate_kernel_request)
from .eigensolver import SolverConfig, dirichlet_ground_state, ground_state
from .experiments import (anharmonic_to_dirichlet, antisymmetric_minimum_check,
                          check_band_fraction, check_rotations,
                          embedding_tail_check, monotonicity_check,
                          random_band_limited, stability_sweep, symmetry_check,
                          validate_embedding_order, validate_eps_schedule,
                          validate_k_list)
from .potentials import (WellSpec, anharmonic, check_fits, mollified_well,
                         sharp_well)
from .spectral_core import Grid


class ConfigError(ValueError):
    pass


# Each section maps its keys to their defaults, and a required key to the
# type it takes instead.  The default's JSON type is the type the key
# accepts: a string, an object (a section), an array of numbers, an integer
# (an int default or marker: 256.0 becomes 256, and 16.9 is an error) or a
# number (a float or None default).  Of the numbers only a float marker
# converts, so "L": 8 gives 8.0 and "a": 1 stays 1.  k and k_list are
# integral through anharmonic_exponent.
_SYMBOL = {"m": 0.0, "alpha": 1.0}
_GRID = {"d": int, "n": int, "L": float}
# tau and min_iters belonged to the deleted imaginary-time solver; they are
# accepted and ignored while the benchmark workload configs still pass them.
_SOLVER = {"tol": SolverConfig.tol, "max_iters": SolverConfig.max_iters,
           "seed": SolverConfig.seed, "tau": None, "min_iters": None}
_POTENTIALS = {"well": {"kind": str, "a": 1.0, "v": 4.0, "eps": 0.0},
               "anharmonic": {"kind": str, "k": 1.0}}
_KERNEL = {"id": str, "radii": {"start": 0.1, "stop": 10.0, "num": 50},
           "t": None}
_RADII = {"start": float, "stop": float, "num": int}
# The top-level keys every command reads (solver too: its seed goes into
# the manifest), and the further keys of each command.  An empty potential
# is a missing one.
_TOP = {"command": str, "symbol": {}, "grid": dict, "solver": {},
        "output_dir": "out"}
_COMMAND_KEYS = {
    "kernel-table": {"kernel": {}},
    "ground-state": {"potential": {}},
    "dirichlet-eig": {"ball_radius": 1.0},
    "stability-sweep": {"potential": {},
                        "eps_schedule": [0.4, 0.2, 0.1, 0.05]},
    "anharmonic-limit": {"k_list": [1, 2, 4, 8, 16]},
    "monotonicity": {"potential": {}, "rotations": 0},
    "antisym-check": {},
    "embedding-check": {"num_fields": 20, "kmax_frac": 0.25, "s": None},
}
COMMANDS = tuple(_COMMAND_KEYS)
_JSON_NAMES = {str: "a string", dict: "an object", list: "an array"}


def _section(section, data, keys):
    """data with the defaults of keys filled in, or ConfigError naming the
    first unknown key, missing key or value of the wrong JSON type."""
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")
    missing = {key for key in keys if isinstance(keys[key], type)} - set(data)
    if missing:
        raise ConfigError(f"missing key(s) in {section}: {sorted(missing)}")
    out = dict(keys)
    for key, value in data.items():
        default = keys[key]
        kind = default if isinstance(default, type) else type(default)
        if kind in _JSON_NAMES and type(value) is not kind:
            raise ConfigError(f"{key} must be {_JSON_NAMES[kind]}, got "
                              f"{json.dumps(value)}")
        numbers = (value if kind is list else [] if kind in _JSON_NAMES
                   else [value])
        for item in numbers:  # true and "1" are not numbers
            if type(item) not in (int, float):
                raise ConfigError(f"{key} must be a number, got "
                                  f"{json.dumps(item)}")
        if kind is int and not float(value).is_integer():
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        out[key] = (int(value) if kind is int
                    else float(value) if default is float else value)
    return out


def _resolve_potential(command, potential, grid):
    """The sampled PotentialField, defaults filled in; for stability-sweep
    the WellSpec, whose eps values come from eps_schedule."""
    if not potential:
        raise ConfigError(f"command {command!r} requires a potential")
    kind = potential.get("kind")
    keys = _POTENTIALS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ConfigError(f"unknown potential kind {kind!r}")
    values = _section("potential", potential, keys)
    del values["kind"]
    if command == "stability-sweep" and (kind != "well" or "eps" in potential):
        raise ConfigError("stability-sweep requires a well potential without "
                          "eps; its eps values come from eps_schedule")
    if kind == "anharmonic":
        return anharmonic(values["k"], grid)
    spec = WellSpec(**values)
    if command == "stability-sweep":
        return spec
    return (mollified_well if spec.eps > 0.0 else sharp_well)(spec, grid)


@dataclass
class RunConfig:
    command: str
    symbol: BernsteinSymbol
    grid: Grid
    solver: SolverConfig
    extras: dict
    output_dir: str
    raw: dict


def parse_config(path, seed=None):
    """Load a run configuration file and resolve it (_resolve_config)."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: "
                          f"{exc.msg}") from None
    return _resolve_config(raw, seed)


def _resolve_config(raw, seed=None):
    """raw resolved, defaults included, into what dispatch passes to the
    library, seed replacing the solver seed; a key the command does not
    read, or a value the library's own check rejects, is a ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"the config must be a JSON object, not "
                          f"{type(raw).__name__}")

    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of "
                          f"{COMMANDS}")
    try:
        top = _section("top level", raw, {**_TOP, **_COMMAND_KEYS[command]})
        if seed is not None:
            raw["solver"] = top["solver"] = dict(top["solver"], seed=seed)
        symbol = BernsteinSymbol.relativistic(
            **_section("symbol", top["symbol"], _SYMBOL))
        grid = Grid(**_section("grid", top["grid"], _GRID))
        sol = _section("solver", top["solver"], _SOLVER)
        solver = SolverConfig(sol["tol"], sol["max_iters"], sol["seed"])

        extras = {key: top[key] for key in _COMMAND_KEYS[command]}
        if "potential" in extras:
            extras["potential"] = _resolve_potential(
                command, extras["potential"], grid)
        if "kernel" in extras:  # id, t and the radii as a geomspace array
            kernel = extras["kernel"] = _section("kernel", extras["kernel"],
                                                 _KERNEL)
            with np.errstate(all="ignore"):  # NaN radii fail the check
                radii = np.geomspace(**_section("kernel radii",
                                                kernel["radii"], _RADII))
            kernel["radii"] = validate_kernel_request(
                symbol, kernel["id"], radii, kernel["t"])
        if "rotations" in extras:
            check_rotations(extras["rotations"], grid.d)
        # The Dirichlet ball must fit in the box: dirichlet-eig's, or the
        # unit ball that anharmonic-limit's potentials approach.
        if command in ("dirichlet-eig", "anharmonic-limit"):
            check_fits(extras.get("ball_radius", 1.0), grid, "ball radius")
        if "eps_schedule" in extras:
            extras["eps_schedule"] = validate_eps_schedule(
                extras["eps_schedule"], grid, extras["potential"])
        if "k_list" in extras:
            extras["k_list"] = validate_k_list(extras["k_list"])
        if command == "antisym-check" and grid.d != 1:
            raise ConfigError(f"antisym-check needs d = 1, got d = {grid.d}")
        if command == "embedding-check":
            validate_embedding_order(symbol, extras["s"])
            check_band_fraction(extras["kmax_frac"])
            if extras["num_fields"] < 1:
                raise ConfigError(f"num_fields must be >= 1, got "
                                  f"{extras['num_fields']}")
    except (OverflowError, TypeError, ValueError) as exc:  # 10**400 overflows
        raise ConfigError(str(exc)) from None

    return RunConfig(command=command, symbol=symbol, grid=grid, solver=solver,
                     extras=extras, output_dir=top["output_dir"], raw=raw)


def _write_eigenresult(out, result):
    """result.json, the field and its radial profile; the exit status."""
    payload = {"lambda": result.lam, "residual": result.residual,
               "iters": result.iters, "converged": result.converged,
               "method": result.method, "stop": result.meta["stop"],
               "threshold": result.meta["threshold"],
               "history_tail": result.history[-10:],
               "residual_tail": result.meta["residuals"][-10:]}
    io_utils.write_json(out / "result.json", payload)
    io_utils.write_field(out / "phi", result.phi)
    io_utils.write_radial_profile(result.phi, out / "profile.csv")
    return 0 if result.converged else 2


def _write_sequence_report(out, report, param):
    """report.json and report.csv of a sequence report; the exit status."""
    io_utils.write_json(out / "report.json", report)
    io_utils.write_csv(out / "report.csv", [param, "lambda", "gap", "gap_l2"],
                       [report[key] for key in ("params", "lambda", "gaps",
                                                "l2_gaps")])
    return 0 if report["converged"] else 2


def dispatch(cfg):
    """Run one resolved command and write its artifacts; returns the
    process exit status."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    extras = cfg.extras
    status = 0

    if cfg.command == "kernel-table":
        kernel = extras["kernel"]
        table = build_kernel_table(cfg.symbol, kernel["id"], cfg.grid.d,
                                   kernel["radii"], t=kernel["t"])
        io_utils.write_kernel_table(table, out / "table")

    elif cfg.command in ("ground-state", "monotonicity"):
        result = ground_state(cfg.symbol, extras["potential"], cfg.solver)
        status = _write_eigenresult(out, result)
        if cfg.command == "monotonicity":
            report = monotonicity_check(result)
            report["symmetry"] = symmetry_check(
                result, rotations=extras["rotations"])
            io_utils.write_json(out / "report.json", report)

    elif cfg.command == "dirichlet-eig":
        result = dirichlet_ground_state(cfg.symbol, extras["ball_radius"],
                                        cfg.grid, cfg.solver)
        status = _write_eigenresult(out, result)

    elif cfg.command == "stability-sweep":
        report = stability_sweep(cfg.symbol, extras["potential"],
                                 extras["eps_schedule"], cfg.grid, cfg.solver)
        status = _write_sequence_report(out, report, "eps")

    elif cfg.command == "anharmonic-limit":
        report = anharmonic_to_dirichlet(cfg.symbol, extras["k_list"],
                                         cfg.grid, cfg.solver)
        status = _write_sequence_report(out, report, "k")

    elif cfg.command == "antisym-check":
        # w(y) = y e^(-y^2) is antisymmetric about the plane mu = 0 only.
        report = antisymmetric_minimum_check(
            cfg.symbol, lambda y: y * np.exp(-y * y), 0.0)
        io_utils.write_json(out / "report.json", report)
        status = 0 if report["sign_ok"] and report["bounds_ok"] else 2

    elif cfg.command == "embedding-check":
        fields = (random_band_limited(cfg.grid, cfg.solver.seed + i,
                                      extras["kmax_frac"])
                  for i in range(extras["num_fields"]))
        report = embedding_tail_check(cfg.symbol, fields, s=extras["s"])
        io_utils.write_json(out / "report.json", report)
        status = 0 if report["all_pass"] else 2

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
        cfg = parse_config(args.config, seed=args.seed)
    except ConfigError as exc:
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

    # parse_config has rejected every invalid configuration, before any
    # directory exists; what dispatch raises is a failure of the run.
    try:
        return dispatch(cfg)
    except Exception as exc:  # dispatch failures map to exit 1 with context
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
