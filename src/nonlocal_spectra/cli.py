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


# The keys with string values.  Every other value is a number, an array of
# numbers, an object (a section of its own) or, for s and potential, null.
_STRING_KEYS = ("command", "kind", "id", "output_dir")


def _section(section, data, allowed, required=()):
    """A copy of data, which holds only allowed and all required keys, each
    with a value of its JSON type: true and "1" are not numbers."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ConfigError(f"missing key(s) in {section}: {sorted(missing)}")
    for key, value in data.items():
        string = key in _STRING_KEYS
        for item in value if isinstance(value, list) else [value]:
            if not (isinstance(item, str) if string else type(item) in (int, float, dict)
                    or item is None and key in ("s", "potential")):
                kind = "a string" if string else "a number"
                raise ConfigError(f"{key} must be {kind}, got {json.dumps(item)}")
    return dict(data)


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
    "antisym-check": {},
    "embedding-check": {"num_fields": 20, "kmax_frac": 0.25, "s": None},
}
COMMANDS = tuple(_COMMAND_KEYS)


def _integer(key, value):
    """value as an int: 256.0 passes, and 16.9 is an error, not 16."""
    if not float(value).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _resolve_potential(command, pot_raw, grid):
    """The sampled PotentialField, defaults filled in; for stability-sweep
    the WellSpec, whose eps values come from eps_schedule."""
    if not pot_raw:
        raise ConfigError(f"command {command!r} requires a potential")
    kind = pot_raw.get("kind")
    keys = {"well": ("a", "v", "eps"), "anharmonic": ("k",)}.get(kind)
    if keys is None:
        raise ConfigError(f"unknown potential kind {kind!r}")
    pot_raw = _section("potential", pot_raw, ("kind",) + keys)
    if command == "stability-sweep" and (kind != "well" or "eps" in pot_raw):
        raise ConfigError("stability-sweep requires a well potential without "
                          "eps; its eps values come from eps_schedule")
    if kind == "anharmonic":
        return anharmonic(pot_raw.get("k", 1), grid)
    spec = WellSpec(a=pot_raw.get("a", 1.0), v=pot_raw.get("v", 4.0),
                    eps=pot_raw.get("eps", 0.0))
    if command == "stability-sweep":
        return spec
    return (mollified_well if spec.eps > 0.0 else sharp_well)(spec, grid)


def _resolve_kernel(symbol, kernel):
    """The kernel id, its radii as a geomspace array, and t."""
    kernel = _section("kernel", kernel, ("id", "radii", "t"), required=("id",))
    radii = _section("kernel radii", kernel.get("radii", {
        "start": 0.1, "stop": 10.0, "num": 50}), ("start", "stop", "num"),
        required=("start", "stop", "num"))
    radii = np.geomspace(float(radii["start"]), float(radii["stop"]),
                         _integer("kernel radii num", radii["num"]))
    t = kernel.get("t")
    return {"id": kernel["id"], "t": t,
            "radii": validate_kernel_request(symbol, kernel["id"], radii, t)}


def parse_config(path, seed=None):
    """Load a run configuration file and resolve it, defaults included,
    into what dispatch passes to the library; seed replaces the solver
    seed.  A key the command does not read, or a value the library's own
    check rejects, is a ConfigError."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: "
                          f"{exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"the config must be a JSON object, not "
                          f"{type(raw).__name__}")

    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of "
                          f"{COMMANDS}")
    _section("top level", raw, _SHARED_KEYS + tuple(_COMMAND_KEYS[command]),
             required=("command", "grid"))
    try:
        if seed is not None:
            raw.setdefault("solver", {})["seed"] = seed
        sym_raw = _section("symbol", raw.get("symbol", {}), ("m", "alpha"))
        symbol = BernsteinSymbol.relativistic(sym_raw.get("m", 0.0),
                                              sym_raw.get("alpha", 1.0))
        grid_raw = _section("grid", raw["grid"], ("d", "n", "L"),
                            required=("d", "n", "L"))
        grid = Grid(d=_integer("d", grid_raw["d"]),
                    n=_integer("n", grid_raw["n"]), L=float(grid_raw["L"]))
        sol_raw = _section("solver", raw.get("solver", {}), _SOLVER_KEYS)
        solver = SolverConfig(tol=float(sol_raw.get("tol", SolverConfig.tol)),
                              **{key: _integer(key, sol_raw[key]) for key
                                 in ("max_iters", "seed") if key in sol_raw})

        extras = {key: raw.get(key, default)
                  for key, default in _COMMAND_KEYS[command].items()}
        if "potential" in extras:
            extras["potential"] = _resolve_potential(
                command, dict(extras["potential"] or {}), grid)
        if "kernel" in extras:
            extras["kernel"] = _resolve_kernel(symbol, dict(extras["kernel"]))
        if "rotations" in extras:
            extras["rotations"] = _integer("rotations", extras["rotations"])
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
            num = extras["num_fields"] = _integer("num_fields",
                                                  extras["num_fields"])
            if num < 1:
                raise ConfigError(f"num_fields must be >= 1, got {num}")
    except (OverflowError, TypeError, ValueError) as exc:  # wrong JSON types
        raise ConfigError(str(exc)) from None

    return RunConfig(command=command, symbol=symbol, grid=grid, solver=solver,
                     extras=extras,
                     output_dir=raw.get("output_dir", "out"), raw=raw)


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
        fields = [random_band_limited(cfg.grid, cfg.solver.seed + i,
                                      extras["kmax_frac"])
                  for i in range(extras["num_fields"])]
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
