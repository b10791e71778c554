import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nonlocal_spectra
from nonlocal_spectra import cli
from nonlocal_spectra.cli import ConfigError, dispatch, main, parse_config
from nonlocal_spectra.eigensolver import SolverConfig
from nonlocal_spectra.potentials import WellSpec

from helpers import read_field


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


SMALL_GRID = {"d": 1, "n": 256, "L": 16.0}
BASE = {
    "command": "ground-state",
    "symbol": {"m": 0.0, "alpha": 1.0},
    "grid": {"d": 1, "n": 256, "L": 32.0},
    "potential": {"kind": "well", "a": 1.0, "v": 4.0},
    "solver": {"tol": 1e-9, "max_iters": 4000, "seed": 5},
}


class TestParseConfig:
    def test_minimal_defaults_filled(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE))
        assert cfg.command == "ground-state"
        assert cfg.solver == SolverConfig(tol=1e-9, max_iters=4000, seed=5)
        assert cfg.grid.n == 256
        assert list(cfg.extras) == ["potential"]
        assert cfg.extras["potential"].meta == {"kind": "sharp_well", "a": 1.0,
                                                "v": 4.0, "eps": 0.0}
        sweep = parse_config(write_config(tmp_path, dict(
            BASE, command="stability-sweep",
            grid={"d": 1, "n": 2048, "L": 32.0})))
        assert sweep.extras["eps_schedule"] == [0.4, 0.2, 0.1, 0.05]
        assert sweep.extras["potential"] == WellSpec(a=1.0, v=4.0)

    def test_alpha_range_named_in_error(self, tmp_path):
        bad = dict(BASE, symbol={"alpha": 2.5})
        with pytest.raises(ConfigError, match="alpha must lie in \\(0, 2\\)"):
            parse_config(write_config(tmp_path, bad))

    def test_box_too_small(self, tmp_path):
        bad = dict(BASE, potential={"kind": "well", "a": 16.0, "v": 1.0})
        with pytest.raises(ConfigError,
                           match="well radius a = 16.0 does not fit in"):
            parse_config(write_config(tmp_path, bad))

    def test_unknown_keys_rejected_everywhere(self, tmp_path):
        for mutation in ({"oops": 1},
                         {"symbol": {"m": 0.0, "mass": 1.0}},
                         {"grid": {"d": 1, "n": 256, "L": 32.0, "hx": 0.1}},
                         {"solver": {"tau": 0.02, "dt": 0.1}}):
            bad = dict(BASE)
            bad.update(mutation)
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("key, value", [("projection", 1.0),
                                            ("splitting", "strang")])
    def test_removed_solver_keys_rejected(self, tmp_path, key, value):
        bad = dict(BASE, solver=dict(BASE["solver"], **{key: value}))
        with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
            parse_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("mutation", [
        # ground-state solves one potential and reads no schedule.
        {"eps_schedule": [0.4, 0.2]},
        # monotonicity solves the configured potential, not a k_list.
        {"command": "monotonicity", "k_list": [1, 2]},
        # an anharmonic potential has no radius or depth.
        {"potential": {"kind": "anharmonic", "k": 2, "a": 5.0}},
    ], ids=["eps_schedule-on-ground-state", "k_list-on-monotonicity",
            "well-key-on-anharmonic"])
    def test_keys_the_command_never_reads_rejected(self, tmp_path, mutation):
        bad = dict(BASE, **mutation)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write_config(tmp_path, bad))

    def test_well_eps_rejected_on_stability_sweep(self, tmp_path):
        # The sweep takes every eps from its schedule.
        bad = dict(BASE, command="stability-sweep",
                   potential=dict(BASE["potential"], eps=0.1))
        with pytest.raises(ConfigError, match="eps_schedule"):
            parse_config(write_config(tmp_path, bad))

    def test_removed_antisym_keys_rejected(self, tmp_path):
        payload = {"command": "antisym-check", "symbol": {"m": 1.0},
                   "grid": {"d": 1, "n": 16, "L": 1.0}, "m_antisym": 0.5}
        with pytest.raises(ConfigError, match="unknown key.*m_antisym"):
            parse_config(write_config(tmp_path, payload))

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"command": "ground-state",\n  "grid": }')
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(path)

    def test_unknown_command(self, tmp_path):
        bad = dict(BASE, command="solve-everything")
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config(write_config(tmp_path, bad))

    def test_eps_schedule_floor_checked(self, tmp_path):
        bad = dict(BASE, command="stability-sweep",
                   eps_schedule=[0.4, 0.001])
        with pytest.raises(ConfigError, match="resolvable"):
            parse_config(write_config(tmp_path, bad))

    def test_eps_schedule_trailing_zero_accepted(self, tmp_path):
        # eps = 0 is the sharp well itself, which the library accepts.
        payload = dict(BASE, command="stability-sweep",
                       eps_schedule=[0.8, 0.4, 0.0],
                       output_dir=str(tmp_path / "sweep"))
        assert main(["--config", str(write_config(tmp_path, payload))]) == 0
        csv = (tmp_path / "sweep" / "report.csv").read_text().splitlines()
        assert csv[-1].startswith("0.0,") and csv[-1].endswith(",0.0,0.0")


class TestDispatch:
    def test_ground_state_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(
            BASE, output_dir=str(tmp_path / "out")))
        assert main(["--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        for name in ("result.json", "phi.bin", "phi.json", "profile.csv",
                     "manifest.json"):
            assert (out / name).exists()
        result = json.loads((out / "result.json").read_text())
        assert result["lambda"] < 0.0
        assert result["converged"]
        phi = read_field(out / "phi")
        assert abs(phi.l2_norm() - 1.0) < 1e-10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ground-state"
        assert "config_sha256" in manifest and "versions" in manifest
        # every output file is paired with a manifest entry
        on_disk = sorted(f.name for f in out.iterdir()
                         if f.name != "manifest.json")
        assert manifest["artifacts"] == on_disk

    def test_dirichlet_eig(self, tmp_path):
        payload = dict(BASE, command="dirichlet-eig", ball_radius=1.0,
                       output_dir=str(tmp_path / "dir"))
        payload.pop("potential")
        assert main(["--config", str(write_config(tmp_path, payload))]) == 0
        result = json.loads((tmp_path / "dir" / "result.json").read_text())
        assert result["lambda"] > 0.0
        assert result["method"] == "lobpcg" and "config" not in result

    def test_kernel_table(self, tmp_path):
        payload = {"command": "kernel-table",
                   "symbol": {"m": 1.0, "alpha": 1.0},
                   "grid": {"d": 1, "n": 256, "L": 32.0},
                   "kernel": {"id": "j",
                              "radii": {"start": 0.2, "stop": 5.0, "num": 9}},
                   "output_dir": str(tmp_path / "ktab")}
        assert main(["--config", str(write_config(tmp_path, payload))]) == 0
        csv = (tmp_path / "ktab" / "table.csv").read_text().splitlines()
        assert csv[0] == "r,value,error_estimate"
        assert len(csv) == 10
        sidecar = json.loads((tmp_path / "ktab" / "table.json").read_text())
        assert sidecar["kernel_id"] == "j" and sidecar["m"] == 1.0

    def test_stability_sweep_and_csv(self, tmp_path):
        payload = dict(BASE, command="stability-sweep",
                       eps_schedule=[0.5, 0.25],
                       output_dir=str(tmp_path / "sweep"))
        assert main(["--config", str(write_config(tmp_path, payload))]) == 0
        csv = (tmp_path / "sweep" / "report.csv").read_text().splitlines()
        assert csv[0] == "eps,lambda,gap,gap_l2"
        assert len(csv) == 3

    def test_stability_sweep_report_carries_image_gaps(self, tmp_path):
        payload = dict(BASE, command="stability-sweep",
                       eps_schedule=[0.5, 0.25, 0.0],
                       output_dir=str(tmp_path / "sweep"))
        assert main(["--config", str(write_config(tmp_path, payload))]) == 0
        rep = json.loads((tmp_path / "sweep" / "report.json").read_text())
        gaps, bounds = rep["image_gaps"], rep["triangle_bounds"]
        assert len(gaps) == len(bounds) == 3
        assert all(g <= b for g, b in zip(gaps, bounds))
        assert gaps[-1] == 0.0   # eps = 0 is the target itself
        assert len(rep["iters"]) == len(rep["stops"]) == 3
        assert set(rep["stops"]) == {"residual"}

    def test_result_records_stop_reason_and_threshold(self, tmp_path):
        ball = {key: value for key, value in BASE.items() if key != "potential"}
        ball["command"] = "dirichlet-eig"
        runs = {"well-residual": (dict(BASE), "residual"),
                "well-budget": (dict(BASE, solver=dict(
                    BASE["solver"], max_iters=5, tol=1e-300)), "budget"),
                "ball-residual": (ball, "residual"),
                "ball-budget": (dict(ball, solver=dict(
                    BASE["solver"], max_iters=1, tol=1e-300)), "budget")}
        for name, (payload, stop) in runs.items():
            out = tmp_path / name
            status = main(["--config", str(write_config(tmp_path, payload)),
                           "--output", str(out)])
            result = json.loads((out / "result.json").read_text())
            assert result["stop"] == stop
            assert result["converged"] is (stop != "budget")
            assert status == (2 if stop == "budget" else 0)
            assert result["residual"] <= result["threshold"] or stop == "budget"
            # The loop's residuals of its last ten iterates, the start's
            # included in a run of fewer steps.
            tail = result["residual_tail"]
            assert len(tail) == min(10, result["iters"] + 1)
            assert (tail[-1] <= 0.1 * result["threshold"]) is (stop != "budget")

    def test_ignored_solver_keys_change_only_the_manifest(self, tmp_path):
        # tau and min_iters belonged to the deleted imaginary-time solver.
        outs = []
        for extra in ({}, {"tau": 0.5, "min_iters": 1000}):
            out = tmp_path / f"run{len(outs)}"
            payload = dict(BASE, solver=dict(BASE["solver"], **extra))
            assert main(["--config", str(write_config(tmp_path, payload)),
                         "--output", str(out)]) == 0
            outs.append(out)
        names = sorted(f.name for f in outs[0].iterdir())
        assert names == sorted(f.name for f in outs[1].iterdir())
        for name in names:
            same = (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            assert same == (name != "manifest.json"), name

    def test_nonconverged_exit_2_with_artifacts(self, tmp_path):
        payload = dict(BASE, output_dir=str(tmp_path / "nc"))
        payload["solver"] = dict(BASE["solver"], max_iters=5, tol=1e-300)
        assert main(["--config", str(write_config(tmp_path, payload))]) == 2
        result = json.loads((tmp_path / "nc" / "result.json").read_text())
        assert result["converged"] is False

    def test_antisym_check(self, tmp_path):
        payload = {"command": "antisym-check",
                   "symbol": {"m": 1.0, "alpha": 1.0},
                   "grid": {"d": 1, "n": 256, "L": 32.0},
                   "output_dir": str(tmp_path / "anti")}
        assert main(["--config", str(write_config(tmp_path, payload))]) == 0
        rep = json.loads((tmp_path / "anti" / "report.json").read_text())
        assert rep["sign_ok"] and rep["bounds_ok"]

    def test_embedding_check(self, tmp_path):
        payload = {"command": "embedding-check",
                   "symbol": {"m": 1.0, "alpha": 1.0},
                   "grid": {"d": 1, "n": 256, "L": 32.0},
                   "num_fields": 4,
                   "output_dir": str(tmp_path / "emb")}
        assert main(["--config", str(write_config(tmp_path, payload))]) == 0
        rep = json.loads((tmp_path / "emb" / "report.json").read_text())
        assert rep["all_pass"]

    def test_embedding_check_memory_does_not_grow_with_num_fields(
            self, tmp_path):
        # Each field is built and checked before the next: 64 fields of a
        # 64^2 grid are 2 MB, the peak of one field's check about 0.2 MB.
        peaks = []
        for num in (4, 4, 64):
            cfg = parse_config(write_config(tmp_path, {
                "command": "embedding-check",
                "grid": {"d": 2, "n": 64, "L": 16.0}, "num_fields": num,
                "output_dir": str(tmp_path / f"emb{len(peaks)}")}))
            tracemalloc.start()
            try:
                assert dispatch(cfg) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # The first run is a warm-up: it may fill caches.
        assert peaks[2] < 1.5 * peaks[1], peaks

    def test_monotonicity_report(self, tmp_path):
        payload = dict(BASE, command="monotonicity",
                       output_dir=str(tmp_path / "mono"))
        payload["solver"] = dict(BASE["solver"], max_iters=2500, tol=1e-13)
        assert main(["--config", str(write_config(tmp_path, payload))]) == 0
        rep = json.loads((tmp_path / "mono" / "report.json").read_text())
        assert rep["max_violation"] <= 1e-6 * rep["chi0"]
        assert rep["symmetry"]["exact"] < 1e-10
        # The profile and the exact defect are each written once.
        assert "symmetry_defect" not in rep
        assert not (tmp_path / "mono" / "report.csv").exists()

    _SEQUENCE_KEYS = {"kind", "params", "lambda", "lambda_target", "gaps",
                      "l2_gaps", "converged", "monotone_gap_decay",
                      "target_residual", "residuals", "iters", "stops",
                      "discretization_floor", "minmax_margins",
                      "lambda_dirichlet", "clamped"}

    @pytest.mark.parametrize("command, extra, keys", [
        ("stability-sweep", {"eps_schedule": [0.5]},
         _SEQUENCE_KEYS | {"image_gaps", "triangle_bounds"}),
        ("anharmonic-limit", {"k_list": [1]}, _SEQUENCE_KEYS),
        ("monotonicity", {},
         {"max_violation", "region_flags", "chi0", "symmetry"}),
        ("antisym-check", {}, {"mu", "x_star", "delta", "w_min", "lhs",
                               "rhs1", "rhs2", "constants", "antisym_defect",
                               "sign_ok", "bounds_ok"}),
        ("embedding-check", {"num_fields": 2},
         {"passes", "all_pass", "c_low"}),
    ], ids=["stability-sweep", "anharmonic-limit", "monotonicity",
            "antisym-check", "embedding-check"])
    def test_report_json_keys(self, tmp_path, command, extra, keys):
        payload = dict(BASE, command=command, **extra)
        if command in ("anharmonic-limit", "antisym-check", "embedding-check"):
            del payload["potential"]
        out = tmp_path / "run"
        assert main(["--config", str(write_config(tmp_path, payload)),
                     "--output", str(out)]) in (0, 2)
        rep = json.loads((out / "report.json").read_text())
        assert set(rep) == keys
        # Each sequence kind writes the other kind's own keys empty.
        if command == "stability-sweep":
            assert rep["clamped"] is False
        if command == "anharmonic-limit":
            assert rep["discretization_floor"] is None
            assert rep["minmax_margins"] is None

    def test_output_flag_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(BASE, output_dir="ignored"))
        target = tmp_path / "elsewhere"
        assert main(["--config", str(cfg_path), "--output",
                     str(target)]) == 0
        assert (target / "result.json").exists()

    def test_unwritable_output_exits_1(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        cfg_path = write_config(tmp_path, dict(
            BASE, output_dir=str(blocker / "out")))
        assert main(["--config", str(cfg_path)]) == 1

    def test_bad_config_exits_1(self, tmp_path):
        bad = dict(BASE, symbol={"alpha": -1.0})
        assert main(["--config", str(write_config(tmp_path, bad))]) == 1

    @pytest.mark.parametrize("kernel, match", [
        ({"id": "j", "radii": {"start": 0.1, "stop": 2.0}}, "missing key.*num"),
        ({"id": "bessel"}, "unknown kernel id"),
        ({"id": "j", "radii": [2.0, 1.0, 0.5]}, "radii must be an object"),
        ({"id": "j", "radii": {"start": 2.0, "stop": 0.5, "num": 5}},
         "radii must be nonempty and increase within \\(0, inf\\)"),
        ({"id": "j", "radii": {"start": 0.1, "stop": 2.0, "num": 0}},
         "radii must be nonempty"),
        ({"id": "heat", "radii": {"start": 0.1, "stop": 2.0, "num": 5}},
         "a heat table needs t > 0, got None"),
        ({"id": "heat", "t": 0.0}, "t > 0"),
        ({"id": "sigma"}, "sigma requires m > 0"),
        ({"id": "j_prime"}, "j_prime requires m > 0"),
        # Only heat reads t.
        ({"id": "j", "t": 1.0}, "t is read only by heat tables, not by j"),
        ({"id": "j", "t": [1, 2]}, "t must be a number, got \\[1, 2\\]"),
        ({"id": "j", "t": {"a": 1}}, 't must be a number, got {"a": 1}'),
    ], ids=["radii-without-num", "unknown-id", "radii-list", "decreasing-radii",
            "no-radii", "heat-without-t", "heat-at-t-0", "massless-sigma",
            "massless-j_prime", "t-on-j", "t-list-on-j", "t-object-on-j"])
    def test_malformed_kernel_is_a_config_error(self, tmp_path, capsys, kernel,
                                                match):
        # The default symbol, m = 0, which only sigma and j_prime reject.
        out = tmp_path / "ktab"
        payload = {"command": "kernel-table",
                   "grid": {"d": 1, "n": 16, "L": 1.0}, "kernel": kernel,
                   "output_dir": str(out)}
        assert main(["--config", str(write_config(tmp_path, payload))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and re.search(match, err)
        assert not out.exists()

    @pytest.mark.parametrize("mutation, flags, match", [
        ({"command": "dirichlet-eig", "potential": None, "ball_radius": 100},
         [], "ball radius"),
        ({"command": "anharmonic-limit", "potential": None, "k_list": [1],
          "grid": {"d": 1, "n": 64, "L": 2.0}}, [],
         "ball radius = 1.0 does not fit"),
        ({"solver": {"seed": -1}}, [], "seed must be >= 0"),
        ({}, ["--seed", "-1"], "seed must be >= 0"),
        ({"command": "stability-sweep", "grid": SMALL_GRID,
          "potential": {"kind": "well", "a": 7.8, "v": 4.0},
          "eps_schedule": [0.4, 0.2]}, [], "a \\+ eps = 8.2 does not fit"),
        ({"command": "anharmonic-limit", "potential": None, "grid": SMALL_GRID,
          "k_list": [2, 1]}, [], "k_list must be increasing"),
        ({"command": "anharmonic-limit", "potential": None, "grid": SMALL_GRID,
          "k_list": [1.5, 2]}, [], "k must be an integer >= 1, got 1.5"),
        ({"grid": SMALL_GRID, "potential": {"kind": "anharmonic", "k": 1.7}},
         [], "k must be an integer >= 1, got 1.7"),
        ({"command": "antisym-check", "potential": None, "grid": SMALL_GRID,
          "mu": 0.5}, [], "unknown key.*'mu'"),
        ({"command": "embedding-check", "potential": None, "grid": SMALL_GRID,
          "num_fields": 0}, [], "num_fields must be >= 1"),
        ({"command": "embedding-check", "potential": None, "grid": SMALL_GRID,
          "s": 1.5}, [], "order s must lie in \\(0,1\\), got 1.5"),
        ({"command": "embedding-check", "potential": None, "grid": SMALL_GRID,
          "kmax_frac": -1}, [], "kmax_frac must be >= 0, got -1"),
        ({"command": "embedding-check", "potential": None, "grid": SMALL_GRID,
          "kmax_frac": float("nan")}, [], "kmax_frac must be >= 0, got nan"),
        ({"grid": dict(SMALL_GRID, n=16.9)}, [],
         "n must be an integer, got 16.9"),
        ({"grid": dict(SMALL_GRID, n=10 ** 400)}, [], "too large"),
        ({"grid": dict(SMALL_GRID, L=float("inf"))}, [],
         "box side must be finite"),
        # radius() would overflow, and np.geomspace warn, before a check.
        ({"grid": dict(SMALL_GRID, L=1e300)}, [], "with d L\\^2 finite"),
        ({"command": "kernel-table", "potential": None,
          "kernel": {"id": "j", "radii": {"start": -1.0, "stop": 2.0,
                                          "num": 3}}}, [],
         "radii must be nonempty and increase"),
        ({"potential": {"kind": "well", "v": float("inf")}}, [],
         "well depth v must be finite"),
        ({"solver": dict(BASE["solver"], max_iters=10.7)}, [],
         "max_iters must be an integer, got 10.7"),
        ({"command": "monotonicity", "rotations": 1.5}, [],
         "rotations must be an integer, got 1.5"),
        ({"command": "monotonicity", "grid": SMALL_GRID, "rotations": -2}, [],
         "rotations must be >= 0, and 0 unless d = 2; got -2 in d = 1"),
        ({"command": "monotonicity", "grid": SMALL_GRID, "rotations": 3}, [],
         "rotations must be >= 0, and 0 unless d = 2; got 3 in d = 1"),
        ({"potential": {"kind": "well", "a": 1.0, "v": 4.0, "eps": 0.01}}, [],
         "eps = 0.01 is below the resolvable floor 2h = 0.25"),
        # JSON's NaN and Infinity, which a check written as `if x < 0`
        # lets through.
        ({"symbol": {"m": float("nan")}}, [], "mass m must be finite and >= 0"),
        ({"command": "kernel-table", "potential": None,
          "symbol": {"m": float("inf")}, "kernel": {"id": "j"}}, [],
         "mass m must be finite and >= 0, got inf"),
        ({"solver": dict(BASE["solver"], tol=float("inf"))}, [],
         "tol must be finite and > 0, got inf"),
        ({"command": "stability-sweep", "grid": SMALL_GRID,
          "eps_schedule": [0.8, float("nan"), 0.4]}, [],
         "eps_schedule entries must be >= 0 and finite"),
        ({"command": "antisym-check", "potential": None,
          "grid": {"d": 3, "n": 16, "L": 1.0}}, [],
         "antisym-check needs d = 1, got d = 3"),
        ({"command": "embedding-check", "potential": None, "grid": SMALL_GRID,
          "s": 0.9}, [], "order s must be <= alpha/2 = 0.5, got 0.9"),
        # JSON booleans and numeric strings are not numbers.
        ({"command": "kernel-table", "potential": None,
          "kernel": {"id": "heat", "t": True}}, [],
         "t must be a number, got true"),
        ({"grid": dict(SMALL_GRID, d=True)}, [], "d must be a number, got true"),
        ({"grid": dict(SMALL_GRID, n="64")}, [],
         'n must be a number, got "64"'),
        ({"command": "kernel-table", "potential": None,
          "kernel": {"id": "j", "radii": {"start": "0.1", "stop": 2,
                                          "num": 5}}}, [],
         'start must be a number, got "0.1"'),
        ({"command": "stability-sweep", "grid": SMALL_GRID,
          "eps_schedule": [0.8, True]}, [],
         "eps_schedule must be a number, got true"),
        # Only a section takes an object, and never inside an array.
        ({"command": "stability-sweep", "grid": SMALL_GRID,
          "eps_schedule": [{"a": 1}]}, [],
         'eps_schedule must be a number, got {"a": 1}'),
        ({"solver": dict(BASE["solver"], tol={"x": 1})}, [],
         'tol must be a number, got {"x": 1}'),
        ({"grid": dict(SMALL_GRID, n={"x": 1})}, [],
         'n must be a number, got {"x": 1}'),
        # A number or an array where the key takes another JSON type.
        ({"grid": 5}, [], "grid must be an object, got 5"),
        ({"symbol": 1}, [], "symbol must be an object, got 1"),
        ({"solver": {"tol": [1e-9]}}, [],
         "tol must be a number, got \\[1e-09\\]"),
        ({"command": "kernel-table", "potential": None,
          "kernel": {"id": "heat", "t": [1, 2]}}, [],
         "t must be a number, got \\[1, 2\\]"),
        ({"potential": {"kind": "well", "a": [1]}}, [],
         "a must be a number, got \\[1\\]"),
        # The seed override comes after the solver slot's check.
        ({"solver": 5}, ["--seed", "1"], "solver must be an object, got 5"),
    ], ids=["ball-outside-the-box", "unit-ball-outside-the-box", "negative-seed",
            "negative-seed-flag", "sweep-well-leaves-the-box",
            "decreasing-k_list", "fractional-k_list", "fractional-k",
            "antisym-mu", "no-embedding-fields", "embedding-order-above-1",
            "negative-kmax_frac", "nan-kmax_frac",
            "fractional-n", "huge-n", "infinite-box", "huge-box",
            "negative-radii-start", "infinite-well-depth",
            "fractional-max_iters", "fractional-rotations",
            "negative-rotations", "rotations-in-1d",
            "mollifier-below-the-grid", "nan-mass", "infinite-mass",
            "infinite-tol", "nan-eps", "antisym-in-3d",
            "embedding-order-above-half-alpha", "boolean-heat-t", "boolean-d",
            "string-n", "string-radii-start", "boolean-eps",
            "object-in-eps_schedule", "object-tol", "object-n",
            "number-grid", "number-symbol", "array-tol", "array-heat-t",
            "array-well-a", "number-solver-with-seed"])
    def test_invalid_run_makes_no_directory(self, tmp_path, capsys, mutation,
                                            flags, match):
        out = tmp_path / "run"
        payload = {key: value for key, value in
                   dict(BASE, output_dir=str(out), **mutation).items()
                   if value is not None}
        assert main(["--config", str(write_config(tmp_path, payload)),
                     *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and re.search(match, err)
        assert err.count("\n") == 1
        assert not out.exists()

    def test_integral_floats_accepted(self, tmp_path):
        payload = dict(BASE, grid={"d": 1.0, "n": 256.0, "L": 32.0},
                       solver={"tol": 1e-9, "max_iters": 4000.0, "seed": 5.0})
        cfg = parse_config(write_config(tmp_path, payload))
        assert (cfg.grid.d, cfg.grid.n) == (1, 256)
        assert cfg.solver == SolverConfig(tol=1e-9, max_iters=4000, seed=5)
        assert type(cfg.grid.n) is int and type(cfg.solver.seed) is int

    def test_wrongly_typed_section_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        for mutation, match in (
                ({"potential": [1]}, "potential must be an object, got"),
                ({"symbol": {"m": "heavy"}},
                 'm must be a number, got "heavy"'),
                # JSON's null, which test_invalid_run_makes_no_directory
                # reads as a key left out.
                ({"symbol": None}, "symbol must be an object, got null")):
            bad = dict(BASE, output_dir=str(out), **mutation)
            assert main(["--config", str(write_config(tmp_path, bad))]) == 1
            assert match in capsys.readouterr().err
            assert not out.exists()


# A small valid configuration of each command, and a ground state of the
# anharmonic potential.
_CONFIGS = {
    "kernel-table": {"command": "kernel-table",
                     "grid": {"d": 1, "n": 16, "L": 1.0},
                     "kernel": {"id": "heat", "t": 0.5, "radii": {
                         "start": 0.1, "stop": 2.0, "num": 3}}},
    "ground-state": dict(BASE, grid={"d": 1, "n": 64, "L": 8.0}),
    "dirichlet-eig": {"command": "dirichlet-eig",
                      "grid": {"d": 1, "n": 64, "L": 8.0}, "ball_radius": 1.0},
    "stability-sweep": dict(BASE, command="stability-sweep",
                            grid={"d": 1, "n": 64, "L": 16.0},
                            eps_schedule=[1.0, 0.5]),
    "anharmonic-limit": {"command": "anharmonic-limit",
                         "grid": {"d": 1, "n": 64, "L": 8.0},
                         "k_list": [1, 2]},
    "monotonicity": dict(BASE, command="monotonicity",
                         grid={"d": 2, "n": 16, "L": 8.0}, rotations=1),
    "antisym-check": {"command": "antisym-check",
                      "grid": {"d": 1, "n": 16, "L": 8.0}},
    "embedding-check": {"command": "embedding-check",
                        "grid": {"d": 1, "n": 16, "L": 8.0}, "num_fields": 2,
                        "kmax_frac": 0.25, "s": 0.5},
    "anharmonic": dict(BASE, grid={"d": 1, "n": 64, "L": 8.0},
                       potential={"kind": "anharmonic", "k": 2}),
}
# Every key of every section table, as (configuration, path to the key).
_SLOTS = (
    [(command, (key,)) for command, keys in cli._COMMAND_KEYS.items()
     for key in {**cli._TOP, **keys}]
    + [("ground-state", (section, key)) for section, table in
       (("symbol", cli._SYMBOL), ("grid", cli._GRID), ("solver", cli._SOLVER),
        ("potential", cli._POTENTIALS["well"])) for key in table]
    + [("anharmonic", ("potential", key))
       for key in cli._POTENTIALS["anharmonic"]]
    + [("kernel-table", ("kernel", key)) for key in cli._KERNEL]
    + [("kernel-table", ("kernel", "radii", key)) for key in cli._RADII])
# Any JSON value; an object never has the keys d, n or num, which size the
# arrays that parse_config allocates.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.text(max_size=4).filter(lambda k: k not in ("d", "n", "num")),
        inner, max_size=4),
    max_leaves=8)
# d, n and num take only small valid values: a d = 3, n = 1024 grid is
# gigabytes.
_SMALL = {"d": st.sampled_from([1, 2, 3]), "n": st.sampled_from([16, 32]),
          "num": st.sampled_from([1, 3, 8])}


@pytest.mark.parametrize("name, path", _SLOTS, ids=[
    f"{name}-{'.'.join(path)}" for name, path in _SLOTS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_value_in_any_slot_parses_or_is_a_config_error(
        name, path, data):
    payload = json.loads(json.dumps(_CONFIGS[name]))
    section = payload
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = data.draw(_SMALL.get(path[-1], _JSON))
    try:  # what parse_config resolves once it has loaded the file
        assert isinstance(cli._resolve_config(payload), cli.RunConfig)
    except ConfigError:
        pass


class TestFlagsAndFormats:
    def test_verbose_echo(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dict(
            BASE, output_dir=str(tmp_path / "v")))
        assert main(["--config", str(cfg_path), "--verbose"]) == 0
        echoed = capsys.readouterr().out
        assert "resolved" in echoed and "ground-state" in echoed


class TestDeterminism:
    def test_byte_identical_csv_outputs(self, tmp_path):
        payload = dict(BASE, command="stability-sweep",
                       eps_schedule=[0.5, 0.25])
        cfg_path = write_config(tmp_path, payload)
        for sub in ("a", "b"):
            assert main(["--config", str(cfg_path), "--output",
                         str(tmp_path / sub), "--seed", "42"]) == 0
        a = (tmp_path / "a" / "report.csv").read_bytes()
        b = (tmp_path / "b" / "report.csv").read_bytes()
        assert a == b
        ma = (tmp_path / "a" / "manifest.json").read_bytes()
        mb = (tmp_path / "b" / "manifest.json").read_bytes()
        assert ma == mb

    def test_seed_changes_nothing_physical(self, tmp_path):
        # Different seeds converge to the same eigendata within tolerance.
        lams = []
        for seed in ("11", "97"):
            out = tmp_path / f"s{seed}"
            cfg_path = write_config(tmp_path, dict(
                BASE, output_dir=str(out)))
            assert main(["--config", str(cfg_path), "--seed", seed]) == 0
            lams.append(json.loads((out / "result.json").read_text())["lambda"])
        assert abs(lams[0] - lams[1]) < 1e-7


def test_import_leaves_quadrature_and_optimizer_unloaded(tmp_path):
    # Every CLI call imports the package; only the functions that call quad,
    # minimize_scalar or a special function import scipy.integrate,
    # scipy.optimize and scipy.special.  Ground states and balls call none.
    well = dict(BASE, output_dir=str(tmp_path / "well"))
    ball = dict(BASE, command="dirichlet-eig", ball_radius=1.0,
                output_dir=str(tmp_path / "ball"))
    ball.pop("potential")
    configs = [write_config(tmp_path, well, "well.json"),
               write_config(tmp_path, ball, "ball.json")]
    src = str(Path(nonlocal_spectra.__file__).resolve().parent.parent)
    report = ("print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', "
              "'scipy.special') if m in sys.modules))")
    run = ("from nonlocal_spectra.cli import main; "
           + "; ".join(f"assert main(['--config', {str(c)!r}]) == 0" for c in configs))
    for code in ("import sys, nonlocal_spectra.cli; " + report,
                 "import sys; " + run + "; " + report):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("content", [None, "[1, 2]"],
                         ids=["missing-file", "top-level-array"])
def test_entry_point_rejects_malformed_file(tmp_path, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    src = str(Path(nonlocal_spectra.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-m", "nonlocal_spectra.cli",
                          "--config", str(path), "--output",
                          str(tmp_path / "run")],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 1
    assert run.stderr.startswith("config error")
    assert "Traceback" not in run.stderr and run.stderr.count("\n") == 1
    assert not (tmp_path / "run").exists()
