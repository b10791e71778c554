import json

import numpy as np
import pytest

from nonlocal_spectra.cli import ConfigError, main, parse_config
from nonlocal_spectra.eigensolver import SolverConfig
from nonlocal_spectra.io_utils import read_field


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


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
        assert cfg.extras == {"potential": {"kind": "well", "a": 1.0,
                                            "v": 4.0, "eps": 0.0}}
        sweep = parse_config(write_config(tmp_path, dict(
            BASE, command="stability-sweep",
            grid={"d": 1, "n": 2048, "L": 32.0})))
        assert sweep.extras["eps_schedule"] == [0.4, 0.2, 0.1, 0.05]

    def test_alpha_range_named_in_error(self, tmp_path):
        bad = dict(BASE, symbol={"alpha": 2.5})
        with pytest.raises(ConfigError, match="alpha in \\(0,2\\)"):
            parse_config(write_config(tmp_path, bad))

    def test_box_too_small(self, tmp_path):
        bad = dict(BASE, potential={"kind": "well", "a": 16.0, "v": 1.0})
        with pytest.raises(ConfigError, match="box too small"):
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
        assert result["method"] == "dense-eigh" and "config" not in result

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

    def test_result_records_stop_reason_and_threshold(self, tmp_path):
        runs = {"residual": dict(BASE),
                "budget": dict(BASE, solver=dict(BASE["solver"], max_iters=5,
                                                 tol=1e-300)),
                "direct": {key: value for key, value in BASE.items()
                           if key != "potential"}}
        runs["direct"]["command"] = "dirichlet-eig"
        for stop, payload in runs.items():
            out = tmp_path / stop
            main(["--config", str(write_config(tmp_path, payload)),
                  "--output", str(out)])
            result = json.loads((out / "result.json").read_text())
            assert result["stop"] == stop
            assert result["converged"] == (stop != "budget")
            assert result["residual"] <= result["threshold"] or stop == "budget"

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
                   "mu": 0.0,
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

    def test_monotonicity_report(self, tmp_path):
        payload = dict(BASE, command="monotonicity",
                       output_dir=str(tmp_path / "mono"))
        payload["solver"] = dict(BASE["solver"], max_iters=2500, tol=1e-13)
        assert main(["--config", str(write_config(tmp_path, payload))]) == 0
        rep = json.loads((tmp_path / "mono" / "report.json").read_text())
        assert rep["max_violation"] <= 1e-6 * rep["chi0"]
        assert rep["symmetry"]["exact"] < 1e-10

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

    def test_wrongly_typed_section_is_a_config_error(self, tmp_path, capsys):
        for mutation in ({"potential": [1]}, {"symbol": {"m": "heavy"}}):
            bad = dict(BASE, **mutation)
            assert main(["--config", str(write_config(tmp_path, bad))]) == 1
            assert "config error" in capsys.readouterr().err


class TestFlagsAndFormats:
    def test_verbose_echo(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dict(
            BASE, output_dir=str(tmp_path / "v")))
        assert main(["--config", str(cfg_path), "--verbose"]) == 0
        echoed = capsys.readouterr().out
        assert "resolved" in echoed and "ground-state" in echoed

    def test_potential_serialization_roundtrip(self, tmp_path):
        from nonlocal_spectra.io_utils import read_potential, write_potential
        from nonlocal_spectra.potentials import WellSpec, mollified_well
        from nonlocal_spectra.spectral_core import Grid
        g = Grid(d=1, n=64, L=16.0)
        pot = mollified_well(WellSpec(a=1.0, v=2.0, eps=0.5), g)
        write_potential(tmp_path / "V", pot)
        back = read_potential(tmp_path / "V")
        assert np.array_equal(back.values, pot.values)
        assert back.meta["kind"] == "mollified_well"
        assert back.meta["eps"] == 0.5


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
