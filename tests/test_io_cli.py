import contextlib
import dataclasses
import io
import json
import os
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracfront
from fracfront import (
    FractionalParams,
    OutOfRangeError,
    RunConfig,
    apply_riesz_feller,
    assemble_operator_matrix,
    estimate_speed,
    green_function,
    read_config_file,
    read_profile_csv,
    result_from_csv,
    run_simulation,
    write_manifest,
    write_snapshot_csv,
)
from fracfront.cli import main

def _repr_csv(header, x, y) -> bytes:
    """Reference two-column CSV, written value by value with repr."""
    lines = [header] + [f"{repr(float(a))},{repr(float(b))}" for a, b in zip(x, y)]
    return ("\n".join(lines) + "\n").encode()


TINY = dict(alpha=1.8, theta=0.1, n=61, b=10.0, t_final=1.0, dt=0.05,
            snapshots=6)


@pytest.fixture(scope="module")
def tiny_run():
    config = RunConfig(**TINY)
    result, diag = run_simulation(config)
    return config, result, diag


class TestSnapshotCSV:
    def test_layout(self, tmp_path, tiny_run):
        config, result, _ = tiny_run
        path = tmp_path / "snap.csv"
        write_snapshot_csv(result, path)
        text = path.read_text()
        assert text.endswith("\n") and "\r" not in text
        lines = text.splitlines()
        assert len(lines) == 1 + config.n
        header = lines[0].split(",")
        assert header[0] == "x"
        assert header[1] == "u@t=0"
        assert header[2] == "u@t=0.2"
        assert len(header) == 1 + config.snapshots
        assert not lines[1].endswith(",")

    def test_three_node_two_snapshot_layout(self, tmp_path):
        from fracfront import BistableCubic, Grid1D, SimulationResult
        grid = Grid1D(1.0, 3)
        result = SimulationResult(
            times=np.array([0.0, 1.0]),
            states=np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
            grid=grid, params=None, nl=BistableCubic(0.5), stats={})
        path = tmp_path / "tiny.csv"
        write_snapshot_csv(result, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4                       # header + 3 data rows
        assert lines[0] == "x,u@t=0,u@t=1"
        assert all(len(ln.split(",")) == 3 for ln in lines)

    def test_header_time_formatting(self, tmp_path):
        config = RunConfig(alpha=1.5, theta=0.0, n=5, b=1.0, t_final=2.5,
                           dt=0.5, snapshots=2)
        result, _ = run_simulation(config)
        path = tmp_path / "two.csv"
        write_snapshot_csv(result, path)
        header = path.read_text().splitlines()[0]
        assert header == "x,u@t=0,u@t=2.5"
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 5 and all(len(r.split(",")) == 3 for r in rows)

    def test_roundtrip_is_exact(self, tmp_path, tiny_run):
        _, result, _ = tiny_run
        path = tmp_path / "snap.csv"
        write_snapshot_csv(result, path)
        x, times, states = read_profile_csv(path)
        assert np.all(x == result.grid.x)         # data round-trips exactly
        assert np.all(states == result.states)
        # header times are shortest round-trip decimals too (0.6000000000000001)
        assert np.all(times == result.times)

    def test_initial_ramp_column(self, tmp_path):
        config = RunConfig(alpha=1.8, theta=0.1, t_final=1.0, dt=0.1,
                           snapshots=2)
        result, _ = run_simulation(config)
        path = tmp_path / "ramp.csv"
        write_snapshot_csv(result, path)
        x, times, states = read_profile_csv(path)
        assert times[0] == 0.0
        mid = np.argmin(np.abs(x))
        assert states[0, mid] == 0.5

    def test_speed_recomputed_from_csv_matches(self, tmp_path):
        config = RunConfig(alpha=1.8, theta=0.1, a=0.6, t_final=10.0,
                           dt=0.05, snapshots=11)
        result, diag = run_simulation(config)
        path = tmp_path / "run.csv"
        write_snapshot_csv(result, path)
        again = estimate_speed(result_from_csv(path, a=0.6))
        assert abs(again.speed - diag["speed"]) <= 1e-12


class TestManifest:
    def test_required_fields_and_values(self, tmp_path, tiny_run):
        config, result, diag = tiny_run
        path = tmp_path / "manifest.json"
        write_manifest(result, diag, config, path)
        m = json.loads(path.read_text())
        assert m["version"]
        assert m["seed"] == 0
        assert m["config"]["alpha"] == 1.8
        assert m["derived"]["m"] == 30
        assert m["derived"]["c1"] == pytest.approx(0.08348024981186786, abs=1e-12)
        assert m["derived"]["c2"] == pytest.approx(0.24226912094291634, abs=1e-12)
        assert m["derived"]["potential_gap"] == 0.0
        assert m["stats"]["steps"] > 0
        assert m["stats"]["solver"] == "dense-inverse"
        assert m["stats"]["solver_setup_s"] > 0
        assert "speed" in m["diagnostics"] and "decay_rate" in m["diagnostics"]

    def test_classical_endpoint_has_null_coefficients(self, tmp_path):
        config = RunConfig(alpha=2.0, theta=0.0, n=41, b=10.0, t_final=0.5,
                           dt=0.05, snapshots=3)
        result, diag = run_simulation(config)
        path = tmp_path / "m.json"
        write_manifest(result, diag, config, path)
        m = json.loads(path.read_text())
        assert m["derived"]["c1"] is None and m["derived"]["c2"] is None


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, tmp_path):
        paths = []
        for tag in ("one", "two"):
            config = RunConfig(**TINY)
            result, _ = run_simulation(config)
            p = tmp_path / f"{tag}.csv"
            write_snapshot_csv(result, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "alpha = 1.5\ntheta = -0.2  # comment\nn = 91\n"
            "tail_correction = true\nic = chen\n")
        values = read_config_file(cfg)
        assert values == {"alpha": 1.5, "theta": -0.2, "n": 91,
                          "tail_correction": True, "ic": "chen"}

    def test_out_key_is_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.5\nout = runs/a\n")
        with pytest.raises(OutOfRangeError, match="--out") as exc:
            read_config_file(cfg)
        assert exc.value.param == "out"

    def test_unknown_key_fails_loud(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpa = 1.5\n")
        with pytest.raises(OutOfRangeError, match="alpa"):
            read_config_file(cfg)


class TestCLI:
    def _simulate_args(self, out, **overrides):
        base = {"--alpha": "1.8", "--theta": "0.1", "--n": "61", "--b": "10",
                "--t-final": "1.0", "--dt": "0.05", "--snapshots": "6"}
        base.update(overrides)
        argv = ["simulate"]
        for k, v in base.items():
            argv += [k, v]
        return argv + ["--out", str(out)]

    def test_simulate_writes_outputs(self, tmp_path, capsys):
        rc = main(self._simulate_args(tmp_path / "run1"))
        assert rc == 0
        assert (tmp_path / "run1" / "snapshots.csv").exists()
        manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 1.8

    def test_bad_alpha_exits_2_naming_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self._simulate_args(tmp_path / "x", **{"--alpha": "2.5"}))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--alpha" in err and "(1, 2]" in err

    def test_bad_theta_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self._simulate_args(tmp_path / "x", **{"--theta": "0.5"}))
        assert exc.value.code == 2
        assert "--theta" in capsys.readouterr().err

    def test_rounded_down_theta_edge_accepted(self, tmp_path, capsys):
        # 2.0 - 1.1 rounds to 0.8999999999999999, yet 0.9 is the edge
        rc = main(self._simulate_args(tmp_path / "edge",
                                      **{"--alpha": "1.1", "--theta": "0.9"}))
        assert rc == 0

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "batch.cfg"
        cfg.write_text("alpha = 1.5\ntheta = 0.2\nn = 61\nb = 10\n"
                       "t_final = 1.0\ndt = 0.05\nsnapshots = 6\n")
        rc = main(["simulate", "--config", str(cfg), "--theta", "-0.2",
                   "--out", str(tmp_path / "run2")])
        assert rc == 0
        manifest = json.loads((tmp_path / "run2" / "manifest.json").read_text())
        assert manifest["config"]["theta"] == -0.2      # flag wins
        assert manifest["config"]["alpha"] == 1.5       # file value

    def test_apply_roundtrip(self, tmp_path, capsys):
        main(self._simulate_args(tmp_path / "run3"))
        rc = main(["apply", "--alpha", "1.8", "--theta", "0.1",
                   "--input", str(tmp_path / "run3" / "snapshots.csv"),
                   "--mode", "projection",
                   "--out", str(tmp_path / "applied.csv")])
        assert rc == 0
        lines = (tmp_path / "applied.csv").read_text().splitlines()
        assert lines[0] == "x,Du"
        assert len(lines) == 62
        profile = result_from_csv(tmp_path / "run3" / "snapshots.csv")
        v = apply_riesz_feller(profile.final, profile.grid,
                               FractionalParams(1.8, 0.1))
        assert (tmp_path / "applied.csv").read_bytes() == _repr_csv(
            "x,Du", profile.grid.x, v)

    def test_apply_classical_order(self, tmp_path, capsys):
        # alpha = 2 is admissible: apply uses the second difference that
        # assemble_operator_matrix dispatches to
        main(self._simulate_args(tmp_path / "run"))
        rc = main(["apply", "--alpha", "2", "--theta", "0",
                   "--input", str(tmp_path / "run" / "snapshots.csv"),
                   "--out", str(tmp_path / "applied.csv")])
        assert rc == 0
        profile = result_from_csv(tmp_path / "run" / "snapshots.csv")
        classical = FractionalParams(2.0, 0.0)
        v = apply_riesz_feller(profile.final, profile.grid, classical)
        assert (tmp_path / "applied.csv").read_bytes() == _repr_csv(
            "x,Du", profile.grid.x, v)
        # the FFT apply equals the dense second difference to roundoff
        dense = (assemble_operator_matrix(profile.grid, classical).entries
                 @ profile.final)
        assert np.max(np.abs(v - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_apply_missing_input_exits_1(self, tmp_path, capsys):
        rc = main(["apply", "--alpha", "1.8", "--theta", "0.1",
                   "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "a.csv")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_green_subcommand(self, tmp_path, capsys):
        rc = main(["green", "--alpha", "1.8", "--theta", "0.1",
                   "--t", "1.0", "--window", "400", "--k-modes", "8192",
                   "--out", str(tmp_path / "g.csv")])
        assert rc == 0
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0] == "x,g"
        vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        mass = np.sum(vals[:, 1]) * (vals[1, 0] - vals[0, 0])
        assert mass == pytest.approx(1.0, abs=1e-3)
        x, g = green_function(FractionalParams(1.8, 0.1), t=1.0, window=400.0,
                              k_modes=8192)
        assert (tmp_path / "g.csv").read_bytes() == _repr_csv("x,g", x, g)

    def test_speed_subcommand_matches_manifest(self, tmp_path, capsys):
        argv = self._simulate_args(tmp_path / "run4",
                                   **{"--a": "0.6", "--t-final": "10.0",
                                      "--snapshots": "11"})
        main(argv)
        capsys.readouterr()
        rc = main(["speed", "--run", str(tmp_path / "run4")])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        manifest = json.loads((tmp_path / "run4" / "manifest.json").read_text())
        assert abs(out["speed"] - manifest["diagnostics"]["speed"]) <= 1e-12

    def test_sweep_layout_and_shared_seed(self, tmp_path, capsys):
        rc = main(["sweep", "--alphas", "1.5", "--thetas=-0.1,0.1",
                   "--a-list", "0.5", "--n", "61", "--b", "10",
                   "--t-final", "0.5", "--dt", "0.05", "--snapshots", "3",
                   "--seed", "7", "--out", str(tmp_path / "sw")])
        assert rc == 0
        dirs = sorted(p.name for p in (tmp_path / "sw").iterdir())
        assert dirs == ["alpha1.5_theta-0.1_a0.5", "alpha1.5_theta0.1_a0.5"]
        thetas, seeds = set(), set()
        for d in dirs:
            m = json.loads((tmp_path / "sw" / d / "manifest.json").read_text())
            thetas.add(m["config"]["theta"])
            seeds.add(m["seed"])
        assert thetas == {-0.1, 0.1}
        assert seeds == {7}

    def test_sweep_builds_one_operator_per_pair(self, tmp_path, capsys,
                                                 monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args[1])
            return assemble_operator_matrix(*args, **kwargs)

        for module in ("fracfront.cli", "fracfront.stepping"):
            monkeypatch.setattr(f"{module}.assemble_operator_matrix", counting)
        flags = ["--n", "61", "--b", "10", "--t-final", "0.5", "--dt", "0.05",
                 "--snapshots", "3"]
        assert main(["sweep", "--alphas", "1.5", "--thetas=-0.1,0.1",
                     "--a-list", "0.4,0.6", *flags,
                     "--out", str(tmp_path / "sw")]) == 0
        assert [(p.alpha, p.theta) for p in built] == [(1.5, -0.1), (1.5, 0.1)]
        for theta in ("-0.1", "0.1"):
            for a in ("0.4", "0.6"):
                alone = tmp_path / f"alone{theta}_{a}"
                assert main(["simulate", "--alpha", "1.5", f"--theta={theta}",
                             "--a", a, *flags, "--out", str(alone)]) == 0
                swept = tmp_path / "sw" / f"alpha1.5_theta{theta}_a{a}"
                assert ((swept / "snapshots.csv").read_bytes()
                        == (alone / "snapshots.csv").read_bytes())
        capsys.readouterr()


class TestExitCodes:
    """Malformed input exits 1 (unreadable input file) or 2 (bad value, named
    by its flag), with an ``error:`` line and no traceback."""

    BAD_CSV = {
        "non_numeric": "x,u@t=0\n-1,0.1\n0,abc\n1,0.3\n",
        "bad_header": "x,u@t=zz\n-1,0.1\n0,0.2\n1,0.3\n",
        "empty": "",
        "ragged": "x,u@t=0\n-1,0.1\n0,0.2,0.5\n1,0.3\n",
        "nan_value": "x,u@t=0\n-1,0.1\n0,nan\n1,0.3\n",
        "inf_time": "x,u@t=inf\n-1,0.1\n0,0.2\n1,0.3\n",
        "off_grid_x": "x,u@t=0\n-1,0.1\n0.5,0.2\n1,0.3\n",
    }
    SMALL_RUN = ["--n", "21", "--b", "5", "--t-final", "0.1", "--dt", "0.05",
                 "--snapshots", "2"]

    def _exits_2(self, argv, capsys) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        return err

    @pytest.mark.parametrize("name", sorted(BAD_CSV))
    def test_apply_malformed_csv_exits_1(self, tmp_path, capsys, name):
        path = tmp_path / f"{name}.csv"
        path.write_text(self.BAD_CSV[name])
        rc = main(["apply", "--alpha", "1.8", "--theta", "0.1",
                   "--input", str(path), "--out", str(tmp_path / "a.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}")
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("defect", ["nan_cells", "shifted_x"])
    def test_speed_unrepresentable_csv_exits_1(self, tmp_path, capsys, defect):
        # a readable file whose diagnostics would silently skip the
        # non-finite cells or use a grid its x column does not hold
        assert main(["simulate", "--alpha", "1.8", "--theta", "0.1",
                     "--n", "61", "--b", "10", "--t-final", "2.0",
                     "--dt", "0.05", "--snapshots", "11",
                     "--out", str(tmp_path)]) == 0
        csv = tmp_path / "snapshots.csv"
        header, *rows = [ln.split(",") for ln in csv.read_text().splitlines()]
        if defect == "nan_cells":
            rows[10][1] = rows[20][3] = "nan"
        else:   # every x after the first moved by +5
            for row in rows[1:]:
                row[0] = repr(float(row[0]) + 5.0)
        csv.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
        capsys.readouterr()
        assert main(["speed", "--run", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {csv}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["{not json", '{"seed": 0}'])
    def test_speed_malformed_manifest_exits_1(self, tmp_path, capsys, text):
        (tmp_path / "manifest.json").write_text(text)
        assert main(["speed", "--run", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / 'manifest.json'}")

    @pytest.mark.parametrize("flag,value", [
        ("--k-modes", "0"), ("--k-modes", "-4"), ("--window", "0"),
        ("--t", "nan"),
    ])
    def test_green_bad_value_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "g.csv"
        err = self._exits_2(["green", "--alpha", "1.8", "--theta", "0.1",
                             "--k-modes", "64", f"{flag}={value}",
                             "--out", str(out)], capsys)
        assert f"{flag}:" in err
        assert not out.exists()

    def test_speed_fit_window_nan_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--alpha", "1.5", "--theta", "0",
                     *self.SMALL_RUN, "--out", str(tmp_path)]) == 0
        err = self._exits_2(["speed", "--run", str(tmp_path),
                             "--fit-window", "nan"], capsys)
        assert "--fit-window:" in err

    @pytest.mark.parametrize("value", ["abc", "61.0"])
    def test_config_file_bad_value_exits_2(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"alpha = 1.5\ntheta = 0\nn = {value}\n")
        err = self._exits_2(["simulate", "--config", str(cfg),
                             "--out", str(tmp_path / "run")], capsys)
        assert f"{cfg}:3: n:" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_config_file_out_key_exits_2(self, tmp_path, capsys, command):
        # the output directory is the --out flag only; the key never applied
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"alpha = 1.5\ntheta = 0\nout = {tmp_path / 'elsewhere'}\n")
        lists = ["--alphas", "1.5", "--thetas", "0", "--a-list", "0.5"]
        err = self._exits_2([command, "--config", str(cfg),
                             *(lists if command == "sweep" else []),
                             *self.SMALL_RUN, "--out", str(tmp_path / "run")],
                            capsys)
        assert f"--out: {cfg}:3:" in err
        assert not (tmp_path / "run").exists()
        assert not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--ic", "ramp"), ("--stepper", "bdf"), ("--stepper", "spectral-imex"),
    ])
    def test_bad_choice_exits_2(self, tmp_path, capsys, flag, value):
        err = self._exits_2(["simulate", "--alpha", "1.5", "--theta", "0",
                             *self.SMALL_RUN, flag, value,
                             "--out", str(tmp_path / "run")], capsys)
        assert f"{flag}:" in err and value in err
        assert not (tmp_path / "run").exists()

    def test_sweep_non_numeric_list_exits_2(self, tmp_path, capsys):
        err = self._exits_2(["sweep", "--alphas", "1.5,abc", "--thetas", "0",
                             "--a-list", "0.5", *self.SMALL_RUN,
                             "--out", str(tmp_path / "sw")], capsys)
        assert "--alphas" in err

    def test_fractional_run_on_three_nodes_exits_2(self, tmp_path, capsys):
        tiny = ["--n", "3", "--b", "5", "--t-final", "0.1", "--dt", "0.05",
                "--snapshots", "2"]
        err = self._exits_2(["simulate", "--alpha", "1.5", "--theta", "0",
                             *tiny, "--out", str(tmp_path / "run")], capsys)
        assert "--n:" in err
        assert not (tmp_path / "run").exists()
        # the alpha = 2 difference needs no sub-mesh; a sweep that mixes the
        # two fails before its alpha = 2 run writes anything
        assert main(["simulate", "--alpha", "2", "--theta", "0", *tiny,
                     "--out", str(tmp_path / "classical")]) == 0
        err = self._exits_2(["sweep", "--alphas", "2,1.5", "--thetas", "0",
                             "--a-list", "0.5", *tiny,
                             "--out", str(tmp_path / "sw")], capsys)
        assert "--n:" in err
        assert not (tmp_path / "sw").exists()

    def test_apply_three_row_csv_exits_1(self, tmp_path, capsys):
        # the bad node count comes from the file: apply has no --n to name
        path = tmp_path / "three.csv"
        path.write_text("x,u@t=0\n-1,0\n0,0.5\n1,1\n")
        rc = main(["apply", "--alpha", "1.5", "--theta", "0",
                   "--input", str(path), "--out", str(tmp_path / "a.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--n" not in err
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("level", ["nan", "inf"])
    def test_speed_nonfinite_level_exits_2(self, tmp_path, capsys, level):
        assert main(["simulate", "--alpha", "1.5", "--theta", "0",
                     *self.SMALL_RUN, "--out", str(tmp_path)]) == 0
        err = self._exits_2(["speed", "--run", str(tmp_path),
                             "--level", level], capsys)
        assert "--level:" in err

    def test_speed_level_never_crossed_exits_1(self, tmp_path, capsys):
        # enough snapshots for the fit window, so only the level is at fault
        assert main(["simulate", "--alpha", "1.5", "--theta", "0",
                     *self.SMALL_RUN, "--snapshots", "9",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["speed", "--run", str(tmp_path), "--level", "5"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: profile never crosses level 5.0")

    def test_sweep_validates_every_configuration_before_writing(
            self, tmp_path, capsys):
        # theta = 0.9 is outside min(alpha, 2 - alpha) = 0.5; theta = 0 is fine
        err = self._exits_2(["sweep", "--alphas", "1.5", "--thetas", "0,0.9",
                             "--a-list", "0.5", *self.SMALL_RUN,
                             "--out", str(tmp_path / "sw")], capsys)
        assert "--thetas:" in err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("lists,flag", [
        (["--alphas", "2.5", "--thetas", "0", "--a-list", "0.5"], "--alphas"),
        (["--alphas", "1.5", "--thetas", "0", "--a-list", "1.5"], "--a-list"),
    ], ids=["alphas", "a-list"])
    def test_sweep_error_names_its_list_flag(self, tmp_path, capsys, lists, flag):
        err = self._exits_2(["sweep", *lists, *self.SMALL_RUN,
                             "--out", str(tmp_path / "sw")], capsys)
        assert f"{flag}:" in err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("flag", ["--alpha", "--theta", "--a"])
    def test_sweep_has_no_single_value_flags(self, tmp_path, capsys, flag):
        # sweep takes these from its lists; a single value would be overridden
        err = self._exits_2(["sweep", "--alphas", "1.5", "--thetas", "0",
                             "--a-list", "0.5", f"{flag}=0.3", *self.SMALL_RUN,
                             "--out", str(tmp_path / "sw")], capsys)
        assert "unrecognized arguments" in err
        assert not (tmp_path / "sw").exists()

    def test_errors_print_the_subcommand_usage(self, tmp_path, capsys):
        three_nodes = ["simulate", "--alpha", "1.5", "--theta", "0", "--n", "3",
                       "--out", str(tmp_path / "run")]
        assert self._exits_2(three_nodes, capsys).startswith(
            "usage: fracfront simulate")
        no_theta = ["simulate", "--alpha", "1.5", "--out", str(tmp_path / "run")]
        err = self._exits_2(no_theta, capsys)
        assert err.startswith("usage: fracfront simulate")
        assert "--alpha and --theta are required" in err
        assert main(["simulate", "--alpha", "1.5", "--theta", "0",
                     *self.SMALL_RUN, "--out", str(tmp_path / "ok")]) == 0
        err = self._exits_2(["speed", "--run", str(tmp_path / "ok"),
                             "--level", "nan"], capsys)
        assert err.startswith("usage: fracfront speed")


# one admissible non-default value per RunConfig field but ``out``
_FIELD_VALUES = {
    "alpha": "1.6", "theta": "0.1", "a": "0.4", "b": "6.0", "n": "23",
    "t_final": "0.2", "ic": "step", "step_lo": "0.3", "step_hi": "1.2",
    "stepper": "rk-adaptive", "dt": "0.025", "abs_tol": "1e-05",
    "rel_tol": "1e-05", "snapshots": "3", "tail_correction": "true",
    "seed": "7",
}
_BASE_VALUES = {"alpha": "1.5", "theta": "0", "n": "21", "b": "5",
                "t_final": "0.1", "dt": "0.05", "snapshots": "2"}


class TestRunConfigFlags:
    """Every RunConfig field is a flag and a config key with one meaning."""

    def test_fields_have_values(self):
        names = {f.name for f in dataclasses.fields(RunConfig)} - {"out"}
        assert names == set(_FIELD_VALUES)

    @pytest.mark.parametrize("name", sorted(_FIELD_VALUES))
    def test_flag_and_config_key_agree(self, tmp_path, capsys, name):
        value = _FIELD_VALUES[name]

        def manifest_config(tag, lines, flags):
            cfg = tmp_path / f"{tag}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
            out = tmp_path / tag
            assert main(["simulate", "--config", str(cfg), *flags,
                         "--out", str(out)]) == 0
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert config.pop("out") == str(out)
            return config

        base = {k: v for k, v in _BASE_VALUES.items() if k != name}
        flag = f"--{name.replace('_', '-')}"
        by_flag = manifest_config(
            "flag", base, [flag] if value == "true" else [f"{flag}={value}"])
        by_file = manifest_config("file", {**base, name: value}, [])
        assert by_flag == by_file
        assert str(by_flag[name]).lower() == value

    def test_every_field_is_in_help(self, capsys):
        for command, skipped in (("simulate", {"out"}),
                                 ("sweep", {"out", "alpha", "theta", "a"})):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            for f in dataclasses.fields(RunConfig):
                if f.name not in skipped:
                    assert f"--{f.name.replace('_', '-')} " in text, (command, f.name)

    def test_one_snapshot_with_positive_t_final_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--alpha", "1.5", "--theta", "0", "--n", "21",
                  "--b", "5", "--t-final", "0.1", "--snapshots", "1",
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "--snapshots:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def test_import_loads_no_scipy():
    """The library and its CLI run on numpy alone."""
    code = ("import sys, fracfront, fracfront.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(fracfront.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _unparsable_by(parse):
    def check(text):
        try:
            parse(text)
        except ValueError:
            return True
        return False
    return check


_TEXT = st.text(alphabet=string.digits + ".,+-eE xabnif_", max_size=6)
_NOT_FLOAT = _TEXT.filter(_unparsable_by(float))
_NOT_INT = _TEXT.filter(_unparsable_by(int))
_NONFINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_NONPOSITIVE = st.floats(max_value=0.0, allow_nan=False)

# every value drawn here must be rejected (alpha = 1.5, so |theta| <= 0.5; the
# check sums alpha + |theta| in floating point, which admits theta within
# rounding of the edge, so theta keeps a margin); --n and --snapshots stay
# small, so a value that slipped through would run in milliseconds
_REJECTED = {
    "--alpha": st.floats(max_value=1.0) | st.floats(min_value=2.0, exclude_min=True),
    "--theta": st.floats(min_value=0.5 + 1e-12) | st.floats(max_value=-0.5 - 1e-12),
    "--a": st.floats(max_value=0.0) | st.floats(min_value=1.0),
    "--b": _NONPOSITIVE,
    "--n": st.integers(-50, 50).filter(lambda n: n < 3 or n % 2 == 0),
    "--t-final": st.floats(max_value=0.0, exclude_max=True),
    "--step-lo": st.nothing(),
    "--step-hi": st.nothing(),
    "--dt": _NONPOSITIVE,
    "--abs-tol": _NONPOSITIVE,
    "--rel-tol": _NONPOSITIVE,
    "--snapshots": st.integers(-50, 0),
    "--seed": st.nothing(),
}
_INT_FLAGS = ("--n", "--snapshots", "--seed")


def _rejected_values(flag):
    if flag in _INT_FLAGS:
        return _REJECTED[flag].map(str) | _NOT_INT | _NONFINITE.map(str)
    return (_REJECTED[flag] | _NONFINITE).map(repr) | _NOT_FLOAT


class TestRunFlagProperty:
    @pytest.mark.parametrize("flag", sorted(_REJECTED))
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rejected_value_exits_2_naming_flag(self, flag, data):
        value = data.draw(_rejected_values(flag), label=flag)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            argv = ["simulate", *TestExitCodes.SMALL_RUN, "--alpha", "1.5",
                    "--theta", "0", f"{flag}={value}", "--out", str(out)]
            with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
                main(argv)
            assert not out.exists()
        assert exc.value.code == 2
        assert f"{flag}:" in err.getvalue()
