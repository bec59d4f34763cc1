import argparse
import contextlib
import dataclasses
import errno
import gc
import inspect
import io
import itertools
import json
import os
import pickle
import re
import string
import subprocess
import sys
import tempfile
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracfront
from fracfront import (
    FracfrontError,
    FractionalParams,
    Grid1D,
    OutOfRangeError,
    RunConfig,
    SimulationResult,
    apply_riesz_feller,
    assemble_operator_matrix,
    estimate_speed,
    green_function,
    read_config_file,
    read_profile_csv,
    result_from_csv,
    run_simulation,
    run_simulations,
    write_manifest,
    write_snapshot_csv,
)
from fracfront.cli import build_parser, float_list, main
from fracfront.runio import MANIFEST_KEYS, build_manifest

def _repr_csv(header, x, y) -> bytes:
    """Reference two-column CSV, written value by value with repr."""
    lines = [header] + [f"{repr(float(a))},{repr(float(b))}" for a, b in zip(x, y)]
    return ("\n".join(lines) + "\n").encode()


def _write_snapshots(path, grid, times, states) -> None:
    """A snapshot CSV of ``states`` at ``times``."""
    write_snapshot_csv(SimulationResult(times=np.array(times, dtype=float),
                                        states=np.array(states), grid=grid,
                                        nl=None), path)


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
            grid=grid, nl=BistableCubic(0.5), stats={})
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
        assert m["numpy"] == np.__version__
        assert m["config"]["alpha"] == 1.8
        assert m["derived"]["m"] == 30
        assert m["derived"]["c1"] == pytest.approx(0.08348024981186786, abs=1e-12)
        assert m["derived"]["c2"] == pytest.approx(0.24226912094291634, abs=1e-12)
        assert m["derived"]["potential_gap"] == 0.0
        assert m["stats"]["steps"] > 0
        assert m["stats"]["solver"] == "dense-inverse"
        assert m["stats"]["solver_setup_s"] > 0
        assert "speed" in m["diagnostics"] and "decay_rate" in m["diagnostics"]

    @pytest.mark.parametrize("stepper", ["semi-implicit", "rk-adaptive"])
    def test_simulate_writes_every_schema_key(self, tmp_path, stepper):
        out = tmp_path / "run"
        assert main(["simulate", "--alpha", "1.7", "--theta", "0.2", "--n", "41",
                     "--b", "10", "--t-final", "1", "--snapshots", "3",
                     "--stepper", stepper, "--out", str(out)]) == 0
        m = json.loads((out / "manifest.json").read_text())
        # a semi-implicit run also names its solver and times its setup
        solver = ("solver", "solver_setup_s") if stepper == "semi-implicit" else ()
        schema = {**MANIFEST_KEYS, "stats": MANIFEST_KEYS["stats"] + solver}
        assert m.keys() == schema.keys()
        for key, section in schema.items():
            if section:   # version and numpy are strings
                assert set(m[key]) == set(section), key

    def test_classical_endpoint_has_null_coefficients(self, tmp_path):
        config = RunConfig(alpha=2.0, theta=0.0, n=41, b=10.0, t_final=0.5,
                           dt=0.05, snapshots=3)
        result, diag = run_simulation(config)
        path = tmp_path / "m.json"
        write_manifest(result, diag, config, path)
        m = json.loads(path.read_text())
        assert m["derived"]["c1"] is None and m["derived"]["c2"] is None

    @pytest.mark.parametrize("alpha,b,ratio", [(1.3, 30.0, 0.306), (1.3, 60.0, 0.124),
                                               (2.0, 30.0, 0.0)])
    def test_tail_ratio(self, alpha, b, ratio):
        # the far-field tail over the threshold margin squared, at a = 0.1
        config = RunConfig(alpha=alpha, theta=0.0, a=0.1, b=b, n=41, out="unused")
        manifest = build_manifest(config, {}, {})
        assert manifest["derived"]["tail_ratio"] == pytest.approx(ratio, abs=5e-4)

    def test_integral_float_counts_written_as_ints(self, tmp_path):
        # the CLI parses counts as ints; a library config may hold 61.0
        config = RunConfig(**{**TINY, "n": 61.0, "snapshots": 6.0})
        result, diag = run_simulation(config)
        path = tmp_path / "m.json"
        write_manifest(result, diag, config, path)
        m = json.loads(path.read_text())["config"]
        assert (m["n"], m["snapshots"]) == (61, 6)
        assert type(m["n"]) is int and type(m["snapshots"]) is int


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

    # in-process semi-implicit runs; rk-adaptive, which steps each
    # configuration alone; and a sweep above the dense limit, which steps its
    # two (alpha, theta) groups in forked workers
    @pytest.mark.parametrize("argv,count", [
        (["simulate", "--alpha", "1.7", "--theta", "0.2"], 1),
        (["simulate", "--alpha", "1.7", "--theta", "0.2", "--n", "801"], 1),
        (["sweep", "--alphas", "1.7", "--thetas", "0.2", "--a-list", "0.3,0.5,0.7",
          "--n", "401"], 3),
        (["simulate", "--alpha", "1.5", "--theta", "0.45", "--a", "0.3", "--stepper",
          "rk-adaptive", "--n", "801", "--t-final", "2"], 1),
        (["sweep", "--alphas", "1.5", "--thetas=-0.25,0.25", "--a-list", "0.3,0.6",
          "--n", "1601", "--t-final", "2"], 4),
    ], ids=["simulate-181", "simulate-801", "sweep-401", "adaptive-801",
            "forked-sweep-1601"])
    def test_identical_bytes_under_any_blas_thread_count(self, tmp_path, argv, count):
        src = str(Path(fracfront.__file__).resolve().parents[1])
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "fracfront", *argv, "--out", str(out)],
                           env=env, check=True, capture_output=True)
            csvs.append({p.relative_to(out): p.read_bytes()
                         for p in out.rglob("snapshots.csv")})
        assert len(csvs[0]) == count
        assert csvs[0] == csvs[1]


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "alpha = 1.5\ntheta = -0.2  # comment\nn = 91\n"
            "tail_correction = true\nic = chen\n")
        values = read_config_file(cfg)
        assert values == {"alpha": 1.5, "theta": -0.2, "n": 91,
                          "tail_correction": True, "ic": "chen"}
        # as some Windows editors save it: a byte-order mark before the text
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert read_config_file(cfg) == values

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

    @pytest.mark.parametrize("flag,tail", [([], False),
                                           (["--tail-correction"], True),
                                           (["--no-tail-correction"], False)])
    def test_apply_tail_flag_spellings(self, tmp_path, capsys, flag, tail):
        main(self._simulate_args(tmp_path / "run"))
        rc = main(["apply", "--alpha", "1.8", "--theta", "0.1", *flag,
                   "--input", str(tmp_path / "run" / "snapshots.csv"),
                   "--out", str(tmp_path / "applied.csv")])
        assert rc == 0
        profile = result_from_csv(tmp_path / "run" / "snapshots.csv")
        v = apply_riesz_feller(profile.final, profile.grid,
                               FractionalParams(1.8, 0.1), tail_correction=tail)
        assert (tmp_path / "applied.csv").read_bytes() == _repr_csv(
            "x,Du", profile.grid.x, v)

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

    def test_speed_without_decay_fit_reports_null(self, tmp_path, capsys):
        # four snapshots are too few for the decay fit, enough for the speed
        main(self._simulate_args(tmp_path / "run", **{"--snapshots": "4"}))
        capsys.readouterr()
        assert main(["speed", "--run", str(tmp_path / "run"),
                     "--fit-window", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["speed", "intercept", "fit_rms", "level",
                             "front_track", "decay_rate", "decay_r_squared"]
        assert out["decay_rate"] is None and out["decay_r_squared"] is None
        assert out["speed"] < 0

    # 1 - 0.7 is 0.30000000000000004, which once fitted 6 of 10 and 13 of 20
    @pytest.mark.parametrize("snapshots,fitted", [("10", 7), ("20", 14)])
    def test_speed_fit_window_counts_its_snapshots(self, tmp_path, capsys,
                                                   snapshots, fitted):
        main(self._simulate_args(tmp_path / "run", **{"--snapshots": snapshots}))
        capsys.readouterr()
        assert main(["speed", "--run", str(tmp_path / "run"),
                     "--fit-window", "0.7"]) == 0
        assert len(json.loads(capsys.readouterr().out)["front_track"]) == fitted

    def test_sweep_layout(self, tmp_path, capsys):
        rc = main(["sweep", "--alphas", "1.5", "--thetas=-0.1,0.1",
                   "--a-list", "0.5", "--n", "61", "--b", "10",
                   "--t-final", "0.5", "--dt", "0.05", "--snapshots", "3",
                   "--out", str(tmp_path / "sw")])
        assert rc == 0
        dirs = sorted(p.name for p in (tmp_path / "sw").iterdir())
        assert dirs == ["alpha1.5_theta-0.1_a0.5", "alpha1.5_theta0.1_a0.5"]
        thetas = set()
        for d in dirs:
            m = json.loads((tmp_path / "sw" / d / "manifest.json").read_text())
            thetas.add(m["config"]["theta"])
        assert thetas == {-0.1, 0.1}

    def test_sweep_builds_one_operator_per_pair(self, tmp_path, capsys,
                                                 monkeypatch):
        built, alive = [], []

        def counting(*args, **kwargs):
            # a group's operator and solver are freed before the next is built
            gc.collect()
            assert [ref() for ref in alive] == [None] * len(alive)
            built.append(args[1])
            operator = assemble_operator_matrix(*args, **kwargs)
            alive.append(weakref.ref(operator))
            return operator

        # the cli builds no operator: each group's run_simulations builds its
        # own; on one CPU the groups run in this process, one after the other
        _cpus(monkeypatch, 1)
        monkeypatch.setattr("fracfront.runio.assemble_operator_matrix", counting)
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
        "repeated_time": "x,u@t=1,u@t=1\n-1,0.1,0.1\n0,0.2,0.2\n1,0.3,0.3\n",
        "decreasing_time": "x,u@t=2,u@t=1\n-1,0.1,0.1\n0,0.2,0.2\n1,0.3,0.3\n",
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

    @pytest.mark.parametrize("defect", ["nan_cells", "shifted_x", "repeated_times"])
    def test_speed_unrepresentable_csv_exits_1(self, tmp_path, capsys, defect):
        # a readable file whose diagnostics would silently skip the
        # non-finite cells, use a grid its x column does not hold, or fit a
        # line to times that do not increase
        assert main(["simulate", "--alpha", "1.8", "--theta", "0.1",
                     "--n", "61", "--b", "10", "--t-final", "2.0",
                     "--dt", "0.05", "--snapshots", "11",
                     "--out", str(tmp_path)]) == 0
        csv = tmp_path / "snapshots.csv"
        header, *rows = [ln.split(",") for ln in csv.read_text().splitlines()]
        if defect == "nan_cells":
            rows[10][1] = rows[20][3] = "nan"
        elif defect == "repeated_times":
            header[1:] = ["u@t=1"] * (len(header) - 1)
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

    @pytest.mark.parametrize("text,where", [
        ("# a comment-only line\n\nalpha = 1.5\ntheta = 0\nn = x\n", ":5: n:"),
        ("alpha = 1.5\ntheta 0\n", ":2: expected 'key = value'"),
        ("alpha = 1.5\ntheta = 0\ntail_correction = maybe\n",
         ":3: tail_correction: expected a boolean"),
        ("alpha = 1.5\ntheta = 0\ndt = 0.02\ndt = 0.05\n", ":4: 'dt' is given twice"),
    ], ids=["lines-after-blank-and-comment", "no-equals", "bad-boolean",
            "repeated-key"])
    def test_config_file_bad_line_exits_2(self, tmp_path, capsys, text, where):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        err = self._exits_2(["simulate", "--config", str(cfg),
                             "--out", str(tmp_path / "run")], capsys)
        assert f"{cfg}{where}" in err
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

    @pytest.mark.parametrize("key,value,flag", [
        ("alpha", "1.9", "--alphas"), ("theta", "0.05", "--thetas"),
        ("a", "0.4", "--a-list"),
    ])
    def test_sweep_config_list_key_exits_2(self, tmp_path, capsys, key, value,
                                           flag):
        # sweep takes these from its list flags, which would override the key
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"{key} = {value}\n")
        err = self._exits_2(["sweep", "--config", str(cfg), "--alphas", "1.5",
                             "--thetas", "0", "--a-list", "0.5", *self.SMALL_RUN,
                             "--out", str(tmp_path / "sw")], capsys)
        assert (f"{flag}: {cfg}: {key!r} is not a sweep config key; "
                f"give it as {flag}\n") in err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--ic", "ramp"), ("--stepper", "bdf"), ("--stepper", "spectral-imex"),
    ])
    def test_bad_choice_exits_2(self, tmp_path, capsys, flag, value):
        err = self._exits_2(["simulate", "--alpha", "1.5", "--theta", "0",
                             *self.SMALL_RUN, flag, value,
                             "--out", str(tmp_path / "run")], capsys)
        assert f"{flag}:" in err and value in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,flag", [
        ("simulate", "--step-hi"), ("simulate", "--dt"),
        ("sweep", "--alphas"), ("sweep", "--b"),
    ])
    def test_double_dash_value_exits_2(self, tmp_path, capsys, command, flag):
        # some argparse versions read --flag=-- as an empty list, not a value
        runs = (["--alphas", "1.5", "--thetas", "0", "--a-list", "0.5"]
                if command == "sweep" else ["--alpha", "1.5", "--theta", "0"])
        err = self._exits_2([command, *runs, *self.SMALL_RUN, f"{flag}=--",
                             "--out", str(tmp_path / "out")], capsys)
        assert f"{flag}: " in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("fit_window", [[], ["--fit-window", "1"]])
    def test_speed_on_a_short_run_exits_1(self, tmp_path, capsys, fit_window):
        # no fit window reaches 4 snapshots: the run directory is at fault
        assert main(["simulate", "--alpha", "1.8", "--theta", "0.1",
                     *self.SMALL_RUN, "--snapshots", "3",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["speed", "--run", str(tmp_path), *fit_window]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {tmp_path / 'snapshots.csv'}: ")
        assert captured.out == ""

    def test_speed_narrow_fit_window_exits_2(self, tmp_path, capsys):
        # a wider window would reach 4 of the 21 snapshots
        assert main(["simulate", "--alpha", "1.8", "--theta", "0.1",
                     *self.SMALL_RUN, "--snapshots", "21",
                     "--out", str(tmp_path)]) == 0
        err = self._exits_2(["speed", "--run", str(tmp_path),
                             "--fit-window", "0.1"], capsys)
        assert "--fit-window:" in err

    @pytest.mark.parametrize("command", ["apply", "speed"])
    def test_nonnegative_first_x_exits_1(self, tmp_path, capsys, command):
        # the grid is rebuilt as [x0, -x0]: a first node at x >= 0 has none
        csv = tmp_path / "snapshots.csv"
        csv.write_text("x,u@t=0\n0,0.1\n1,0.2\n2,0.3\n")
        (tmp_path / "manifest.json").write_text('{"config": {"a": 0.5}}')
        argv = (["speed", "--run", str(tmp_path)] if command == "speed" else
                ["apply", "--alpha", "1.8", "--theta", "0.1", "--input", str(csv),
                 "--out", str(tmp_path / "a.csv")])
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {csv}: ")
        assert not (tmp_path / "a.csv").exists()

    def test_unwritable_outputs_exit_1(self, tmp_path, capsys):
        run = tmp_path / "run"
        (run / "manifest.json").mkdir(parents=True)
        assert main(["simulate", "--alpha", "1.8", "--theta", "0.1",
                     *self.SMALL_RUN, "--out", str(run)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot write manifest {run / 'manifest.json'}")
        out = tmp_path / "missing" / "a.csv"
        assert main(["apply", "--alpha", "1.8", "--theta", "0.1",
                     "--input", str(run / "snapshots.csv"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write CSV {out}")

    def _exits_1(self, argv, capsys) -> str:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("flag,value", [
        ("--dt", "1e-310"), ("--t-final", "1e308"), ("--t-final", "1e16"),
    ])
    def test_step_budget_overrun_exits_1_before_stepping(
            self, tmp_path, capsys, monkeypatch, flag, value):
        # 1e-310 and 1e308 plan more steps than a float holds; 1e16 plans
        # 5e17, and the per-step check would stop it only after 1e7 steps
        steps = []
        monkeypatch.setattr(fracfront.stepping, "step_semi_implicit",
                            lambda *args: steps.append(1))
        err = self._exits_1(["simulate", "--alpha", "1.7", "--theta", "0.2",
                             flag, value, "--out", str(tmp_path / "run")], capsys)
        assert "MAX_STEPS" in err and steps == []
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("n", ["21", "1001"])
    def test_underflowing_step_count_takes_one_step(self, tmp_path, capsys, n):
        # 1e-300 / 1e300 underflows to a count of 0; the suite turns the
        # divide-by-zero warning that a count of 0 gave into an error
        out = tmp_path / "run"
        assert main(["simulate", "--alpha", "1.7", "--theta", "0.2",
                     "--t-final", "1e-300", "--dt", "1e300", "--snapshots", "2",
                     "--n", n, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["stats"]["steps"] == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--alpha", "1.7", "--theta", "0.2", "--b", "1e-300"],
        ["simulate", "--alpha", "1.7", "--theta", "0.2", "--b", "1e300", "--n", "5"],
        ["simulate", "--alpha", "2", "--theta", "0", "--b", "1e160", "--n", "21"],
        ["simulate", "--alpha", "1.7", "--theta", "0.2", "--b", "1e-120",
         "--n", "21"],
        ["simulate", "--alpha", "2", "--theta", "0", "--b", "1e308", "--n", "3"],
        ["simulate", "--alpha", "1.7", "--theta", "0.2", "--b", "1e-100",
         "--n", "1001"],
        ["sweep", "--alphas", "1.5,1.7", "--thetas", "0.2", "--a-list", "0.5",
         "--b", "1e-300"],
    ], ids=["tiny-b", "huge-b", "huge-b-alpha2", "tiny-b-n21", "huge-b-n3",
            "tiny-h", "sweep"])
    def test_unrepresentable_half_width_exits_2(self, tmp_path, capsys, argv):
        # the stencil's largest power, xi^(1+alpha) <= xi^3, must be a
        # finite, normal double at xi = b and xi = h
        out = tmp_path / "out"
        err = self._exits_2([*argv, "--out", str(out)], capsys)
        assert "--b: " in err and not out.exists()

    @pytest.mark.parametrize("stepper", ["semi-implicit", "rk-adaptive"])
    @pytest.mark.parametrize("b", ["1e-100", "5e102"])
    def test_extreme_admissible_half_width_runs(self, tmp_path, capsys, b,
                                                stepper):
        out = tmp_path / "run"
        argv = ["simulate", "--alpha", "1.7", "--theta", "0.2", "--b", b,
                "--n", "21", "--stepper", stepper, "--t-final", "1",
                "--out", str(out)]
        if (b, stepper) == ("1e-100", "semi-implicit"):
            # at h = 1e-101, 1 + dt*row_sum rounds the 1 away: the system
            # is singular to working precision, and u = 0.5 would end at 0
            err = self._exits_1(argv, capsys)
            assert err == ("error: I - dt*A is singular to working precision: "
                           "dt*row_sum = 1.43e+170\n")
            assert not out.exists()
            return
        assert main(argv) == 0
        assert capsys.readouterr().err == "" and _finite_outputs(out)

    def test_dense_singular_system_exits_1(self, tmp_path, capsys):
        # at h = 1e-51, I - dt*A has entries near 2e100 and no usable inverse
        err = self._exits_1(["simulate", "--alpha", "2", "--theta", "0",
                             "--b", "1e-50", "--n", "21",
                             "--out", str(tmp_path / "run")], capsys)
        assert err == ("error: I - dt*A is singular to working precision: "
                       "dt*row_sum = 4e+100\n")

    def test_nonfinite_kernel_exits_1(self, tmp_path, capsys):
        # |xi|^alpha overflows at window = 1e-300, and the kernel is NaN
        out = tmp_path / "g.csv"
        err = self._exits_1(["green", "--alpha", "1.5", "--theta", "0",
                             "--window", "1e-300", "--k-modes", "4",
                             "--out", str(out)], capsys)
        assert "is not finite" in err and not out.exists()

    def test_collapsed_schedule_names_t_final(self, tmp_path, capsys):
        out = tmp_path / "run"
        err = self._exits_2(["simulate", "--alpha", "1.7", "--theta", "0.2",
                             "--t-final", "5e-324", "--snapshots", "3",
                             "--out", str(out)], capsys)
        assert "--t-final: t_final = 5e-324 is too small for 3 distinct" in err
        assert not out.exists()

    @pytest.mark.parametrize("stepper", ["semi-implicit", "rk-adaptive"])
    def test_initial_state_past_divergence_bound_exits_1(
            self, tmp_path, capsys, monkeypatch, stepper):
        calls = []
        monkeypatch.setattr(fracfront.BistableCubic, "f",
                            lambda self, u: calls.append(1))
        out = tmp_path / "run"
        err = self._exits_1(["simulate", "--alpha", "1.7", "--theta", "0.2",
                             "--ic", "step", "--step-hi", "1e300", "--n", "21",
                             "--t-final", "1", "--stepper", stepper,
                             "--out", str(out)], capsys)
        assert err == "error: |u| reached 1e+300\n"
        assert calls == [] and not out.exists()

    def test_overflowing_trial_steps_are_rejected(self, tmp_path, capsys):
        # from u = 1000 the first trial stages of rk-adaptive overflow; the
        # controller rejects them and shrinks the step, with no warning
        out = tmp_path / "run"
        assert main(["simulate", "--alpha", "1.7", "--theta", "0.2", "--ic", "step",
                     "--step-hi", "1000", "--n", "21", "--t-final", "1",
                     "--stepper", "rk-adaptive", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "" and _finite_outputs(out)
        stats = json.loads((out / "manifest.json").read_text())["stats"]
        assert stats["rejected_steps"] > 0

    HUGE_STEP = ["--dt", "1e300", "--t-final", "1e300", "--snapshots", "2"]
    STEP_START = ["--ic", "step", "--step-hi", "1e6"]

    # each would overflow in numpy (the dense inverse's setup, the explicit
    # reaction, the Toeplitz solve's FFTs, the Toeplitz row); at dt = 1e300
    # the singular-system rule rejects each first, with no numpy warning
    @pytest.mark.parametrize("argv,message", [
        (["--n", "21", "--b", "1e-100"], "inf"),
        (STEP_START, "1.11e+301"),
        ([*STEP_START, "--n", "1201"], "2.8e+302"),
        (["--n", "1201", "--b", "1e-90"], "inf"),
    ], ids=["dense-inverse", "reaction", "toeplitz-solve", "toeplitz-row"])
    def test_overflowing_step_exits_1_without_warnings(self, tmp_path, capsys,
                                                       argv, message):
        out = tmp_path / "run"
        err = self._exits_1(["simulate", "--alpha", "1.7", "--theta", "0.2",
                             *argv, *self.HUGE_STEP, "--out", str(out)], capsys)
        assert err == ("error: I - dt*A is singular to working precision: "
                       f"dt*row_sum = {message}\n")

    def test_overflowing_sweep_workers_print_no_warnings(self, tmp_path, capfd,
                                                         monkeypatch):
        _cpus(monkeypatch, 2)
        assert main(["sweep", "--alphas", "1.7,1.5", "--thetas", "0.2",
                     "--a-list", "0.5", "--n", "1201", *self.STEP_START,
                     *self.HUGE_STEP, "--out", str(tmp_path / "runs")]) == 1
        assert capfd.readouterr().err == (
            "error: I - dt*A is singular to working precision: "
            "dt*row_sum = 2.8e+302\n")

    def test_overflowing_apply_exits_1_without_warnings(self, tmp_path, capsys):
        grid = Grid1D(10.0, 21)
        path = tmp_path / "huge.csv"
        _write_snapshots(path, grid, [0.0], [np.where(grid.x > 0, 1.7e308, 0.0)])
        err = self._exits_1(["apply", "--alpha", "1.5", "--theta", "0.3",
                             "--input", str(path),
                             "--out", str(tmp_path / "a.csv")], capsys)
        assert err == "error: operator output contains NaN or Inf\n"

    @pytest.mark.parametrize("height", [1e300, 1.7e308])
    def test_speed_of_a_huge_front_prints_no_warnings(self, tmp_path, capsys,
                                                      height):
        # the front's products overflow in front_position, and at 1.7e308
        # the sum of two whole-cell residuals in the shift-matching bound
        grid = Grid1D(10.0, 21)
        _write_snapshots(tmp_path / "snapshots.csv", grid, np.arange(8.0),
                         [height * np.clip((grid.x - 0.5 * t) / 4 + 0.5, 0, 1)
                          for t in range(8)])
        (tmp_path / "manifest.json").write_text('{"config": {"a": 0.5}}')
        assert main(["speed", "--run", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert np.isfinite(json.loads(captured.out)["speed"])

    # 10**15 elements of 8 bytes are far past the 128 TiB user address space
    # of x86-64, so the allocation fails at once; no test here may use a
    # size that fits in memory
    @pytest.mark.parametrize("argv", [
        ["green", "--alpha", "1.5", "--theta", "0", "--k-modes", str(10 ** 15)],
        ["simulate", "--alpha", "1.5", "--theta", "0", "--n", str(10 ** 15 + 1)],
        ["simulate", "--alpha", "1.5", "--theta", "0",
         "--snapshots", str(10 ** 15)],
        ["sweep", "--alphas", "1.5", "--thetas=-0.1,0.1", "--a-list", "0.5",
         "--n", str(10 ** 15 + 1)],
    ], ids=["green-k-modes", "simulate-n", "simulate-snapshots", "sweep-n"])
    def test_unallocatable_count_exits_1(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        self._exits_1([*argv, "--out", str(out)], capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["green", "--alpha", "1.5", "--theta", "0"], "--k-modes"),
        (["simulate", "--alpha", "1.5", "--theta", "0"], "--n"),
        (["simulate", "--alpha", "1.5", "--theta", "0"], "--snapshots"),
        (["sweep", "--alphas", "1.5", "--thetas=-0.1,0.1", "--a-list", "0.5"],
         "--n"),
    ], ids=["green-k-modes", "simulate-n", "simulate-snapshots", "sweep-n"])
    def test_count_beyond_numpy_arrays_exits_2(self, tmp_path, capsys, argv,
                                               flag):
        # numpy sizes no complex128 array past intp max // 16, about 5.8e17
        out = tmp_path / "out"
        err = self._exits_2([*argv, f"{flag}={10 ** 18 + 1}", "--out", str(out)],
                            capsys)
        assert f"{flag}: " in err and "must be at most" in err
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["apply", "speed", "config"])
    def test_undecodable_input_exits_1(self, tmp_path, capsys, entry):
        bad = tmp_path / ("run.cfg" if entry == "config" else "snapshots.csv")
        bad.write_bytes(b"x,u@t=0\n-1,\xff\xfe\n")   # not UTF-8
        (tmp_path / "manifest.json").write_text('{"config": {"a": 0.5}}')
        argv = {"apply": ["apply", "--alpha", "1.8", "--theta", "0.1",
                          "--input", str(bad), "--out", str(tmp_path / "a.csv")],
                "speed": ["speed", "--run", str(tmp_path)],
                "config": ["simulate", "--config", str(bad),
                           "--out", str(tmp_path / "run")]}[entry]
        assert self._exits_1(argv, capsys).startswith(f"error: {bad}: ")
        assert not (tmp_path / "a.csv").exists()
        assert not (tmp_path / "run").exists()

    def test_sweep_validates_every_configuration_before_writing(
            self, tmp_path, capsys):
        # theta = 0.9 is outside min(alpha, 2 - alpha) = 0.5; theta = 0 is fine
        err = self._exits_2(["sweep", "--alphas", "1.5", "--thetas", "0,0.9",
                             "--a-list", "0.5", *self.SMALL_RUN,
                             "--out", str(tmp_path / "sw")], capsys)
        assert "--thetas:" in err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("lists,flag", [
        (["--alphas", "1.5", "--thetas=0.1000001,0.1000002", "--a-list", "0.5"],
         "--thetas"),
        (["--alphas", "1.5", "--thetas", "0", "--a-list", "0.4,0.5,0.4"],
         "--a-list"),
    ], ids=["rounded-twins", "repeated-value"])
    def test_sweep_colliding_directory_labels_exit_2(self, tmp_path, capsys,
                                                     lists, flag):
        # directories are labelled with :g; two values with one label would
        # write one directory twice
        err = self._exits_2(["sweep", *lists, *self.SMALL_RUN,
                             "--out", str(tmp_path / "sw")], capsys)
        assert f"{flag}:" in err and "two would share one" in err
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
}
_BASE_VALUES = {"alpha": "1.5", "theta": "0", "n": "21", "b": "5",
                "t_final": "0.1", "dt": "0.05", "snapshots": "2"}


def _record_pid(monkeypatch):
    """Make every run record the pid of the process it ran in."""
    def run(configs):
        for result, diag in run_simulations(configs):
            yield result, {**diag, "pid": os.getpid()}
    # workers are forked, so they inherit the patched module attribute
    monkeypatch.setattr("fracfront.cli.run_simulations", run)


def _cpus(monkeypatch, count):
    """Let this process run on ``count`` CPUs, whatever the host has."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


class TestParallelSweep:
    """A sweep of two or more (alpha, theta) groups runs them in forked
    workers; the outputs and the printed lines are those of a serial run."""

    THETAS, A_LIST = ("-0.1", "0.1"), ("0.4", "0.6")
    FLAGS = ["--b", "10", "--t-final", "0.5", "--dt", "0.05", "--snapshots", "6"]
    TIMING = ("wall_time_s", "solver_setup_s")

    def _sweep(self, out, n=1001):
        return main(["sweep", "--alphas", "1.5",
                     f"--thetas={','.join(self.THETAS)}",
                     "--a-list", ",".join(self.A_LIST), "--n", str(n),
                     *self.FLAGS, "--out", str(out)])

    def _labels(self):
        return [f"alpha1.5_theta{theta}_a{a}"
                for theta in self.THETAS for a in self.A_LIST]

    def _manifest(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        for key in self.TIMING:
            del manifest["stats"][key]
        return manifest

    def test_groups_run_in_workers_as_lone_runs_would(self, tmp_path, capsys,
                                                      monkeypatch):
        _cpus(monkeypatch, 2)
        _record_pid(monkeypatch)
        out = tmp_path / "sw"
        assert self._sweep(out) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [line for line in lines if line.startswith("wrote ")]
        assert [line.split()[1] for line in lines] == [
            f"{out / label}/snapshots.csv" for label in self._labels()]
        swept = tmp_path / "swept"
        out.rename(swept)
        pids = set()
        for theta, a in itertools.product(self.THETAS, self.A_LIST):
            label = f"alpha1.5_theta{theta}_a{a}"
            assert main(["simulate", "--alpha", "1.5", f"--theta={theta}",
                         "--a", a, "--n", "1001", *self.FLAGS,
                         "--out", str(out / label)]) == 0
            assert ((swept / label / "snapshots.csv").read_bytes()
                    == (out / label / "snapshots.csv").read_bytes())
            parallel, alone = self._manifest(swept / label), self._manifest(out / label)
            pids.add(parallel["diagnostics"].pop("pid"))
            assert alone["diagnostics"].pop("pid") == os.getpid()
            assert parallel == alone
        assert os.getpid() not in pids
        capsys.readouterr()

    @pytest.mark.parametrize("n,cpus", [(61, None), (1001, 1)])
    def test_small_grids_and_one_cpu_run_in_process(self, tmp_path, capsys,
                                                    monkeypatch, n, cpus):
        # a small grid forks on the host's CPUs as a large one does (when
        # there are two or more); one CPU runs in this process at any n
        _record_pid(monkeypatch)
        if cpus is not None:
            _cpus(monkeypatch, cpus)
        forked = len(os.sched_getaffinity(0)) > 1
        assert self._sweep(tmp_path, n) == 0
        pids = {json.loads((tmp_path / label / "manifest.json").read_text())
                ["diagnostics"]["pid"] for label in self._labels()}
        if forked:
            assert os.getpid() not in pids
        else:
            assert pids == {os.getpid()}
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_a_group_starts_once_any_worker_is_done(self, tmp_path, capsys,
                                                    monkeypatch):
        # three groups on two CPUs: the first waits for the third, which can
        # start only once the second is done, not once the first is
        marker = tmp_path / "third-started"

        def run(configs):
            if configs[0].theta == 0.3:
                marker.write_text("started\n")
            elif configs[0].theta == -0.1:
                deadline = time.monotonic() + 60
                while not marker.exists():
                    if time.monotonic() > deadline:
                        raise AssertionError("the third group never started")
                    time.sleep(0.01)
            yield from run_simulations(configs)

        _cpus(monkeypatch, 2)
        monkeypatch.setattr("fracfront.cli.run_simulations", run)
        assert main(["sweep", "--alphas", "1.5", "--thetas=-0.1,0.1,0.3",
                     "--a-list", "0.5", "--n", "21", *self.FLAGS,
                     "--out", str(tmp_path / "sw")]) == 0
        assert [line.split()[1] for line in capsys.readouterr().out.splitlines()] == [
            f"{tmp_path / 'sw'}/alpha1.5_theta{theta}_a0.5/snapshots.csv"
            for theta in ("-0.1", "0.1", "0.3")]


class TestGroupedSweep:
    """A sweep steps each (alpha, theta) group as one integration; each of
    its configurations writes what a lone ``simulate`` of it writes."""

    FLAGS = ["--n", "61", "--b", "10", "--t-final", "1", "--dt", "0.05",
             "--snapshots", "6"]

    @pytest.mark.parametrize("stepper,a_list", [
        ("semi-implicit", "0.3,0.45"), ("semi-implicit", "0.3,0.5,0.7"),
        ("rk-adaptive", "0.35,0.6"), ("rk-adaptive", "0.3,0.5,0.7")])
    def test_configurations_equal_lone_runs(self, tmp_path, capsys, stepper,
                                            a_list):
        flags = [*self.FLAGS, "--stepper", stepper]
        assert main(["sweep", "--alphas", "1.6", "--thetas=-0.2,0.1",
                     "--a-list", a_list, *flags, "--out", str(tmp_path / "sw")]) == 0
        swept = capsys.readouterr().out.splitlines()
        for i, (theta, a) in enumerate(itertools.product(("-0.2", "0.1"),
                                                         a_list.split(","))):
            label = f"alpha1.6_theta{theta}_a{a}"
            assert main(["simulate", "--alpha", "1.6", f"--theta={theta}",
                         "--a", a, *flags, "--out", str(tmp_path / label)]) == 0
            assert capsys.readouterr().out.replace(
                str(tmp_path), str(tmp_path / "sw")) == swept[i] + "\n"
            for name in ("snapshots.csv", "manifest.json"):
                group = (tmp_path / "sw" / label / name).read_text()
                alone = (tmp_path / label / name).read_text()
                if name == "manifest.json":   # all but the timings and out
                    group, alone = (re.sub(r'"(out|wall_time_s|solver_setup_s)": .*',
                                           "", text) for text in (group, alone))
                assert group == alone

    def test_a_group_differs_only_in_a(self):
        base = RunConfig(alpha=1.5, theta=0.0, n=21, b=5.0, t_final=0.1)
        with pytest.raises(ValueError, match="differ only in a and out"):
            next(run_simulations([base, dataclasses.replace(base, theta=0.1)]))
        runs = run_simulations([base, dataclasses.replace(base, a=0.3, out="x")])
        assert [result.nl.a for result, _ in runs] == [0.5, 0.3]

    @pytest.mark.parametrize("how", ["blocked-output", "diverged"])
    def test_middle_configuration_fails(self, tmp_path, capfd, monkeypatch, how):
        # in a group of three values of a, a = 0.5 fails: a = 0.4 is written,
        # a = 0.6 is not, and the exit is that of the serial sweep when forked
        if how == "diverged":   # a = 0.5 reacts without bound in the stack
            cubic = fracfront.BistableCubic.f
            monkeypatch.setattr(fracfront.BistableCubic, "f", lambda self, u: np.where(
                np.asarray(self.a) == 0.5, 1e9, cubic(self, u)))
        outcomes = []
        for cpus in (2, 1):
            out = tmp_path / f"cpus{cpus}"
            out.mkdir()
            if how == "blocked-output":
                for theta in ("-0.1", "0.1"):
                    (out / f"alpha1.5_theta{theta}_a0.5").write_text("a file\n")
            _cpus(monkeypatch, cpus)
            rc = main(["sweep", "--alphas", "1.5", "--thetas=-0.1,0.1",
                       "--a-list", "0.4,0.5,0.6", "--n", "1001",
                       *TestParallelSweep.FLAGS, "--out", str(out)])
            captured = capfd.readouterr()
            outcomes.append((rc, captured.out.replace(str(out), "OUT"),
                             captured.err.replace(str(out), "OUT")))
            assert (out / "alpha1.5_theta-0.1_a0.4" / "snapshots.csv").is_file()
            assert not (out / "alpha1.5_theta-0.1_a0.6").exists()
        parallel, serial = outcomes
        assert parallel == serial
        rc, stdout, stderr = serial
        assert rc == 1 and len(stdout.splitlines()) == 1
        assert stdout.startswith("wrote OUT/alpha1.5_theta-0.1_a0.4/snapshots.csv")
        assert stderr.startswith("error: ") and "Traceback" not in stderr


class TestParallelSweepErrors:
    """A worker's error exits as the serial sweep's does; a worker that dies
    exits 1 naming its (alpha, theta) group."""

    def _fail_one(self, how, tmp_path, monkeypatch):
        # the last configuration fails, after the three before it ran
        last = tmp_path / "alpha1.5_theta0.1_a0.6"
        if how == "blocked-output":
            last.write_text("a file where the run directory goes\n")
            return

        def run(configs):
            for config, outcome in zip(configs, run_simulations(configs)):
                if Path(config.out) == last:
                    raise FracfrontError("solution diverged (test)")
                yield outcome
        monkeypatch.setattr("fracfront.cli.run_simulations", run)

    @pytest.mark.parametrize("how", ["blocked-output", "diverged"])
    def test_worker_error_exits_as_serial(self, tmp_path, capfd, monkeypatch,
                                          how):
        sweep = TestParallelSweep()
        outcomes = []
        for cpus in (2, 1):
            out = tmp_path / f"cpus{cpus}"
            out.mkdir()
            self._fail_one(how, out, monkeypatch)
            _cpus(monkeypatch, cpus)
            rc = sweep._sweep(out)
            captured = capfd.readouterr()
            outcomes.append((rc, captured.out.replace(str(out), "OUT"),
                             captured.err.replace(str(out), "OUT")))
        parallel, serial = outcomes
        assert parallel == serial
        rc, out, err = parallel
        assert rc == 1 and len(out.splitlines()) == 3
        assert err.startswith("error: ") and "Traceback" not in err

    def test_dead_worker_exits_1_naming_its_group(self, tmp_path, capfd,
                                                  monkeypatch):
        caller = os.getpid()

        def die(configs):
            if os.getpid() == caller:   # never end the test process itself
                raise AssertionError("the sweep ran in the caller's process")
            os._exit(3)

        _cpus(monkeypatch, 2)
        monkeypatch.setattr("fracfront.cli.run_simulations", die)
        assert TestParallelSweep()._sweep(tmp_path) == 1
        captured = capfd.readouterr()
        assert captured.err.startswith(
            "error: sweep group alpha=1.5 theta=-0.1: a worker process ended")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("how", ["succeeds", "last-fails", "dies"])
    def test_no_child_is_left(self, tmp_path, capfd, monkeypatch, how):
        caller = os.getpid()
        if how == "last-fails":
            self._fail_one("diverged", tmp_path, monkeypatch)
        elif how == "dies":
            def die(configs):
                if os.getpid() == caller:
                    raise AssertionError("the sweep ran in the caller's process")
                os._exit(3)
            monkeypatch.setattr("fracfront.cli.run_simulations", die)
        _cpus(monkeypatch, 2)
        assert TestParallelSweep()._sweep(tmp_path) == (0 if how == "succeeds" else 1)
        capfd.readouterr()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts this process's descriptors in /proc")
    @pytest.mark.parametrize("failing", [1, 2], ids=["first-fork", "second-fork"])
    def test_failed_fork_closes_its_pipe(self, tmp_path, capfd, monkeypatch,
                                         failing):
        forks, real_fork = [], os.fork

        def fork():
            forks.append(None)
            if len(forks) == failing:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", fork)
        before = len(os.listdir("/proc/self/fd"))
        assert TestParallelSweep()._sweep(tmp_path, n=61) == 1
        assert capfd.readouterr().err.startswith("error: ")
        assert len(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):   # a child started is reaped
            os.waitpid(-1, os.WNOHANG)

    # raised at each group's first configuration, or at its second, once the
    # first is written: its line is printed before the exception propagates
    @pytest.mark.parametrize("cpus,written", [
        pytest.param(2, 0, id="2"), pytest.param(1, 0, id="1"),
        pytest.param(2, 1, id="2-second"), pytest.param(1, 1, id="1-second")])
    def test_uncaught_exception_reaches_the_caller(self, tmp_path, capfd,
                                                   monkeypatch, cpus, written):
        def divide(configs):
            outcomes = run_simulations(configs)
            for _ in range(written):
                yield next(outcomes)
            yield 1 / 0

        _cpus(monkeypatch, cpus)
        monkeypatch.setattr("fracfront.cli.run_simulations", divide)
        with pytest.raises(ZeroDivisionError):
            TestParallelSweep()._sweep(tmp_path)
        captured = capfd.readouterr()
        first = tmp_path / "alpha1.5_theta-0.1_a0.4"
        lines = [f"wrote {first}/snapshots.csv"][:written]
        assert [line.split(" and ")[0] for line in captured.out.splitlines()] == lines
        assert (first / "manifest.json").exists() == bool(written)
        assert "worker process" not in captured.err

    def test_an_outcome_larger_than_a_pipe_buffer_arrives_whole(
            self, tmp_path, capfd, monkeypatch):
        write = fracfront.cli._write
        monkeypatch.setattr("fracfront.cli._write",
                            lambda *args: write(*args) + "." * 200_000)
        _cpus(monkeypatch, 2)
        _record_pid(monkeypatch)
        assert main(["sweep", "--alphas", "1.5", "--thetas=-0.1,0.1",
                     "--a-list", "0.4", "--n", "61", *TestParallelSweep.FLAGS,
                     "--out", str(tmp_path)]) == 0
        lines = capfd.readouterr().out.splitlines()
        runs = [tmp_path / f"alpha1.5_theta{theta}_a0.4" for theta in ("-0.1", "0.1")]
        assert [line.split()[1] for line in lines] == [
            f"{run}/snapshots.csv" for run in runs]
        assert all(line.endswith(")" + "." * 200_000) for line in lines)
        pids = {json.loads((run / "manifest.json").read_text())["diagnostics"]["pid"]
                for run in runs}
        assert len(pids) == 2 and os.getpid() not in pids   # each group forked

    def test_out_of_range_error_pickles_with_its_param(self):
        exc = pickle.loads(pickle.dumps(OutOfRangeError("too large", "dt")))
        assert type(exc) is OutOfRangeError
        assert (str(exc), exc.param) == ("too large", "dt")


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

    def test_shared_flags_have_one_help_text(self, capsys):
        def entries(command):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = capsys.readouterr().out.split("options:")[1]
            # one entry per option; continuation lines are indented deeper
            blocks = re.split(r"\n(?=  -)", text)
            return {b.split()[0].rstrip(","): " ".join(b.split()) for b in blocks
                    if b.strip().startswith("-")}

        simulate = entries("simulate")
        for command, flags in (("apply", ("--alpha", "--theta",
                                          "--tail-correction")),
                               ("green", ("--alpha", "--theta"))):
            shown = entries(command)
            for flag in flags:
                assert shown[flag] == simulate[flag], (command, flag)

    def test_every_option_has_help(self):
        subs = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
        for command, sub in subs.choices.items():
            for action in sub._actions:
                assert action.help and action.help != argparse.SUPPRESS, (
                    command, action.option_strings)

    def test_green_defaults_are_the_library_defaults(self, tmp_path, capsys):
        defaults = inspect.signature(green_function).parameters
        spelled = ["--t", "1", "--window", str(defaults["window"].default),
                   "--k-modes", str(defaults["k_modes"].default)]
        for name, flags in (("implicit", []), ("spelled", spelled)):
            assert main(["green", "--alpha", "2", "--theta", "0", *flags,
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert ((tmp_path / "implicit.csv").read_bytes()
                == (tmp_path / "spelled.csv").read_bytes())

    def test_one_snapshot_with_positive_t_final_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--alpha", "1.5", "--theta", "0", "--n", "21",
                  "--b", "5", "--t-final", "0.1", "--snapshots", "1",
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "--snapshots:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def test_import_loads_no_scipy(tmp_path):
    """The library and its CLI run on numpy alone; a sweep that forks its
    groups loads no worker-pool module, and the CLI imports the invariant
    suite only for ``selftest``."""
    code = ("import os, sys, fracfront, fracfront.cli; "
            "os.sched_getaffinity = lambda pid: {0, 1}; "
            "fracfront.cli.main(['sweep', '--alphas', '1.5', '--thetas=-0.1,0.1', "
            "'--a-list', '0.5', '--n', '21', '--b', '10', '--t-final', '0.5', "
            f"'--out', {str(tmp_path)!r}]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'multiprocessing') or m.startswith('concurrent.futures') "
            "or m == 'fracfront.selftest'))")
    src = str(Path(fracfront.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert len(out) == 3 and out[0].startswith("wrote ")   # the sweep ran
    assert out[-1] == "[]"


@pytest.mark.parametrize("n,loaded", [(181, False), (1001, True)])
def test_dense_simulate_loads_no_fft(tmp_path, n, loaded):
    """At n <= DENSE_INVERSE_MAX_N the solver is built without a transform,
    so a default ``simulate`` never loads numpy's FFT; above it, it does."""
    code = ("import sys, fracfront.cli; "
            "fracfront.cli.main(['simulate', '--alpha', '1.5', '--theta', '0.2', "
            f"'--n', '{n}', '--t-final', '0.1', '--out', {str(tmp_path)!r}]); "
            "print('numpy.fft' in sys.modules)")
    src = str(Path(fracfront.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0].startswith("wrote ") and out[-1] == str(loaded)


def test_no_lapack_in_the_package():
    """No module calls LAPACK: its results would depend on the BLAS thread
    count, and a dense inverse by ``np.linalg.inv`` would skip the solver."""
    package = Path(fracfront.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        assert "np.linalg" not in text and "numpy.linalg" not in text, path.name


def test_selftest_reports_failing_and_raising_groups(capsys, monkeypatch):
    """``selftest`` prints FAIL for a group that fails or raises, still runs
    the groups after it, and exits 1."""
    from fracfront import selftest

    def raising():
        raise ValueError("no lattice")

    monkeypatch.setattr(selftest, "GROUPS", (
        ("passing", lambda: (True, "fine")),
        ("failing", lambda: (False, "detail")),
        ("raising", raising),
        ("last", lambda: (True, "still runs"))))
    assert main(["selftest"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS passing: fine", "FAIL failing: detail",
        "FAIL raising: raised ValueError: no lattice", "PASS last: still runs"]


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
}
_INT_FLAGS = ("--n", "--snapshots")


def _rejected_values(flag):
    if flag in _INT_FLAGS:
        return _REJECTED[flag].map(str) | _NOT_INT | _NONFINITE.map(str)
    return (_REJECTED[flag] | _NONFINITE).map(repr) | _NOT_FLOAT


# sweep's list flags: the single-value flag of their elements, and an
# admissible list
_ELEMENT_FLAG = {"--alphas": "--alpha", "--thetas": "--theta", "--a-list": "--a"}
_SWEEP_LISTS = {"--alphas": "1.5", "--thetas": "0", "--a-list": "0.5"}
_SWEEP_RUN = ["sweep", *TestExitCodes.SMALL_RUN,
              *(f"{flag}={value}" for flag, value in _SWEEP_LISTS.items())]


def _exits_2_naming(argv, flag):
    """Run ``argv`` with a fresh ``--out``: it must exit 2 naming ``flag``
    before it writes anything."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert not out.exists()
    assert exc.value.code == 2
    assert f"{flag}:" in err.getvalue()


class TestRunFlagProperty:
    @pytest.mark.parametrize("flag", sorted(_REJECTED))
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rejected_value_exits_2_naming_flag(self, flag, data):
        value = data.draw(_rejected_values(flag), label=flag)
        _exits_2_naming(["simulate", *TestExitCodes.SMALL_RUN, "--alpha", "1.5",
                         "--theta", "0", f"{flag}={value}"], flag)

    @pytest.mark.parametrize("flag", sorted(set(_REJECTED)
                                            - set(_ELEMENT_FLAG.values())))
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_sweep_rejected_value_exits_2_naming_flag(self, flag, data):
        value = data.draw(_rejected_values(flag), label=flag)
        _exits_2_naming([*_SWEEP_RUN, f"{flag}={value}"], flag)

    @pytest.mark.parametrize("flag", sorted(_SWEEP_LISTS))
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_sweep_rejected_element_exits_2_naming_list(self, flag, data):
        # the rejected element follows an admissible one; a text that
        # float_list parses could be a whole admissible list ("1.5,2")
        value = data.draw((_REJECTED[_ELEMENT_FLAG[flag]] | _NONFINITE).map(repr)
                          | _TEXT.filter(_unparsable_by(float_list)), label=flag)
        _exits_2_naming([*_SWEEP_RUN, f"{flag}={_SWEEP_LISTS[flag]},{value}"],
                        flag)


# positive magnitudes from 1e-300 to 1e300: hypothesis's own floats, which
# favour simple and boundary values, and a log-uniform spread of exponents
_MAGNITUDES = (st.floats(min_value=1e-300, max_value=1e300)
               | st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
                           st.floats(1.0, 9.99), st.integers(-300, 299)))
_SIGNED_MAGNITUDES = st.builds(lambda value, sign: sign * value, _MAGNITUDES,
                               st.sampled_from([1.0, -1.0]))
# "--input" and "--run" draw the values of the profile that apply and speed read
_EXTREME_FLAGS = ("--b", "--step-lo", "--step-hi", "--t-final", "--window", "--t",
                  "--input", "--run")
_PROFILE_B = 5.0   # the half-width of the profiles apply and speed read
_PARAMS = st.sampled_from([("1.7", "0.2"), ("2", "0"), ("1.5", "0.5")])
_TAIL = st.sampled_from(["--tail-correction", "--no-tail-correction"])


def _tiny_simulate(draw) -> list:
    """A tiny simulate run (n <= 21) at drawn parameters, writing to ``run``."""
    alpha, theta = draw(_PARAMS, label="params")
    n = draw(st.sampled_from([5, 21]), label="n")
    return ["simulate", "--alpha", alpha, "--theta", theta, "--n", str(n),
            "--b", "5", "--t-final", "0.1", "--dt", "0.05", "--snapshots", "3",
            draw(_TAIL, label="tail"), "--out", "run"]


@st.composite
def _extreme_cases(draw):
    """A tiny CLI run (n <= 21) with one flag at an extreme magnitude, or on
    a profile of extreme values.

    Returns ``(argv, snapshots)``: the times and the snapshots (k, n) on
    ``Grid1D(5, n)`` that the run reads, or None when it reads none.  Paths
    are relative.
    """
    flag = draw(st.sampled_from(_EXTREME_FLAGS), label="flag")
    if flag in ("--window", "--t"):
        alpha, theta = draw(_PARAMS, label="params")
        return ["green", "--alpha", alpha, "--theta", theta, "--k-modes", "64",
                f"{flag}={draw(_MAGNITUDES, label='value')!r}",
                "--out", "kernel.csv"], None
    if flag in ("--input", "--run"):
        alpha, theta = draw(_PARAMS, label="params")
        n = draw(st.sampled_from([5, 21]), label="n")
        # at --fit-window 1, speed fits all 4 to 8 snapshots
        count = 1 if flag == "--input" else draw(st.integers(4, 8), label="snapshots")
        states = np.reshape(draw(st.lists(_SIGNED_MAGNITUDES, min_size=count * n,
                                          max_size=count * n), label="values"),
                            (count, n))
        if flag == "--run":   # increasing times, as every run writes them
            times = sorted(draw(st.lists(_MAGNITUDES, min_size=count,
                                         max_size=count, unique=True),
                                label="times"))
            return ["speed", "--run", "run", "--fit-window", "1"], (times, states)
        mode = draw(st.sampled_from(["projection", "freespace"]), label="mode")
        return ["apply", "--alpha", alpha, "--theta", theta,
                draw(_TAIL, label="tail"), "--mode", mode,
                "--input", "profile.csv", "--out", "applied.csv"], ([0.0], states)
    argv = _tiny_simulate(draw)
    if flag != "--t-final":   # rk-adaptive keeps t_final = 0.1
        argv += ["--stepper", draw(st.sampled_from(["semi-implicit",
                                                    "rk-adaptive"]),
                                   label="stepper")]
    value = draw(_MAGNITUDES, label="value")
    if flag.startswith("--step-"):
        argv += ["--ic", "step"]
        value *= draw(st.sampled_from([1.0, -1.0]), label="sign")
    return [*argv, f"{flag}={value!r}"], None


@st.composite
def _extreme_steps(draw):
    """A tiny semi-implicit run with --t-final and --dt both at extreme
    magnitudes, as ``(argv, None)``."""
    return [*_tiny_simulate(draw),
            f"--t-final={draw(_MAGNITUDES, label='t_final')!r}",
            f"--dt={draw(_MAGNITUDES, label='dt')!r}"], None


def _finite_outputs(out: Path) -> bool:
    """Whether every number in the CSV files and manifest under ``out`` is finite."""
    values = []
    for path in out.rglob("*.csv"):
        header, *rows = path.read_text().splitlines()
        values += [float(h.split("=", 1)[1]) for h in header.split(",") if "=" in h]
        values += [float(v) for row in rows for v in row.split(",")]
    for path in out.rglob("manifest.json"):
        json.loads(path.read_text(),   # NaN, Infinity and -Infinity
                   parse_constant=lambda text: values.append(float(text)))
    return bool(np.all(np.isfinite(np.array(values, dtype=float))))


class TestExtremeMagnitudeProperty:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=_extreme_cases())
    def test_exits_0_1_or_2_and_writes_only_finite_values(self, case):
        self._check(case)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(case=_extreme_steps())
    # the Toeplitz solver's setup and solve at a huge step
    @example(case=(["simulate", "--alpha", "1.7", "--theta", "0.2", "--n", "1201",
                    "--ic", "step", "--step-hi", "1e6", "--snapshots", "2",
                    "--dt=1e+300", "--t-final=1e+300", "--out", "run"], None))
    @example(case=(["simulate", "--alpha", "1.7", "--theta", "0.2", "--n", "1201",
                    "--b=1e-90", "--dt=1e+300", "--t-final=1e+300", "--out", "run"],
                   None))
    def test_joint_step_and_end_time_exit_0_1_or_2(self, case):
        self._check(case)

    @staticmethod
    def _check(case):
        # a lowered step budget ends every draw within a second: a tiny b makes
        # the operator stiff, and rk-adaptive has no up-front budget
        argv, snapshots = case
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(fracfront.stepping, "MAX_STEPS", 2000)
            mp.chdir(tmp)
            if argv[0] == "speed":
                Path("run").mkdir()
                Path("run/manifest.json").write_text('{"config": {"a": 0.5}}')
            if snapshots is not None:
                times, states = snapshots
                _write_snapshots("run/snapshots.csv" if argv[0] == "speed"
                                 else "profile.csv",
                                 Grid1D(_PROFILE_B, states.shape[1]), times, states)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = main(argv)
                except SystemExit as exc:   # argparse's exit 2
                    rc = exc.code
            finite = _finite_outputs(Path(tmp))
        err = stderr.getvalue()
        assert rc in (0, 1, 2) and "Traceback" not in err
        if rc == 0:
            assert err == "" and finite
            if argv[0] == "speed":   # it prints its numbers as JSON
                json.loads(stdout.getvalue(), parse_constant=_reject_nonfinite)
        else:
            assert err.splitlines()[-1].count("error: ") == 1
            assert rc == 2 or err.count("\n") == 1


def _reject_nonfinite(text):
    raise AssertionError(f"speed printed {text}")
