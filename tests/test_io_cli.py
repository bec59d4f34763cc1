import json

import numpy as np
import pytest

from fracfront import (
    OutOfRangeError,
    RunConfig,
    estimate_speed,
    read_config_file,
    read_profile_csv,
    result_from_csv,
    run_simulation,
    write_manifest,
    write_snapshot_csv,
)
from fracfront.cli import main

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
        from fracfront import BistableCubic, Grid1D, SimulationResult, StepperConfig
        grid = Grid1D(1.0, 3)
        result = SimulationResult(
            times=np.array([0.0, 1.0]),
            states=np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
            grid=grid, params=None, nl=BistableCubic(0.5),
            stepper=StepperConfig(), stats={})
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
        # header times carry 6 significant digits by contract
        assert np.allclose(times, result.times, rtol=1e-5, atol=1e-12)

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
