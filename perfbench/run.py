"""fracfront benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cli-default --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is run from ``src`` as the
Tier-1 tests run it (``PYTHONPATH=src``).  With ``--trace 0`` the run times
the workload's CLI calls and prints the end-to-end metrics; with
``--trace 1`` it calls each layer's public function under spans and prints
the per-layer metrics.  Every configuration is checked against
``reference.json`` outside the timed region.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment, the
drawn configurations and a metric table.  The full record, spans included,
is written to ``.perfbench_out/``.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import (FIXED_FLAGS, MIN_CALLS, SUBPROCESS_PER_CALL, WORKLOADS,
                       config_key, draw_call, simulate_argv, sweep_argv)

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEADLINE_S = 170.0        # the whole run, set-up probes included
SETUP_PROBES = 5          # fresh interpreters timed per run for setup_s
MAX_CALLS = 400           # calls drawn up front; --seconds ends the run first
# correctness gate, against the reference results of reference.json
SPEED_REL, SPEED_ABS = 0.02, 2e-3    # the tolerance of acceptance test 06
DECAY_REL = 0.02
BOUNDS_ABS = 1e-8
# trace coverage: summed over all calls and rounds, the traced layer spans
# may fall short of the untraced calls' wall time by at most this share of
# it.  Single calls on two shared cores vary by 10-30%, so a phase the traced
# sequence misses is caught once it costs a fifth of a call.
COVERAGE_SLACK = 0.2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "GOTO_NUM_THREADS")

# metric names and units, by --trace value
BENCHMARK = HERE.parent / "BENCHMARK.json"
METRIC_LISTS = ("end_to_end", "per_layer")
# span name -> per-layer metric holding the median of its durations
SPAN_METRICS = {
    "operators.assemble": "operators.assemble_s",
    "operators.factorize": "operators.factorize_s",
    "operators.apply": "operators.apply_s",
    "stepping.integrate": "stepping.integrate_s",
    "diagnostics.speed": "diagnostics.speed_s",
    "diagnostics.decay": "diagnostics.decay_s",
    "runio.csv_write": "runio.csv_write_s",
    "runio.manifest_write": "runio.manifest_write_s",
    "runio.csv_read": "runio.csv_read_s",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Runner:
    """Starts the program's processes from one checkout, within a deadline."""

    def __init__(self, root: Path):
        self.root = root
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:g} s")
        return left

    def child(self, mode: str, request: dict) -> dict:
        """Run child.py in a fresh interpreter and return its JSON reply."""
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode],
                input=json.dumps(request), capture_output=True, text=True,
                cwd=self.root, env=self.env, timeout=self._timeout())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {mode} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"child {mode} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def setup_probe(self, config: dict) -> tuple[float, dict]:
        """Wall seconds from starting an interpreter to a factorized operator."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "setup"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, cwd=self.root, env=self.env)
        try:
            proc.stdin.write(json.dumps({"config": config}))
            proc.stdin.close()
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.wait(timeout=self._timeout())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.stderr.close()
        if proc.returncode != 0 or not line:
            raise BenchError(f"setup probe exited {proc.returncode}:\n"
                             f"{stderr[-2000:]}")
        return wall, json.loads(line)

    def cli_process(self, argv: list[str]) -> tuple[float, int, float]:
        """One ``python -m fracfront`` call: (wall s, exit code, peak MiB).

        A call still running at the deadline is killed, and the run fails.
        """
        limit = self._timeout()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fracfront", *argv], cwd=self.root,
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        killer = threading.Timer(limit, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._timeout()
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# workload plan and correctness gate
# ---------------------------------------------------------------------------

def plan_calls(workload: str, seed: int, count: int, work: Path) -> list[dict]:
    """The CLI calls of a run: argv plus each configuration's output dir."""
    fixed = {k.replace("-", "_"): v for k, v in FIXED_FLAGS[workload].items()}
    calls = []
    for index in range(count):
        base = work / f"call{index}"
        configs = draw_call(workload, seed, index)
        if workload == "sweep-fine":
            argv = sweep_argv(workload, configs, str(base))
            # the sweep writes one subdirectory per combination, named so
            outs = [base / f"alpha{c['alpha']:g}_theta{c['theta']:g}_a{c['a']:g}"
                    for c in configs]
        else:
            argv = simulate_argv(workload, configs[0], str(base))
            outs = [base]
        calls.append({"argv": argv, "configs": [
            {"id": f"call{index}/{config_key(**c)}", "key": config_key(**c),
             "values": {**c, **fixed}, "out": str(out)}
            for c, out in zip(configs, outs)]})
    return calls


def check_output(workload: str, config: dict, reference: dict, runio) -> str:
    """Why a configuration's outputs fail the gate, or '' when they pass."""
    out = Path(config["out"])
    csv, manifest_path = out / "snapshots.csv", out / "manifest.json"
    for path in (csv, manifest_path):
        if not path.is_file():
            return f"missing {path.name}"
    n, snapshots = FIXED_FLAGS[workload]["n"], FIXED_FLAGS[workload]["snapshots"]
    try:
        x, times, states = runio.read_profile_csv(csv)
        manifest = json.loads(manifest_path.read_text())
        diag, stats = manifest["diagnostics"], manifest["stats"]
        got = {"speed": diag["speed"], "decay_rate": diag["decay_rate"],
               "u_min": stats["u_min"], "u_max": stats["u_max"]}
    except (ValueError, KeyError, TypeError, runio.FracfrontError) as exc:
        return f"unreadable output: {exc!r}"
    if x.shape != (n,) or times.shape != (snapshots,) or states.shape != (snapshots, n):
        return f"CSV shape {states.shape}, expected {(snapshots, n)}"
    ref = reference[workload][config["key"]]
    for name, rel, abs_tol in (("speed", SPEED_REL, SPEED_ABS),
                               ("decay_rate", DECAY_REL, 0.0),
                               ("u_min", 0.0, BOUNDS_ABS),
                               ("u_max", 0.0, BOUNDS_ABS)):
        want, have = ref[name], got[name]
        if want is None or have is None:
            if want is not have:
                return f"{name} {have}, reference {want}"
        elif abs(have - want) > max(rel * abs(want), abs_tol):
            return f"{name} {have!r}, reference {want!r}"
    return ""


def gate(runner: Runner, workload: str, configs: list[dict],
         codes: list) -> list[str]:
    """Gate each configuration; returns one failure reason ('' = pass) each."""
    sys.path.insert(0, str(runner.root / "src"))
    from fracfront import runio
    reference = json.loads(REFERENCE.read_text())
    return [f"exit code {code!r}" if code != 0
            else check_output(workload, config, reference, runio)
            for config, code in zip(configs, codes)]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def timed_run(runner: Runner, workload: str, seed: int, seconds: float,
              work: Path) -> dict:
    calls = plan_calls(workload, seed, MAX_CALLS, work)
    setup = [runner.setup_probe(calls[0]["configs"][0]["values"])[0]
             for _ in range(SETUP_PROBES)]
    if SUBPROCESS_PER_CALL[workload]:
        samples, peaks = [], []
        t_start = time.perf_counter()
        for call in calls:
            if (len(samples) >= MIN_CALLS[workload]
                    and time.perf_counter() - t_start >= seconds):
                break
            wall, code, peak = runner.cli_process(call["argv"])
            samples.append({"wall_s": wall, "code": code})
            peaks.append(peak)
        peak_rss = max(peaks)
    else:
        reply = runner.child("calls", {
            "calls": calls, "seconds": seconds,
            "min_calls": MIN_CALLS[workload]})
        samples, peak_rss = reply["calls"], reply["peak_rss_mb"]
    calls = calls[:len(samples)]
    configs = [c for call in calls for c in call["configs"]]
    codes = [s["code"] for call, s in zip(calls, samples)
             for _ in call["configs"]]
    reasons = gate(runner, workload, configs, codes)
    per_config = [s["wall_s"] / len(call["configs"])
                  for call, s in zip(calls, samples)]
    metrics = {"run_s": statistics.median(per_config),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": peak_rss}
    return {"metrics": metrics, "configs": configs, "reasons": reasons,
            "samples": {"run_s": per_config, "setup_s": setup}}


def _durations(spans: list[dict]) -> list[float]:
    return [s["end"] - s["start"] for s in spans]


def traced_run(runner: Runner, workload: str, seed: int, seconds: float,
               work: Path) -> dict:
    calls = plan_calls(workload, seed, MIN_CALLS[workload], work / "cli")
    probes = [runner.setup_probe(calls[0]["configs"][0]["values"])[1]
              for _ in range(SETUP_PROBES)]
    reply = runner.child("trace", {"calls": calls, "seconds": seconds,
                                   "out": str(work / "traced")})
    spans = reply["spans"]
    child_s = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    for span, inner in zip(spans, child_s):
        span["self_s"] = span["end"] - span["start"] - inner

    # the untraced calls of the last round wrote the outputs that are gated
    configs = [c for call in calls for c in call["configs"]]
    last = reply["untraced"][-len(calls):]
    codes = [u["code"] for call, u in zip(calls, last) for _ in call["configs"]]
    reasons = gate(runner, workload, configs, codes)

    # untraced wall of each CLI call vs the traced spans of its layers
    coverage = []
    for u in reply["untraced"]:
        call = calls[u["call"]]
        ids = {f"{c['id']}/round{u['round']}" for c in call["configs"]}
        roots = {i for i, s in enumerate(spans)
                 if s["name"] == "cli.config" and s["config"] in ids}
        coverage.append({**u, "configs": len(call["configs"]),
                         "covered_s": sum(_durations(
                             [s for s in spans if s["parent"] in roots])),
                         "traced_s": sum(_durations([spans[i] for i in roots]))})
    shares = [sum(c["covered_s"] for c in coverage if c["call"] == index)
              / sum(c["wall_s"] for c in coverage if c["call"] == index)
              for index in range(len(calls))]
    covered_share = (sum(c["covered_s"] for c in coverage)
                     / sum(c["wall_s"] for c in coverage))
    if covered_share < 1 - COVERAGE_SLACK:
        reasons = [r or (f"traced layers cover {covered_share:.3f} of the "
                         "untraced calls: the CLI runs a phase the traced "
                         "sequence does not call") for r in reasons]

    # traced outputs must equal the CLI's, byte for byte
    for i, config in enumerate(configs):
        traced_csv = work / "traced" / "round0" / config["id"] / "snapshots.csv"
        cli_csv = Path(config["out"]) / "snapshots.csv"
        if not reasons[i] and traced_csv.read_bytes() != cli_csv.read_bytes():
            reasons[i] = "traced CSV differs from the CLI's"

    counts = list(reply["counts"].values())
    steps = sum(c["steps"] for c in counts)
    rejected = sum(c["rejected_steps"] for c in counts)
    integrate = [s for s in spans if s["name"] == "stepping.integrate"]
    metrics = {
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "operators.dense_mb": statistics.mean(
            c["dense_bytes"] for c in counts) / 2 ** 20,
        "stepping.step_s": statistics.median(
            d / (c["steps"] + c["rejected_steps"])
            for d, c in zip(_durations(integrate), counts)),
        "stepping.steps": steps / len(counts),
        "stepping.rejected_steps": rejected / len(counts),
        "stepping.accept_ratio": steps / (steps + rejected),
        "runio.csv_bytes": statistics.mean(c["csv_bytes"] for c in counts),
        "trace.overhead_s": statistics.median(
            (c["traced_s"] - c["wall_s"]) / c["configs"] for c in coverage),
    }
    for name, metric in SPAN_METRICS.items():
        durations = _durations([s for s in spans if s["name"] == name])
        metrics[metric] = statistics.median(durations) if durations else 0.0
    metrics["failed_share"] = sum(map(bool, reasons)) / len(reasons)
    return {"metrics": metrics, "configs": configs, "reasons": reasons,
            "samples": {"setup_probes": probes, "coverage": coverage,
                        "covered_share": covered_share,
                        "call_covered_share": shares,
                        "rounds": reply["rounds"]},
            "spans": spans}


# ---------------------------------------------------------------------------
# environment record and report
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _blas_version(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy),
        "scipy_blas": _blas_version(scipy),
        # BLAS threads are left at the library default (at most nproc)
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def report(args, env: dict, run: dict, wall: float) -> dict:
    attempted = len(run["configs"])
    failed = sum(1 for r in run["reasons"] if r)
    metrics = run["metrics"]
    units = {m["name"]: m["unit"] for m in json.loads(
        BENCHMARK.read_text())[METRIC_LISTS[args.trace]]}
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} wall={wall:.1f}s")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# configs " + json.dumps([c["id"] for c in run["configs"]]))
    for config, reason in zip(run["configs"], run["reasons"]):
        if reason:
            print(f"# FAILED {config['id']}: {reason}")
    for name, samples in run["samples"].items():
        if name in ("run_s", "setup_s"):
            print(f"# {name}: median of {len(samples)} samples, "
                  f"min {min(samples):.4f} max {max(samples):.4f}")
    if args.trace:
        samples = run["samples"]
        print(f"# trace coverage: layers cover {samples['covered_share']:.3f} "
              f"of the untraced CLI calls, pass >= {1 - COVERAGE_SLACK:g} "
              f"({samples['rounds']} rounds; single calls "
              f"{min(samples['call_covered_share']):.3f} to "
              f"{max(samples['call_covered_share']):.3f})")
    else:
        print(f"# failed_share {failed / attempted:.4f} ratio "
              f"({failed} of {attempted} configurations)")
    for name in units:
        print(f"# {name:<26} {metrics[name]:>14.6g} {units[name]}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              **run, "failed_share": failed / attempted}
    out_dir = Path.cwd() / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fracfront" / "cli.py").is_file():
        print(f"error: no fracfront sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    for path in (REFERENCE, BENCHMARK):
        if not path.is_file():
            print(f"error: missing {path}", file=sys.stderr)
            return 2
    t0 = time.perf_counter()
    runner = Runner(root)
    work = root / ".perfbench_work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    run = traced_run if args.trace else timed_run
    try:
        # compiles the bytecode and warms the file cache before any timing
        runner.child("setup", {"config": {"alpha": 1.5, "theta": 0.0}})
        result = run(runner, args.workload, args.seed, args.seconds, work)
        env = environment()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = report(args, env, result, time.perf_counter() - t0)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
