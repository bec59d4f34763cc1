"""The part of the benchmark that runs inside a fresh interpreter.

``run.py`` starts this script with ``src`` on ``PYTHONPATH``, sends one JSON
request on standard input and reads one JSON reply, the last line of
standard output.  Modes:

* ``setup``: import fracfront, assemble the operator and factorize it (for
  semi-implicit workloads), then report.  The parent times the interval from
  starting the interpreter to the reply: the time to the first step.
* ``calls``: run CLI calls in this one interpreter through ``cli.main`` until
  the time budget is spent, timing each call.
* ``trace``: for each configuration, run the untraced CLI call, then call the
  layers' public functions in the order the CLI uses them, recording spans.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _setup(req: dict) -> dict:
    t0 = time.perf_counter()
    import fracfront
    from fracfront import RunConfig, assemble_operator_matrix
    t1 = time.perf_counter()
    params, grid, _, cfg, _ = RunConfig(**req["config"]).validated()
    A = assemble_operator_matrix(grid, params)
    t2 = time.perf_counter()
    if cfg.method == "semi-implicit":
        A.factorization(cfg.dt)
    t3 = time.perf_counter()
    return {"version": fracfront.__version__, "import_s": t1 - t0,
            "assemble_s": t2 - t1, "factorize_s": t3 - t2}


def _cli_call(cli, argv: list[str]) -> tuple[float, object]:
    """Run ``cli.main(argv)``; return (wall seconds, exit code or error)."""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # a raw traceback breaks the CLI's exit-code contract
        code = traceback.format_exc(limit=-3)
    return time.perf_counter() - t0, code


def _calls(req: dict) -> dict:
    from fracfront import cli
    out = []
    t_start = time.perf_counter()
    for call in req["calls"]:
        if (len(out) >= req["min_calls"]
                and time.perf_counter() - t_start >= req["seconds"]):
            break
        wall, code = _cli_call(cli, call["argv"])
        out.append({"wall_s": wall, "code": code})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"calls": out, "peak_rss_mb": peak_kb / 1024.0}


class Tracer:
    """Spans kept in memory: name, start, end, parent index, configuration."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, config_id: str):
        index = len(self.spans)
        self.spans.append({"name": name, "config": config_id,
                           "parent": self._open[-1] if self._open else None})
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index].update(start=start, end=time.perf_counter())
            self._open.pop()


def _array_bytes(obj) -> int:
    """Bytes of the arrays an object holds directly or in dicts and tuples."""
    import numpy as np
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(v) for v in obj)
    return 0


def _traced_config(tr: Tracer, config_id: str, values: dict, out: Path) -> dict:
    """One configuration through the layers, in the order the CLI calls them.

    Mirrors ``cli._run_and_write`` and ``runio.run_simulation``.
    """
    from fracfront import (FracfrontError, RunConfig, apply_riesz_feller,
                           assemble_operator_matrix, estimate_decay_rate,
                           estimate_speed, integrate, make_ic,
                           read_profile_csv, write_manifest,
                           write_snapshot_csv)
    span = functools.partial(tr.span, config_id=config_id)
    with span("cli.config"):
        with span("runio.config"):
            config = RunConfig(**values, out=str(out))
            params, grid, nl, cfg, schedule = config.validated()
        with span("diagnostics.make_ic"):
            ic = make_ic(config.ic, grid, config.step_lo, config.step_hi)
        with span("operators.assemble"):
            A = assemble_operator_matrix(grid, params, config.tail_correction)
        if cfg.method == "semi-implicit":
            with span("operators.factorize"):
                A.factorization(cfg.dt)
        with span("stepping.integrate"):
            result = integrate(ic, schedule, cfg, grid, params, nl,
                               tail_correction=config.tail_correction,
                               operator=A)
        diag = {"speed": None, "speed_intercept": None, "speed_residual": None,
                "decay_rate": None, "decay_r_squared": None}
        with span("diagnostics.speed"):
            try:
                est = estimate_speed(result)
                diag.update(speed=est.speed, speed_intercept=est.intercept,
                            speed_residual=est.residual)
            except FracfrontError:
                pass
        with span("diagnostics.decay"):
            try:
                report = estimate_decay_rate(result)
                diag.update(decay_rate=report.decay_rate,
                            decay_r_squared=report.r_squared)
            except FracfrontError:
                pass
        out.mkdir(parents=True, exist_ok=True)
        with span("runio.csv_write"):
            write_snapshot_csv(result, out / "snapshots.csv")
        with span("runio.manifest_write"):
            write_manifest(result, diag, config, out / "manifest.json")
    with span("extras"):
        with span("runio.csv_read"):
            read_profile_csv(out / "snapshots.csv")
        with span("operators.apply"):
            apply_riesz_feller(result.final, grid, params,
                               tail_correction=config.tail_correction)
    return {"steps": result.stats["steps"],
            "rejected_steps": result.stats["rejected_steps"],
            "csv_bytes": (out / "snapshots.csv").stat().st_size,
            "dense_bytes": _array_bytes(vars(A))}


def _trace(req: dict) -> dict:
    from fracfront import cli
    tr = Tracer()
    untraced, counts = [], {}
    t_start = time.perf_counter()
    rounds = 0
    while rounds < 1 or time.perf_counter() - t_start < req["seconds"]:
        for index, call in enumerate(req["calls"]):
            wall, code = _cli_call(cli, call["argv"])
            untraced.append({"call": index, "round": rounds,
                             "wall_s": wall, "code": code})
            for cfg in call["configs"]:
                config_id = f"{cfg['id']}/round{rounds}"
                out = Path(req["out"]) / f"round{rounds}" / cfg["id"]
                counts[config_id] = _traced_config(
                    tr, config_id, cfg["values"], out)
        rounds += 1
    return {"rounds": rounds, "untraced": untraced, "counts": counts,
            "spans": tr.spans}


MODES = {"setup": _setup, "calls": _calls, "trace": _trace}

if __name__ == "__main__":
    reply = MODES[sys.argv[1]](json.loads(sys.stdin.read()))
    print(json.dumps(reply), flush=True)
