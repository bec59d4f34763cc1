"""Command-line driver.

Subcommands: ``simulate`` (run and write outputs), ``apply`` (one operator
application on a saved profile), ``green`` (sample the diffusion kernel),
``speed`` (recompute wave diagnostics from a saved run), ``sweep``
(cartesian parameter sweep), ``selftest`` (built-in invariant suite).

Exit codes: 0 success, 1 runtime failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import estimate_decay_rate, estimate_speed, green_function
from .errors import FracfrontError, OutOfRangeError
from .grids import FractionalParams, Grid1D
from .operators import apply_riesz_feller
from .runio import (
    IC_CHOICES,
    STEPPER_CHOICES,
    RunConfig,
    read_config_file,
    read_profile_csv,
    result_from_csv,
    run_simulation,
    write_manifest,
    write_snapshot_csv,
)
from .selftest import run_selftest

_RUN_FLAGS = (
    ("--alpha", float, "diffusion order, in (1, 2]"),
    ("--theta", float, "skewness, |theta| <= min(alpha, 2 - alpha)"),
    ("--a", float, "unstable threshold of the cubic reaction, in (0, 1)"),
    ("--b", float, "domain half-width"),
    ("--n", int, "node count (odd, >= 3)"),
    ("--t-final", float, "end time"),
    ("--step-lo", float, "step initial condition: value for x <= 0"),
    ("--step-hi", float, "step initial condition: value for x > 0"),
    ("--dt", float, "fixed step size (semi-implicit)"),
    ("--abs-tol", float, "absolute tolerance (rk-adaptive)"),
    ("--rel-tol", float, "relative tolerance (rk-adaptive)"),
    ("--snapshots", int, "number of saved snapshots (including t = 0)"),
    ("--seed", int, "seed recorded in the manifest"),
)


def _add_run_arguments(sub: argparse.ArgumentParser):
    for flag, typ, help_text in _RUN_FLAGS:
        sub.add_argument(flag, type=typ, help=help_text)
    sub.add_argument("--ic", choices=IC_CHOICES, help="initial condition")
    sub.add_argument("--stepper", choices=STEPPER_CHOICES, help="time stepper")
    sub.add_argument("--tail-correction", action=argparse.BooleanOptionalAction,
                     help="add the closed-form far-field tail of the operator")
    sub.add_argument("--config", help="key = value file; explicit flags override")


def _collect_run_config(parser: argparse.ArgumentParser,
                        args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(read_config_file(args.config))
    for field in dataclasses.fields(RunConfig):
        if field.name == "out":
            continue
        cli_value = getattr(args, field.name, None)
        if cli_value is not None:
            values[field.name] = cli_value
    if "alpha" not in values or "theta" not in values:
        parser.error("--alpha and --theta are required (flag or config file)")
    config = RunConfig(**values)
    _check_run_config(parser, config)
    return config


def _check_run_config(parser: argparse.ArgumentParser, config: RunConfig):
    """Bad-argument validation with messages naming the offending flag."""
    # theta = 0 is admissible for every admissible alpha
    for flag, theta in (("--alpha", 0.0), ("--theta", config.theta)):
        try:
            FractionalParams(config.alpha, theta)
        except OutOfRangeError as exc:
            parser.error(f"{flag}: {exc}")
    if not 0.0 < config.a < 1.0:
        parser.error(f"--a: must lie in (0, 1), got {config.a}")
    if config.b <= 0:
        parser.error(f"--b: must be positive, got {config.b}")
    if config.n < 3 or config.n % 2 == 0:
        parser.error(f"--n: must be odd and >= 3, got {config.n}")
    if config.t_final < 0:
        parser.error(f"--t-final: must be nonnegative, got {config.t_final}")
    if config.dt <= 0:
        parser.error(f"--dt: must be positive, got {config.dt}")
    if config.abs_tol <= 0 or config.rel_tol <= 0:
        parser.error("--abs-tol/--rel-tol: tolerances must be positive")
    if config.snapshots < 1:
        parser.error(f"--snapshots: must be >= 1, got {config.snapshots}")
    if config.ic not in IC_CHOICES:
        parser.error(f"--ic: must be one of {IC_CHOICES}, got {config.ic!r}")
    if config.stepper not in STEPPER_CHOICES:
        parser.error(f"--stepper: must be one of {STEPPER_CHOICES}, "
                     f"got {config.stepper!r}")


def _cmd_simulate(parser, args) -> int:
    config = _collect_run_config(parser, args)
    config.out = args.out
    _run_and_write(config, Path(args.out))
    return 0


def _run_and_write(config: RunConfig, out_dir: Path):
    result, diag = run_simulation(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_snapshot_csv(result, out_dir / "snapshots.csv")
    write_manifest(result, diag, config, out_dir / "manifest.json")
    speed = diag.get("speed")
    speed_txt = "n/a" if speed is None else f"{speed:+.5f}"
    print(f"wrote {out_dir}/snapshots.csv and manifest.json "
          f"(alpha={config.alpha:g} theta={config.theta:g} a={config.a:g} "
          f"T={config.t_final:g}, speed={speed_txt})")


def _cmd_apply(parser, args) -> int:
    params = FractionalParams(args.alpha, args.theta)
    x, _, states = read_profile_csv(args.input)
    grid = Grid1D(b=-x[0], n=len(x))
    u = states[-1]
    ghosts = "projection" if args.mode == "projection" else (lambda xq: np.zeros_like(xq))
    v = apply_riesz_feller(u, grid, params, ghosts=ghosts,
                           tail_correction=bool(args.tail_correction))
    lines = ["x,Du"]
    lines += [f"{repr(float(xx))},{repr(float(vv))}" for xx, vv in zip(grid.x, v)]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(v)} nodes, mode={args.mode})")
    return 0


def _cmd_green(parser, args) -> int:
    params = FractionalParams(args.alpha, args.theta)
    x, g = green_function(params, t=args.t, window=args.window,
                          k_modes=args.k_modes)
    lines = ["x,g"]
    lines += [f"{repr(float(xx))},{repr(float(gg))}" for xx, gg in zip(x, g)]
    Path(args.out).write_text("\n".join(lines) + "\n")
    mass = float(np.sum(g) * (x[1] - x[0]))
    print(f"wrote {args.out} (mass={mass:.6f}, peak={g.max():.6g})")
    return 0


def _cmd_speed(parser, args) -> int:
    run_dir = Path(args.run)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    level = args.level if args.level is not None else manifest["config"]["a"]
    result = result_from_csv(run_dir / "snapshots.csv", a=manifest["config"]["a"])
    est = estimate_speed(result, level=level, fit_window=args.fit_window)
    out = {"speed": est.speed, "intercept": est.intercept,
           "fit_rms": est.residual, "level": level,
           "front_track": est.front_track}
    try:
        report = estimate_decay_rate(result)
        out["decay_rate"] = report.decay_rate
        out["decay_r_squared"] = report.r_squared
    except FracfrontError:
        out["decay_rate"] = None
    print(json.dumps(out, indent=2))
    return 0


def _cmd_sweep(parser, args) -> int:
    alphas = [float(v) for v in args.alphas.split(",")]
    thetas = [float(v) for v in args.thetas.split(",")]
    a_values = [float(v) for v in args.a_list.split(",")]
    base = Path(args.out)
    for alpha in alphas:
        for theta in thetas:
            for a in a_values:
                args.alpha, args.theta, args.a = alpha, theta, a
                config = _collect_run_config(parser, args)
                sub = base / f"alpha{alpha:g}_theta{theta:g}_a{a:g}"
                config.out = str(sub)
                _run_and_write(config, sub)
    return 0


def _cmd_selftest(parser, args) -> int:
    return run_selftest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracfront",
        description="Bistable fronts under skewed fractional diffusion")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_sim = subs.add_parser("simulate", help="run one configuration")
    _add_run_arguments(p_sim)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_apply = subs.add_parser("apply", help="apply the operator to a CSV profile")
    p_apply.add_argument("--alpha", type=float, required=True)
    p_apply.add_argument("--theta", type=float, required=True)
    p_apply.add_argument("--input", required=True,
                         help="snapshot CSV; the last column is used")
    p_apply.add_argument("--mode", choices=("projection", "freespace"),
                         default="projection",
                         help="off-domain values: clamp to boundary, or zero")
    p_apply.add_argument("--tail-correction", action="store_true")
    p_apply.add_argument("--out", required=True, help="output CSV (x, Du)")
    p_apply.set_defaults(func=_cmd_apply)

    p_green = subs.add_parser("green", help="sample the diffusion kernel")
    p_green.add_argument("--alpha", type=float, required=True)
    p_green.add_argument("--theta", type=float, required=True)
    p_green.add_argument("--t", type=float, default=1.0)
    p_green.add_argument("--window", type=float, default=200.0)
    p_green.add_argument("--k-modes", type=int, default=2 ** 14)
    p_green.add_argument("--out", required=True, help="output CSV (x, g)")
    p_green.set_defaults(func=_cmd_green)

    p_speed = subs.add_parser("speed", help="recompute diagnostics from a run")
    p_speed.add_argument("--run", required=True, help="run directory")
    p_speed.add_argument("--level", type=float, default=None,
                         help="front level (default: threshold a from manifest)")
    p_speed.add_argument("--fit-window", type=float, default=0.5)
    p_speed.set_defaults(func=_cmd_speed)

    p_sweep = subs.add_parser("sweep", help="cartesian sweep over alpha/theta/a")
    _add_run_arguments(p_sweep)
    p_sweep.add_argument("--alphas", required=True, help="comma list")
    p_sweep.add_argument("--thetas", required=True, help="comma list")
    p_sweep.add_argument("--a-list", required=True, help="comma list")
    p_sweep.add_argument("--out", required=True, help="parent output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_self = subs.add_parser("selftest", help="run the invariant suite")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except FracfrontError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
