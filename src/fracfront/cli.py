"""Command-line driver.

Subcommands: ``simulate`` (run and write outputs), ``apply`` (one operator
application on a saved profile), ``green`` (sample the diffusion kernel),
``speed`` (recompute wave diagnostics from a saved run), ``sweep``
(cartesian parameter sweep), ``selftest`` (built-in invariant suite).

Exit codes: 0 success; 1 unreadable input file or runtime failure; 2 bad
flag, option or config-file value (the message names the flag).
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
from .grids import FractionalParams
from .operators import apply_riesz_feller, assemble_operator_matrix
from .runio import (
    CONFIG_TYPES,
    RunConfig,
    read_config_file,
    result_from_csv,
    run_simulation,
    write_columns,
    write_manifest,
    write_snapshot_csv,
)
from .selftest import run_selftest

# sweep takes lists of these three instead (--alphas, --thetas, --a-list)
_SWEEP_LISTS = {"alpha": "alphas", "theta": "thetas", "a": "a_list"}


def _add_run_arguments(sub: argparse.ArgumentParser, sweep: bool = False):
    """A flag per RunConfig field but ``out``; ``sweep`` takes lists instead."""
    for field in dataclasses.fields(RunConfig):
        flag, help_text = f"--{field.name.replace('_', '-')}", field.metadata["help"]
        if sweep and field.name in _SWEEP_LISTS:
            sub.add_argument(f"--{_SWEEP_LISTS[field.name].replace('_', '-')}",
                             type=float_list, required=True,
                             help=f"comma list; {help_text}")
        elif CONFIG_TYPES[field.name] is bool:
            sub.add_argument(flag, action=argparse.BooleanOptionalAction,
                             help=help_text)
        elif field.name != "out":
            sub.add_argument(flag, type=CONFIG_TYPES[field.name], help=help_text)
    sub.add_argument("--config", help="key = value file; explicit flags override")


def _run_values(args: argparse.Namespace) -> dict:
    """RunConfig keywords: the config file's values, overridden by flags."""
    values = read_config_file(args.config) if args.config else {}
    for field in dataclasses.fields(RunConfig):
        if getattr(args, field.name, None) is not None:
            values[field.name] = getattr(args, field.name)
    return values


def _cmd_simulate(parser, args) -> int:
    values = _run_values(args)
    if "alpha" not in values or "theta" not in values:
        parser.error("--alpha and --theta are required (flag or config file)")
    _run_and_write(RunConfig(**values))
    return 0


def _run_and_write(config: RunConfig, operator=None):
    result, diag = run_simulation(config, operator)
    out_dir = Path(config.out)
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
    profile = result_from_csv(args.input)
    ghosts = "projection" if args.mode == "projection" else (lambda xq: np.zeros_like(xq))
    v = apply_riesz_feller(profile.final, profile.grid, params, ghosts=ghosts,
                           tail_correction=bool(args.tail_correction))
    write_columns(args.out, ("x", "Du"), (profile.grid.x, v))
    print(f"wrote {args.out} ({len(v)} nodes, mode={args.mode})")
    return 0


def _cmd_green(parser, args) -> int:
    params = FractionalParams(args.alpha, args.theta)
    x, g = green_function(params, t=args.t, window=args.window,
                          k_modes=args.k_modes)
    write_columns(args.out, ("x", "g"), (x, g))
    mass = float(np.sum(g) * (x[1] - x[0]))
    print(f"wrote {args.out} (mass={mass:.6f}, peak={g.max():.6g})")
    return 0


def _cmd_speed(parser, args) -> int:
    run_dir = Path(args.run)
    manifest = run_dir / "manifest.json"
    try:
        a = float(json.loads(manifest.read_text())["config"]["a"])
    except (ValueError, KeyError, TypeError) as exc:
        raise FracfrontError(f"{manifest}: not a run manifest ({exc!r})") from exc
    level = args.level if args.level is not None else a
    result = result_from_csv(run_dir / "snapshots.csv", a=a)
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
    values = _run_values(args)
    configs = [RunConfig(**{**values, "alpha": alpha, "theta": theta, "a": a,
                            "out": str(Path(args.out) /
                                       f"alpha{alpha:g}_theta{theta:g}_a{a:g}")})
               for alpha in args.alphas for theta in args.thetas
               for a in args.a_list]
    for config in configs:   # every configuration is checked before any writes
        try:
            config.validated()
        except OutOfRangeError as exc:   # name the list flag the value came from
            exc.param = _SWEEP_LISTS.get(exc.param, exc.param)
            raise
    # the loops run a innermost, so configurations sharing (alpha, theta)
    # are consecutive and share one operator and its cached solver
    operator, key = None, None
    for config in configs:
        if (config.alpha, config.theta) != key:
            operator = None   # release the old solver before the next is built
            params, grid, *_ = config.validated()
            operator = assemble_operator_matrix(grid, params,
                                                config.tail_correction)
            key = (config.alpha, config.theta)
        _run_and_write(config, operator)
    return 0


def float_list(text: str) -> list[float]:
    """Comma-separated floats (argparse reports a ValueError as bad input)."""
    return [float(v) for v in text.split(",")]


def _cmd_selftest(parser, args) -> int:
    return run_selftest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracfront",
        description="Bistable fronts under skewed fractional diffusion")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    # each subcommand carries its own parser, so its errors print its usage
    p_sim = subs.add_parser("simulate", help="run one configuration")
    _add_run_arguments(p_sim)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate, parser=p_sim)

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
    p_apply.set_defaults(func=_cmd_apply, parser=p_apply)

    p_green = subs.add_parser("green", help="sample the diffusion kernel")
    p_green.add_argument("--alpha", type=float, required=True)
    p_green.add_argument("--theta", type=float, required=True)
    p_green.add_argument("--t", type=float, default=1.0)
    p_green.add_argument("--window", type=float, default=200.0)
    p_green.add_argument("--k-modes", type=int, default=2 ** 14)
    p_green.add_argument("--out", required=True, help="output CSV (x, g)")
    p_green.set_defaults(func=_cmd_green, parser=p_green)

    p_speed = subs.add_parser("speed", help="recompute diagnostics from a run")
    p_speed.add_argument("--run", required=True, help="run directory")
    p_speed.add_argument("--level", type=float, default=None,
                         help="front level (default: threshold a from manifest)")
    p_speed.add_argument("--fit-window", type=float, default=0.5)
    p_speed.set_defaults(func=_cmd_speed, parser=p_speed)

    # no prefix matching: --alpha or --theta would be read as the list flag
    p_sweep = subs.add_parser("sweep", help="cartesian sweep over alpha/theta/a",
                              allow_abbrev=False)
    _add_run_arguments(p_sweep, sweep=True)
    p_sweep.add_argument("--out", required=True, help="parent output directory")
    p_sweep.set_defaults(func=_cmd_sweep, parser=p_sweep)

    p_self = subs.add_parser("selftest", help="run the invariant suite")
    p_self.set_defaults(func=_cmd_selftest, parser=p_self)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args.parser, args)
    except (FracfrontError, OSError) as exc:
        if isinstance(exc, OutOfRangeError) and (
                exc.param is None or hasattr(args, exc.param)):
            flag = f"--{exc.param.replace('_', '-')}: " if exc.param else ""
            args.parser.error(f"{flag}{exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
