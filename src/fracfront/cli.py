"""Command-line driver.

Subcommands: ``simulate`` (run and write outputs), ``apply`` (one operator
application on a saved profile), ``green`` (sample the diffusion kernel),
``speed`` (recompute wave diagnostics from a saved run), ``sweep``
(cartesian parameter sweep), ``selftest`` (built-in invariant suite).

Exit codes: 0 success; 1 unreadable input file or runtime failure (an
array too large to allocate included); 2 bad flag, option or config-file
value (the message names the flag).

``simulate`` runs as a sweep of one configuration.  A sweep's (alpha,
theta) group, whose configurations differ only in a, is one integration
(``run_simulations``): semi-implicit steps them as one stack.  A sweep of
two or more groups forks one child per group, at most one per CPU alive at
once (README); one group, one CPU or no ``fork`` runs in-process.  Python
3.12+ warns when it forks a process that has threads, as BLAS starts them.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import pickle
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import estimate_speed, green_function
from .errors import FracfrontError, OutOfRangeError
from .grids import FractionalParams
from .operators import apply_riesz_feller
from .runio import (
    CONFIG_TYPES,
    RunConfig,
    decay_diagnostics,
    read_config_file,
    result_from_csv,
    run_simulations,
    write_columns,
    write_manifest,
    write_snapshot_csv,
)

# sweep takes lists of these three instead (--alphas, --thetas, --a-list)
_SWEEP_LISTS = {"alpha": "alphas", "theta": "thetas", "a": "a_list"}


def _add_run_arguments(sub: argparse.ArgumentParser, names=None,
                       sweep: bool = False):
    """A flag per RunConfig field in ``names`` (default: all but ``out``).

    Without ``names`` a ``--config`` file fills what the flags leave out and
    ``sweep`` takes lists; with them the fields without a default are required.
    ``args.run_flags`` maps a field to the dest of its flag where they differ.
    """
    for field in dataclasses.fields(RunConfig):
        if field.name == "out" or (names is not None and field.name not in names):
            continue
        flag, help_text = f"--{field.name.replace('_', '-')}", field.metadata["help"]
        if sweep and field.name in _SWEEP_LISTS:
            sub.add_argument(f"--{_SWEEP_LISTS[field.name].replace('_', '-')}",
                             type=float_list, required=True,
                             help=f"comma list; {help_text}")
        elif CONFIG_TYPES[field.name] is bool:
            sub.add_argument(flag, action=argparse.BooleanOptionalAction,
                             help=help_text)
        else:
            sub.add_argument(flag, type=CONFIG_TYPES[field.name], help=help_text,
                             required=(names is not None and
                                       field.default is dataclasses.MISSING))
    if names is None:
        sub.add_argument("--config", help="key = value file; explicit flags override")
    sub.set_defaults(run_flags=_SWEEP_LISTS if sweep else {})


def _run_values(args: argparse.Namespace) -> dict:
    """RunConfig keywords: the config file's values, overridden by flags; a
    key whose flag has another name here (sweep's lists) is an error."""
    values = read_config_file(args.config) if getattr(args, "config", None) else {}
    for field, dest in args.run_flags.items():
        if field in values:
            raise OutOfRangeError(
                f"{args.config}: {field!r} is not a {args.command} config key; "
                f"give it as --{dest.replace('_', '-')}", field)
    for field in dataclasses.fields(RunConfig):
        if getattr(args, field.name, None) is not None:
            values[field.name] = getattr(args, field.name)
    return values


def _given(args: argparse.Namespace, *names: str) -> dict:
    """Keywords of the flags in ``names`` that were given (callee defaults stand)."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _cmd_simulate(parser, args) -> int:
    values = _run_values(args)
    if "alpha" not in values or "theta" not in values:
        parser.error("--alpha and --theta are required (flag or config file)")
    _run_groups([[RunConfig(**values)]])
    return 0


def _write(config: RunConfig, result, diag: dict) -> str:
    """Write the outputs of ``config``'s run and return its summary line."""
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_snapshot_csv(result, out_dir / "snapshots.csv")
    write_manifest(result, diag, config, out_dir / "manifest.json")
    speed = diag.get("speed")
    speed_txt = "n/a" if speed is None else f"{speed:+.5f}"
    return (f"wrote {out_dir}/snapshots.csv and manifest.json "
            f"(alpha={config.alpha:g} theta={config.theta:g} a={config.a:g} "
            f"T={config.t_final:g}, speed={speed_txt})")


def _cmd_apply(parser, args) -> int:
    config = RunConfig(**_run_values(args))   # the defaults of unset flags
    params = FractionalParams(config.alpha, config.theta)
    profile = result_from_csv(args.input)
    ghosts = None if args.mode == "projection" else np.zeros_like
    v = apply_riesz_feller(profile.final, profile.grid, params, ghosts=ghosts,
                           tail_correction=config.tail_correction)
    write_columns(args.out, ("x", "Du"), (profile.grid.x, v))
    print(f"wrote {args.out} ({len(v)} nodes, mode={args.mode})")
    return 0


def _cmd_green(parser, args) -> int:
    params = FractionalParams(args.alpha, args.theta)
    x, g = green_function(params, t=args.t, **_given(args, "window", "k_modes"))
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
    csv = run_dir / "snapshots.csv"
    result = result_from_csv(csv, a=a)
    try:
        est = estimate_speed(result, level=level, **_given(args, "fit_window"))
    except OutOfRangeError as exc:
        if exc.param != "snapshots":
            raise
        raise FracfrontError(f"{csv}: {exc}") from exc   # the run is too short
    out = {"speed": est.speed, "intercept": est.intercept,
           "fit_rms": est.residual, "level": level,
           "front_track": est.front_track, **decay_diagnostics(result)}
    print(json.dumps(out, indent=2))
    return 0


def _cmd_sweep(parser, args) -> int:
    for field, flag in _SWEEP_LISTS.items():   # directories are labelled with :g
        labels = [f"{value:g}" for value in getattr(args, flag)]
        if len(set(labels)) < len(labels):
            raise OutOfRangeError(f"{getattr(args, flag)} give the output directory "
                                  f"labels {labels}; two would share one", field)
    values = _run_values(args)
    configs = [RunConfig(**{**values, "alpha": alpha, "theta": theta, "a": a,
                            "out": str(Path(args.out) /
                                       f"alpha{alpha:g}_theta{theta:g}_a{a:g}")})
               for alpha in args.alphas for theta in args.thetas
               for a in args.a_list]
    for config in configs:   # every configuration is checked before any writes
        config.validated()
    # the loops run a innermost, so configurations sharing (alpha, theta)
    # are consecutive: a group, stepped together on one operator
    _run_groups([list(group) for _, group in
                 itertools.groupby(configs, lambda c: (c.alpha, c.theta))])
    return 0


def _run_group(group: list) -> tuple[list, BaseException | None]:
    """Run ``group`` as one integration on the operator of its (alpha, theta)
    (``run_simulations``): the summary lines of the configurations written,
    and the exception that stopped the rest, whatever it is (None if none
    did), so that it follows those lines; ``main`` alone filters errors."""
    lines = []
    try:
        for config, (result, diag) in zip(group, run_simulations(group)):
            lines.append(_write(config, result, diag))
    except BaseException as exc:
        return lines, exc
    return lines, None


def _run_groups(groups: list) -> None:
    """Run the groups, in forked children (``_forked``) if there are two or
    more, two or more CPUs and ``os.fork``; print each group's lines in
    configuration order once it is done.  The first exception in that order,
    whatever it is, is raised once the lines before it are printed.  After it
    no group starts; groups a child has started still finish."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    # in-process a group runs only once the last is printed
    outcomes = (_forked(groups, cpus)
                if len(groups) > 1 and cpus > 1 and hasattr(os, "fork")
                else (_run_group(group) for group in groups))
    try:
        for lines, error in outcomes:
            for line in lines:
                print(line)
            if error is not None:
                raise error
    finally:
        outcomes.close()


def _forked(groups: list, cpus: int):
    """Yield each group's ``_run_group`` outcome in configuration order, the
    group run in a child forked for it once fewer than ``cpus`` are alive.
    The child pickles its outcome, lines and exception alike, into its own
    pipe and leaves by ``os._exit``; a pipe that closes without a whole
    outcome yields a dead worker's error.  Closed, the generator
    starts no group and reaps the children it started, and only those."""
    import select   # here only: an in-process run never loads it
    pending, running, done = iter(enumerate(groups)), {}, {}   # running: fd: (pid, i)
    try:
        for i in range(len(groups)):
            while i not in done:
                for j, group in itertools.islice(pending, cpus - len(running)):
                    read, write = os.pipe()
                    try:
                        pid = os.fork()
                    except OSError:   # no child: neither end is anyone's
                        os.close(read)
                        os.close(write)
                        raise
                    if pid == 0:   # the child never returns
                        try:
                            for fd in (read, *running):
                                os.close(fd)
                            with os.fdopen(write, "wb") as pipe:
                                pickle.dump(_run_group(group), pipe)
                        finally:
                            os._exit(0)
                    os.close(write)
                    running[read] = pid, j
                for fd in select.select(list(running), [], [])[0]:
                    with os.fdopen(fd, "rb") as pipe:
                        data = pipe.read()
                    pid, j = running.pop(fd)
                    os.waitpid(pid, 0)
                    try:
                        done[j] = pickle.loads(data)
                    except (EOFError, pickle.UnpicklingError):   # cut short
                        done[j] = [], FracfrontError(
                            f"sweep group alpha={groups[j][0].alpha:g} theta="
                            f"{groups[j][0].theta:g}: a worker process ended abruptly")
            yield done.pop(i)
    finally:
        for fd, (pid, _) in running.items():
            os.close(fd)
            os.waitpid(pid, 0)


def float_list(text: str) -> list[float]:
    """Comma-separated floats (argparse reports a ValueError as bad input)."""
    return [float(v) for v in text.split(",")]


def _cmd_selftest(parser, args) -> int:
    from .selftest import run_selftest   # here only: no other command loads it
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
    _add_run_arguments(p_apply, ("alpha", "theta", "tail_correction"))
    p_apply.add_argument("--input", required=True,
                         help="snapshot CSV; the last column is used")
    p_apply.add_argument("--mode", choices=("projection", "freespace"),
                         default="projection",
                         help="off-domain values: clamp to boundary, or zero")
    p_apply.add_argument("--out", required=True, help="output CSV (x, Du)")
    p_apply.set_defaults(func=_cmd_apply, parser=p_apply)

    p_green = subs.add_parser("green", help="sample the diffusion kernel")
    _add_run_arguments(p_green, ("alpha", "theta"))
    p_green.add_argument("--t", type=float, default=1.0,
                         help="diffusion time (default %(default)g)")
    p_green.add_argument("--window", type=float,
                         help="width of the x range sampled around 0")
    p_green.add_argument("--k-modes", type=int,
                         help="number of samples and Fourier modes")
    p_green.add_argument("--out", required=True, help="output CSV (x, g)")
    p_green.set_defaults(func=_cmd_green, parser=p_green)

    p_speed = subs.add_parser("speed", help="recompute diagnostics from a run")
    p_speed.add_argument("--run", required=True, help="run directory")
    p_speed.add_argument("--level", type=float, default=None,
                         help="front level (default: threshold a from manifest)")
    p_speed.add_argument("--fit-window", type=float,
                         help="trailing fraction of the snapshots the fit uses")
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
    # argparse on Python 3.11 reads --dt=-- as [] without calling the type
    for dest, value in vars(args).items():
        if value == []:
            args.parser.error(f"--{dest.replace('_', '-')}: expected a value, "
                              "got '--'")
    try:
        # every command rejects a non-finite result with its own error line,
        # which says what a numpy warning would (forked workers inherit this)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args.parser, args)
    except (FracfrontError, OSError, MemoryError) as exc:
        if isinstance(exc, OutOfRangeError):
            dest = getattr(args, "run_flags", {}).get(exc.param, exc.param)
            if dest is None or hasattr(args, dest):
                flag = f"--{dest.replace('_', '-')}: " if dest else ""
                args.parser.error(f"{flag}{exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 1
