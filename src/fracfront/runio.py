"""Run configuration, CSV snapshot output, and the JSON run manifest.

CSV layout: first column ``x``, then one column per snapshot headed
``u@t=<time>``.  Times and values are written in shortest round-trip decimal
form (times without a trailing ``.0``), so reading the file back recovers
the exact doubles; identical configurations therefore produce
byte-identical files.

Read-back rejects what no run writes: ``read_profile_csv`` refuses NaN or
Inf times and values and times that do not strictly increase, and
``result_from_csv`` refuses an x column that is not exactly the uniform grid
``Grid1D(-x[0], n).x`` it rebuilds, so diagnostics never run on data the
grid does not describe.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .diagnostics import STEP_HI, STEP_LO, estimate_decay_rate, estimate_speed, make_ic
from .errors import FracfrontError, OutOfRangeError
from .grids import FractionalParams, Grid1D, quadrature_nodes_weights
from .operators import quadrature_coefficients
from .reaction import BistableCubic
from .stepping import (METHODS, SimulationResult, StepperConfig, integrate_group,
                       make_schedule)


def _param(help_text: str, default=dataclasses.MISSING):
    """A RunConfig field; its help text is the help of its CLI flag."""
    return dataclasses.field(default=default, metadata={"help": help_text})


@dataclass
class RunConfig:
    """One simulation run; each field is a CLI flag and a config-file key."""

    alpha: float = _param("diffusion order, in (1, 2]")
    theta: float = _param("skewness, |theta| <= min(alpha, 2 - alpha)")
    a: float = _param("unstable threshold of the cubic reaction, in (0, 1)", 0.5)
    b: float = _param("domain half-width", 30.0)
    n: int = _param("node count (odd, >= 3)", 181)
    t_final: float = _param("end time", 20.0)
    ic: str = _param("initial condition: chen or step", "chen")
    step_lo: float = _param("step initial condition: value for x <= 0", STEP_LO)
    step_hi: float = _param("step initial condition: value for x > 0", STEP_HI)
    stepper: str = _param(f"time stepper: {' or '.join(METHODS)}", StepperConfig.method)
    dt: float = _param("fixed step size (semi-implicit)", StepperConfig.dt)
    abs_tol: float = _param("absolute tolerance (rk-adaptive)", StepperConfig.abs_tol)
    rel_tol: float = _param("relative tolerance (rk-adaptive)", StepperConfig.rel_tol)
    snapshots: int = _param("number of saved snapshots (including t = 0)", 21)
    tail_correction: bool = _param("add the operator's far-field tail", False)
    out: Optional[str] = _param("output directory", None)

    def validated(self):
        """Build the validated domain objects (``make_ic`` checks ic, step levels)."""
        params = FractionalParams(self.alpha, self.theta)
        grid = Grid1D(self.b, self.n)
        if not params.is_classical:
            quadrature_nodes_weights(grid)  # the fractional scheme needs n >= 5
        nl = BistableCubic(self.a)
        cfg = StepperConfig(method=self.stepper, dt=self.dt, abs_tol=self.abs_tol,
                            rel_tol=self.rel_tol)
        schedule = make_schedule(self.t_final, self.snapshots)
        return params, grid, nl, cfg, schedule


def run_simulation(config: RunConfig) -> tuple[SimulationResult, dict]:
    """Run one configuration: ``run_simulations`` of a group of one."""
    return next(run_simulations([config]))


def run_simulations(configs: list):
    """Yield ``(result, diagnostics)`` per configuration, in order, for
    configurations that differ only in ``a`` and ``out``: one integration
    on one operator (``integrate_group``).  The diagnostics hold the front
    speed and decay-rate fit when they are measurable for the run (None
    entries otherwise).  A configuration that fails raises its error once
    those before it are yielded."""
    config = configs[0]
    if any(dataclasses.replace(c, a=config.a, out=config.out) != config
           for c in configs):
        raise ValueError("a group's configurations may differ only in a and out")
    params, grid, _, cfg, schedule = config.validated()
    ic = make_ic(config.ic, grid, config.step_lo, config.step_hi)
    for result in integrate_group(ic, schedule, cfg, grid, params,
                                  [BistableCubic(c.a) for c in configs],
                                  config.tail_correction):
        diag = {"speed": None, "speed_intercept": None, "speed_residual": None}
        try:
            est = estimate_speed(result)
            diag.update(speed=est.speed, speed_intercept=est.intercept,
                        speed_residual=est.residual)
        except FracfrontError:
            pass
        yield result, {**diag, **decay_diagnostics(result)}


def decay_diagnostics(result: SimulationResult) -> dict:
    """``decay_rate`` and ``decay_r_squared`` of the relaxation fit (None if unfit)."""
    try:
        report = estimate_decay_rate(result)
    except FracfrontError:
        return {"decay_rate": None, "decay_r_squared": None}
    return {"decay_rate": report.decay_rate, "decay_r_squared": report.r_squared}


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def write_columns(path, names, columns) -> None:
    """Write equal-length columns under a header of ``names``.

    Each value is written as the repr of a Python float, the shortest
    decimal that round-trips exactly.
    """
    path = Path(path)
    try:
        with path.open("w") as f:
            f.write(",".join(names) + "\n")
            for row in np.column_stack(columns):
                f.write(",".join(map(repr, row.tolist())) + "\n")
    except OSError as exc:
        raise FracfrontError(f"cannot write CSV {path}: {exc}") from exc


def write_snapshot_csv(result: SimulationResult, path) -> None:
    """Write the snapshot series (see module docstring for the layout)."""
    names = ["x"] + [f"u@t={np.format_float_positional(t, trim='-')}"
                     for t in result.times]
    write_columns(path, names, [result.grid.x, *result.states])


def read_profile_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a snapshot CSV back: returns (x, times, states[k, n])."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FracfrontError(f"{path}: cannot read profile CSV: {exc}") from exc
    lines = [ln.split(",") for ln in text.splitlines() if ln.strip()]
    header = lines[0] if lines else []
    if (header[:1] != ["x"] or len(header) < 2
            or not all(h.startswith("u@t=") for h in header[1:])):
        raise FracfrontError(f"{path}: not a snapshot CSV (header {header[:2]}...)")
    if len(lines) < 2 or any(len(row) != len(header) for row in lines[1:]):
        raise FracfrontError(
            f"{path}: expected one or more data rows of {len(header)} values")
    try:
        times = np.array([float(h[len("u@t="):]) for h in header[1:]])
        data = np.array([[float(v) for v in row] for row in lines[1:]])
    except ValueError as exc:
        raise FracfrontError(f"{path}: {exc}") from exc
    if not (np.all(np.isfinite(data)) and np.all(np.isfinite(times))):
        raise FracfrontError(f"{path}: contains NaN or Inf values")
    if not np.all(np.diff(times) > 0):
        raise FracfrontError(f"{path}: snapshot times do not strictly increase")
    return data[:, 0], times, data[:, 1:].T


def result_from_csv(path, a: Optional[float] = None) -> SimulationResult:
    """Rebuild a minimal result object from a saved CSV (for re-diagnosis).

    The x column must be exactly the nodes of ``Grid1D(-x[0], len(x))``.
    """
    x, times, states = read_profile_csv(path)
    try:
        grid = Grid1D(b=-x[0], n=len(x))
        nl = BistableCubic(a) if a is not None else None
    except OutOfRangeError as exc:
        raise FracfrontError(f"{path}: {exc}") from exc
    if not np.array_equal(x, grid.x):
        raise FracfrontError(
            f"{path}: x column is not the uniform grid on [{x[0]!r}, {-x[0]!r}] "
            f"with {len(x)} nodes")
    return SimulationResult(times=times, states=states, grid=grid, nl=nl)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def build_manifest(config: RunConfig, stats: dict, diagnostics: dict) -> dict:
    """The run manifest: the config, the values derived from it (grid step,
    centre node, integral coefficients, potential gap), the run's ``stats``
    and its ``diagnostics``."""
    params, grid, nl, *_ = config.validated()
    c1, c2 = (None, None) if params.is_classical else quadrature_coefficients(params)
    return {
        "version": __version__,
        # counts as ints, as the CLI writes them, also for an integral float
        "config": {**dataclasses.asdict(config), "n": int(config.n),
                   "snapshots": int(config.snapshots)},
        "derived": {
            "h": grid.h,
            "m": grid.m,
            "c1": c1,
            "c2": c2,
            "potential_gap": nl.potential_gap(),
        },
        "stats": stats,
        "diagnostics": diagnostics,
    }


MANIFEST_REQUIRED_KEYS = ("version", "config", "derived", "stats", "diagnostics")
MANIFEST_DERIVED_KEYS = ("h", "m", "c1", "c2", "potential_gap")


def write_manifest(result: SimulationResult, diagnostics: dict,
                   config: RunConfig, path) -> None:
    path = Path(path)
    try:
        path.write_text(json.dumps(build_manifest(config, result.stats, diagnostics),
                                   indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise FracfrontError(f"cannot write manifest {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# key = value configuration files
# ---------------------------------------------------------------------------

# field name -> Python type of its value (annotations are strings here)
CONFIG_TYPES = {f.name: {"int": int, "float": float, "bool": bool}.get(f.type, str)
                for f in dataclasses.fields(RunConfig)}
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def read_config_file(path) -> dict:
    """Parse a ``key = value`` file into RunConfig keyword arguments.

    Unknown keys are errors (fail loud), and so is ``out``: the output
    directory is always the ``--out`` flag.  '#' starts a comment.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FracfrontError(f"{path}: cannot read config file: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise OutOfRangeError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_TYPES:
            raise OutOfRangeError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "out":
            raise OutOfRangeError(
                f"{path}:{lineno}: 'out' is not a config key; "
                "give the output directory as --out", "out")
        try:
            out[key] = _parse_value(key, value)
        except ValueError as exc:
            raise OutOfRangeError(f"{path}:{lineno}: {key}: {exc}") from exc
    return out


def _parse_value(key: str, value: str):
    kind = CONFIG_TYPES[key]
    if kind is bool:
        if value.lower() not in _BOOL_TRUE | _BOOL_FALSE:
            raise ValueError(f"expected a boolean, got {value!r}")
        return value.lower() in _BOOL_TRUE
    return kind(value)
