"""Initial profiles, traveling-wave measurements, and analytical checks.

Front positions are tracked at the unstable threshold ``a`` by default: that
crossing is the dynamically meaningful interface (it coincides with 0.5 only
in the balanced case).  Speed fits use the last half of the snapshots to
skip the initial transient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InsufficientDecayError,
    NoCrossingError,
    OutOfRangeError,
    WindowTooSmallError,
)
from .grids import FractionalParams, Grid1D, validate_state
from .operators import riesz_feller_symbol
from .reaction import BistableCubic
from .stepping import SimulationResult, StepperConfig, integrate

BOUNDARY_DENSITY_LIMIT = 1e-6   # kernel guard: boundary value vs peak
STEP_LO, STEP_HI = 0.49, 1.51   # default step IC: above the stable band on the right


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def chen_ramp(x: np.ndarray) -> np.ndarray:
    """0 below x = -2, linear ramp x/4 + 1/2 on [-2, 2], 1 above x = 2."""
    x = np.asarray(x, dtype=float)
    return np.where(x < -2.0, 0.0, np.where(x > 2.0, 1.0, x / 4.0 + 0.5))


def step_profile(x: np.ndarray, lo: float = STEP_LO, hi: float = STEP_HI) -> np.ndarray:
    """lo for x <= 0, hi for x > 0 (left-closed at the jump)."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, lo, hi)


def make_ic(variant, grid: Grid1D, step_lo: float = STEP_LO,
            step_hi: float = STEP_HI) -> np.ndarray:
    """Sample an initial profile at the grid nodes.

    ``variant`` is "chen", "step" (levels ``step_lo``, ``step_hi``), or a
    callable x -> u.
    """
    for name, value in (("step_lo", step_lo), ("step_hi", step_hi)):
        if not np.isfinite(value):
            raise OutOfRangeError(f"{name} must be finite, got {value}", name)
    if variant == "chen":
        return chen_ramp(grid.x)
    if variant == "step":
        return step_profile(grid.x, step_lo, step_hi)
    if callable(variant):
        return np.asarray(variant(grid.x), dtype=float)
    raise OutOfRangeError(
        f"initial condition must be chen, step or a callable, got {variant!r}", "ic")


# ---------------------------------------------------------------------------
# front tracking and wave speed
# ---------------------------------------------------------------------------

def front_position(u: np.ndarray, grid: Grid1D, level: float) -> float:
    """x where the profile crosses ``level``, by linear interpolation.

    If several cells bracket the level, the crossing nearest the origin is
    returned.  Raises ``NoCrossingError`` when the profile never brackets it.
    """
    u = np.asarray(u, dtype=float)
    d = u - level
    bracket = np.nonzero((d[:-1] * d[1:] <= 0) & (u[:-1] != u[1:]))[0]
    if len(bracket) == 0:
        raise NoCrossingError(f"profile never crosses level {level}")
    x = grid.x
    crossings = x[bracket] + (level - u[bracket]) * (
        x[bracket + 1] - x[bracket]) / (u[bracket + 1] - u[bracket])
    return float(crossings[np.argmin(np.abs(crossings))])


@dataclass
class SpeedEstimate:
    speed: float
    intercept: float
    residual: float                  # rms of the linear fit
    front_track: list                # (t, x_front) pairs


def estimate_speed(result: SimulationResult, level: Optional[float] = None,
                   fit_window: float = 0.5) -> SpeedEstimate:
    """Least-squares front speed over the trailing ``fit_window`` fraction."""
    if not 0.0 < fit_window <= 1.0:
        raise OutOfRangeError(
            f"fit_window must lie in (0, 1], got {fit_window}", "fit_window")
    if level is None:
        level = result.nl.a
    if not abs(level) < np.inf:
        raise OutOfRangeError(f"level must be finite, got {level}", "level")
    k0 = int(math.ceil(len(result.times) * (1.0 - fit_window)))
    k0 = min(k0, len(result.times) - 1)
    ts = result.times[k0:]
    if len(ts) < 4:
        raise OutOfRangeError("speed fit needs at least 4 snapshots in the window",
                              "fit_window")
    fronts = np.array([front_position(result.states[k], result.grid, level)
                       for k in range(k0, len(result.times))])
    design = np.vstack([ts, np.ones_like(ts)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, fronts, rcond=None)
    resid = fronts - design @ [slope, intercept]
    return SpeedEstimate(
        speed=float(slope), intercept=float(intercept),
        residual=float(np.sqrt(np.mean(resid ** 2))),
        front_track=list(zip(ts.tolist(), fronts.tolist())))


# ---------------------------------------------------------------------------
# profile distance modulo translation
# ---------------------------------------------------------------------------

def _translate(u: np.ndarray, x: np.ndarray, s: float) -> np.ndarray:
    # evaluate u(x - s); np.interp clamps to the end values (flat far field)
    return np.interp(x - s, x, u)


SCAN_BLOCK_DOUBLES = 16384      # work buffer of the whole-cell scan (128 KiB)


def _whole_cell_residuals(u1: np.ndarray, u2: np.ndarray,
                          kmax: int) -> np.ndarray:
    """max|u2 - u1(. - k h)| for k = -kmax..kmax, clamped ends.

    Row r of the windows over ``u1`` padded with ``kmax`` end values on each
    side is u1 translated by ``(kmax - r)`` cells, so reversing the row
    residuals orders them by k.  Rows are taken in blocks through one buffer.
    """
    n = len(u1)
    padded = np.concatenate([np.full(kmax, u1[0]), u1, np.full(kmax, u1[-1])])
    rows = np.lib.stride_tricks.sliding_window_view(padded, n)
    per_block = max(1, SCAN_BLOCK_DOUBLES // n)
    buf = np.empty((min(per_block, len(rows)), n))
    vals = np.empty(len(rows))
    for r0 in range(0, len(rows), per_block):
        chunk = rows[r0:r0 + per_block]
        block = buf[:len(chunk)]
        np.subtract(u2, chunk, out=block)
        np.abs(block, out=block)
        np.max(block, axis=1, out=vals[r0:r0 + len(chunk)])
    return vals[::-1]


def shift_matched_residual(u1: np.ndarray, u2: np.ndarray,
                           grid: Grid1D) -> tuple[float, float]:
    """L-inf distance between u2 and its best-matching translate of u1.

    Scans every whole-cell shift in [-b/2, b/2] in one pass over windows of
    ``u1`` padded with its end values, which is exactly linear interpolation
    at ``x - k h``; rows go in blocks through one buffer of
    ``SCAN_BLOCK_DOUBLES`` doubles (one row when n is larger).  Golden-section
    search then refines within one cell either side of the best whole cell
    only, off-grid values by linear interpolation; on plateaus the whole-cell
    winner is kept.  For fronts this is the minimum over shifts; for
    non-monotone profiles with several near-equal minima it is an upper bound,
    as a lower minimum near another cell is not searched.  Returns
    ``(residual, shift)`` with ``u2 ~ u1(. - shift)``.
    """
    u1 = validate_state(u1, grid)
    u2 = validate_state(u2, grid)
    x = grid.x

    def res(s):
        return float(np.max(np.abs(u2 - _translate(u1, x, s))))

    kmax = int(grid.b / 2 / grid.h)
    coarse = np.arange(-kmax, kmax + 1) * grid.h
    vals = _whole_cell_residuals(u1, u2, kmax)
    i = int(np.argmin(vals))
    lo = coarse[max(0, i - 1)]
    hi = coarse[min(len(coarse) - 1, i + 1)]

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = res(c), res(d)
    for _ in range(80):
        if b - a < 1e-13 * max(1.0, grid.b):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = res(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = res(d)
    shift = 0.5 * (a + b)
    best = res(shift)
    if vals[i] < best:  # keep the coarse winner on plateaus
        return float(vals[i]), float(coarse[i])
    return best, float(shift)


@dataclass
class ConvergenceReport:
    times: np.ndarray
    residuals: np.ndarray            # shift-matched L-inf per snapshot
    decay_rate: Optional[float]      # reported only when r_squared >= 0.9
    r_squared: float
    fit_points: int


def estimate_decay_rate(result: SimulationResult,
                        reference: Optional[np.ndarray] = None) -> ConvergenceReport:
    """Exponential-decay fit of the shift-matched residual history.

    The residual of each snapshot against ``reference`` (default: the final
    snapshot) is fitted as log r = log K - kappa t over the window where
    r lies in [1e-10, 1e-1].  Raises ``InsufficientDecayError`` when fewer
    than two residuals fall in that window.
    """
    if len(result.times) < 6:
        raise OutOfRangeError("decay fit needs at least 6 snapshots")
    if reference is None:
        reference = result.final
    residuals = np.array([
        shift_matched_residual(state, reference, result.grid)[0]
        for state in result.states])
    mask = (residuals >= 1e-10) & (residuals <= 1e-1)
    if np.count_nonzero(mask) < 2:
        raise InsufficientDecayError(
            "no usable residuals in [1e-10, 1e-1]; "
            "the run may already sit on the steady profile")
    ts = result.times[mask]
    logr = np.log(residuals[mask])
    design = np.vstack([ts, np.ones_like(ts)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, logr, rcond=None)
    pred = design @ [slope, intercept]
    ss_res = float(np.sum((logr - pred) ** 2))
    ss_tot = float(np.sum((logr - logr.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    kappa = -float(slope)
    return ConvergenceReport(
        times=result.times.copy(), residuals=residuals,
        decay_rate=kappa if r2 >= 0.9 else None,
        r_squared=r2, fit_points=int(np.count_nonzero(mask)))


# ---------------------------------------------------------------------------
# order preservation and bounds
# ---------------------------------------------------------------------------

def comparison_test(
    ic_low: np.ndarray,
    ic_high: np.ndarray,
    grid: Grid1D,
    params: FractionalParams,
    nl: BistableCubic,
    cfg: StepperConfig,
    schedule: np.ndarray,
    operator=None,
) -> tuple[bool, float]:
    """Evolve an ordered pair with the same stepper; check order persists.

    Returns ``(ordered, min_gap)`` where ``min_gap`` is the minimum of
    (high - low) over all snapshot nodes and ``ordered`` means it stays
    above -1e-10.
    """
    lo = integrate(ic_low, schedule, cfg, grid, params, nl, operator=operator)
    hi = integrate(ic_high, schedule, cfg, grid, params, nl, operator=operator)
    gap = hi.states - lo.states
    min_gap = float(gap.min())
    return min_gap >= -1e-10, min_gap


def bounds_check(result: SimulationResult) -> tuple[float, float]:
    """(min, max) of the solution over all snapshots."""
    return float(result.states.min()), float(result.states.max())


def smoothstep(y: np.ndarray) -> np.ndarray:
    y = np.clip(y, 0.0, 1.0)
    return y * y * (3.0 - 2.0 * y)


def make_ordered_ic_pair(grid: Grid1D,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random ordered pair: a smoothstep ramp and the ramp plus bumps.

    The high member adds 1-3 nonnegative Gaussian bumps and is clipped to 1
    so both profiles stay in [0, 1].
    """
    x = grid.x
    center = rng.uniform(-grid.b / 6, grid.b / 6)
    width = rng.uniform(2.0, grid.b / 3)
    low = smoothstep((x - center) / width + 0.5)
    bump = np.zeros_like(x)
    for _ in range(int(rng.integers(1, 4))):   # 1-3 bumps
        amp = rng.uniform(0.01, 0.2)
        ctr = rng.uniform(-2 * grid.b / 3, 2 * grid.b / 3)
        wid = rng.uniform(0.5, grid.b / 6)
        bump += amp * np.exp(-((x - ctr) / wid) ** 2)
    high = np.minimum(low + bump, 1.0)
    return low, high


# ---------------------------------------------------------------------------
# heavy-tailed kernel of the pure diffusion semigroup
# ---------------------------------------------------------------------------

def green_function(params: FractionalParams, t: float, window: float = 200.0,
                   k_modes: int = 2 ** 14) -> tuple[np.ndarray, np.ndarray]:
    """Sample the diffusion kernel by discrete inversion of exp(t*psi).

    Returns ``(x, g)`` on a uniform grid spanning ``[-window/2, window/2)``.
    The kernel is a heavy-tailed probability density (tails ~ |x|^(-1-alpha)),
    so the window must be generous; ``WindowTooSmallError`` is raised when
    the boundary density exceeds 1e-6 of the peak.
    """
    for name, value in (("t", t), ("window", window)):
        if not 0.0 < value < np.inf:
            raise OutOfRangeError(
                f"kernel {name} must be positive and finite, got {value}", name)
    if k_modes < 2:
        raise OutOfRangeError(f"k_modes must be >= 2, got {k_modes}", "k_modes")
    dx = window / k_modes
    x = (np.arange(k_modes) - k_modes // 2) * dx
    xi = 2.0 * np.pi * np.fft.fftfreq(k_modes, d=dx)
    ghat = np.exp(t * riesz_feller_symbol(params, xi))
    phase = np.exp(-1j * xi * x[0])
    g = (np.fft.fft(ghat * phase) / window).real
    peak = float(g.max())
    if max(abs(g[0]), abs(g[-1])) > BOUNDARY_DENSITY_LIMIT * peak:
        raise WindowTooSmallError(
            f"boundary density {max(abs(g[0]), abs(g[-1])):.3g} exceeds "
            f"{BOUNDARY_DENSITY_LIMIT:g} of the peak {peak:.3g}; "
            f"enlarge the window")
    return x, g
