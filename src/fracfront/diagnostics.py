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

from .errors import FracfrontError, OutOfRangeError
from .grids import FractionalParams, Grid1D, _integral_count, validate_state
from .operators import assemble_operator_matrix, riesz_feller_symbol
from .reaction import BistableCubic
from .stepping import SimulationResult, StepperConfig, integrate_group

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


def make_ic(variant: str, grid: Grid1D, step_lo: float = STEP_LO,
            step_hi: float = STEP_HI) -> np.ndarray:
    """Sample the named initial profile at the grid nodes.

    ``variant`` is "chen" or "step" (levels ``step_lo``, ``step_hi``); any
    other profile goes to ``integrate`` as an array of nodal values.
    """
    for name, value in (("step_lo", step_lo), ("step_hi", step_hi)):
        if not np.isfinite(value):
            raise OutOfRangeError(f"{name} must be finite, got {value}", name)
    if variant == "chen":
        return chen_ramp(grid.x)
    if variant == "step":
        return step_profile(grid.x, step_lo, step_hi)
    raise OutOfRangeError(
        f"initial condition must be chen or step, got {variant!r}", "ic")


# ---------------------------------------------------------------------------
# front tracking and wave speed
# ---------------------------------------------------------------------------

def front_position(u: np.ndarray, grid: Grid1D, level: float) -> float:
    """x where the profile crosses ``level``, by linear interpolation.

    If several cells bracket the level, the crossing nearest the origin is
    returned.  Raises ``FracfrontError`` when the profile never brackets it.
    """
    u = np.asarray(u, dtype=float)
    d = u - level
    bracket = np.nonzero((d[:-1] * d[1:] <= 0) & (u[:-1] != u[1:]))[0]
    if len(bracket) == 0:
        raise FracfrontError(f"profile never crosses level {level}")
    x = grid.x
    crossings = x[bracket] + (level - u[bracket]) * (
        x[bracket + 1] - x[bracket]) / (u[bracket + 1] - u[bracket])
    return float(crossings[np.argmin(np.abs(crossings))])


def _fit_line(ts: np.ndarray, ys: np.ndarray):
    """Least-squares ``ys ~ slope * ts + intercept``: slope, intercept, residuals.

    The closed form runs in the scaled time tau = (t - t0) / (t_last - t0),
    which lies in [0, 1], so times far from 1 cost no digits.  Raises
    ``FracfrontError`` when the slope or the intercept is not finite, e.g.
    when the time span overflows or is too short for the slope.
    """
    with np.errstate(all="ignore"):   # checked below
        span = ts[-1] - ts[0]
        tau = (ts - ts[0]) / span
        tau_mean, y_mean = tau.mean(), ys.mean()
        dtau, dy = tau - tau_mean, ys - y_mean
        slope_tau = np.sum(dtau * dy) / np.sum(dtau * dtau)
        slope = slope_tau / span
        intercept = y_mean - slope_tau * tau_mean - slope * ts[0]
        resid = dy - slope_tau * dtau
    if not (np.isfinite(slope) and np.isfinite(intercept)):
        raise FracfrontError(f"line fit over t in [{ts[0]:g}, {ts[-1]:g}] is not "
                             f"finite (slope {slope:g}, intercept {intercept:g})")
    return slope, intercept, resid


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
        if result.nl is None:   # read back without a
            raise OutOfRangeError("the result has no reaction; give the "
                                  "level to track", "level")
        level = result.nl.a
    if not abs(level) < np.inf:
        raise OutOfRangeError(f"level must be finite, got {level}", "level")
    # the last floor(count * fit_window), an integer up to rounding counting as itself
    k0 = len(result.times) - int(len(result.times) * fit_window * (1 + 1e-12))
    ts = result.times[k0:]
    if len(ts) < 4:   # the run is at fault when no window would reach 4
        raise OutOfRangeError(f"speed fit needs at least 4 snapshots in the "
                              f"window, the run has {len(result.times)}",
                              "snapshots" if len(result.times) < 4 else "fit_window")
    fronts = np.array([front_position(result.states[k], result.grid, level)
                       for k in range(k0, len(result.times))])
    slope, intercept, resid = _fit_line(ts, fronts)
    return SpeedEstimate(
        speed=float(slope), intercept=float(intercept),
        residual=float(np.sqrt(np.mean(resid ** 2))),
        front_track=list(zip(ts.tolist(), fronts.tolist())))


# ---------------------------------------------------------------------------
# profile distance modulo translation
# ---------------------------------------------------------------------------

def _cell_minimum(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """Exact minimum over t in [0, 1] of ``max_j |d_j - t e_j|``, and its t.

    Kelley's cutting planes on the lines ``+-(d_j - t e_j)``: probe where the
    largest lines at a bracket's two ends cross, until a probe's largest line
    is one of those two.  No tolerance is needed.
    """
    def largest(t):   # t, then value, slope and identity of the largest line
        r = d - t * e
        j = int(np.argmax(np.abs(r)))
        s = 1.0 if r[j] >= 0.0 else -1.0
        return t, s * float(r[j]), -s * float(e[j]), (j, s)

    ends = [largest(0.0), largest(1.0)]
    while ends[0][2] < 0.0 < ends[1][2]:
        (t0, f0, g0, line0), (t1, f1, g1, line1) = ends
        t = (f1 - f0 + g0 * t0 - g1 * t1) / (g0 - g1)
        if not t0 < t < t1:   # the bracket cannot shrink in floating point
            break
        probe = largest(t)
        ends[probe[2] > 0.0] = probe   # it replaces the end on its slope's side
        if probe[3] in (line0, line1):
            break
    return min((value, t) for t, value, _, _ in ends)


def shift_matched_residual(u1: np.ndarray, u2: np.ndarray,
                           grid: Grid1D) -> tuple[float, float]:
    """L-inf distance between u2 and its best-matching translate of u1.

    The rows, windows of ``u1`` padded with its end values, are its translates
    by whole cells in [-b/2, b/2]; between rows k and k + 1 the translate is
    their blend.  Each row's residual is bounded below by its value at every
    ``isqrt(n)``-th node, and across a cell the residual changes by at most
    L = max|diff u1|, so it stays above (low_k + low_(k+1) - L) / 2 there.
    ``_cell_minimum`` searches the cells in order of that bound, from the
    zero shift's residual (so ties keep 0), until the bound reaches the best
    value found: the result is the minimum over all shifts in [-b/2, b/2].
    Returns ``(residual, shift)``, ``u2 ~ u1(. - shift)``.
    """
    u1, u2 = validate_state(u1, grid), validate_state(u2, grid)
    n, h = grid.n, grid.h
    kmax = (n - 1) // 4   # b / 2 / h in integers
    # scan[k + kmax] is u1 translated by k cells, |k| <= kmax
    scan = np.lib.stride_tricks.sliding_window_view(np.pad(u1, kmax, "edge"), n)[::-1]
    best, shift = float(np.max(np.abs(u2 - u1))), float(kmax)
    low = np.zeros(2 * kmax + 1)
    for j in range(0, n, math.isqrt(n)):   # node j of every row at once
        np.maximum(low, np.abs(u2[j] - scan[:, j]), out=low)
    lower = np.maximum(low[:-1] + low[1:] - np.max(np.abs(np.diff(u1))), 0.0) / 2
    while lower.size and lower.min() < best:
        k = int(np.argmin(lower))
        lower[k] = np.inf
        r, t = _cell_minimum(u2 - scan[k], scan[k + 1] - scan[k])
        if r < best:
            best, shift = r, k + t
    return best, float((shift - kmax) * h)


@dataclass
class ConvergenceReport:
    residuals: np.ndarray            # shift-matched L-inf per snapshot
    fitted: np.ndarray               # mask of the residuals the fit used
    decay_rate: Optional[float]      # reported only when r_squared >= 0.9
    r_squared: float


def estimate_decay_rate(result: SimulationResult) -> ConvergenceReport:
    """Exponential-decay fit of the shift-matched residual history.

    The residual of each snapshot against the final snapshot (whose own
    residual is 0 and not computed) is fitted as log r = log K - kappa t
    over the window where r lies in [1e-10, 1e-1].  Raises
    ``FracfrontError`` when fewer than two residuals fall in that window.
    """
    if len(result.times) < 6:
        raise OutOfRangeError("decay fit needs at least 6 snapshots")
    residuals = np.array([
        shift_matched_residual(state, result.final, result.grid)[0]
        for state in result.states[:-1]] + [0.0])
    mask = (residuals >= 1e-10) & (residuals <= 1e-1)
    if np.count_nonzero(mask) < 2:
        raise FracfrontError(
            "no usable residuals in [1e-10, 1e-1]; "
            "the run may already sit on the steady profile")
    ts = result.times[mask]
    logr = np.log(residuals[mask])
    slope, _, resid = _fit_line(ts, logr)
    ss_tot = float(np.sum((logr - logr.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return ConvergenceReport(
        residuals=residuals, fitted=mask,
        decay_rate=-float(slope) if r2 >= 0.9 else None, r_squared=r2)


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
    """Evolve an ordered pair as one two-row stack on ``operator`` and its
    grid (built from ``grid`` and ``params`` if None); check order persists:
    ``(ordered, min_gap)``, ``min_gap`` the minimum of (high - low) over all
    snapshot nodes, ``ordered`` that it stays above -1e-10.
    """
    if operator is None:
        operator = assemble_operator_matrix(grid, params)
    pair = np.array([validate_state(ic, operator.grid) for ic in (ic_low, ic_high)])
    lo, hi = integrate_group(pair, schedule, cfg, operator, [nl, nl])
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
    so the window must be generous; ``FracfrontError`` is raised when
    the boundary density exceeds 1e-6 of the peak, or when a sample is not
    finite (``|xi|^alpha`` overflows on a tiny window).
    """
    for name, value in (("t", t), ("window", window)):
        if not 0.0 < value < np.inf:
            raise OutOfRangeError(
                f"kernel {name} must be positive and finite, got {value}", name)
    k_modes = _integral_count(k_modes, "k_modes")
    if k_modes < 2:
        raise OutOfRangeError(f"k_modes must be >= 2, got {k_modes}", "k_modes")
    dx = window / k_modes
    x = (np.arange(k_modes) - k_modes // 2) * dx
    xi = 2.0 * np.pi * np.fft.fftfreq(k_modes, d=dx)
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        ghat = np.exp(t * riesz_feller_symbol(params, xi))
        phase = np.exp(-1j * xi * x[0])
        g = (np.fft.fft(ghat * phase) / window).real
    if not np.all(np.isfinite(g)):
        raise FracfrontError(f"the kernel at t = {t:g} sampled on window = "
                             f"{window:g} with k_modes = {k_modes} is not finite")
    peak = float(g.max())
    if max(abs(g[0]), abs(g[-1])) > BOUNDARY_DENSITY_LIMIT * peak:
        raise FracfrontError(
            f"boundary density {max(abs(g[0]), abs(g[-1])):.3g} exceeds "
            f"{BOUNDARY_DENSITY_LIMIT:g} of the peak {peak:.3g}; "
            f"enlarge the window")
    return x, g
