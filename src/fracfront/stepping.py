"""Method-of-lines time integration for du/dt = D u + f(u).

Two steppers, named in ``METHODS``, both for ``BistableCubic`` reactions:

* ``semi-implicit``: backward Euler on the linear operator, explicit
  reaction.  Equal steps of at most ``dt`` per snapshot interval, so a
  uniform schedule takes one step size and one solver of ``I - dt*A`` per
  run (``OperatorMatrix.factorization``), held by the run alone.  Each step
  applies the dense inverse by einsum at ``n <= DENSE_INVERSE_MAX_N`` (no
  negative entry tested, alpha = 2 included) and is an O(n log n) Toeplitz
  solve above it, nonnegative only to roundoff where the true inverse
  entries underflow: to -2e-16 absolute at theta's edge (-1.59e-16 at
  worst).  The run's stats name the solver and its setup time.  Every run
  steps as a stack of states (the cubic's ``a`` a column), one solve a step.
* ``rk-adaptive``: explicit embedded Dormand-Prince 5(4) pair with the
  standard safety-factored step controller.  Matrix-free: its right-hand
  side is ``OperatorMatrix.matvec``, one FFT correlation of the state at
  the smallest 5-smooth length >= n + M with the projection ghosts folded
  into an edge column.  First-same-as-last: a run
  evaluates the right-hand side 6 times per trial step, plus once.

``integrate_group`` steps the operator it is given, on its grid, once per
reaction through a snapshot schedule, landing on each requested time exactly
(the reported times are the schedule's floats); ``integrate`` runs one reaction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import FracfrontError, OutOfRangeError
from .grids import FractionalParams, Grid1D, _integral_count, validate_state
from .operators import OperatorMatrix, assemble_operator_matrix
from .reaction import BistableCubic

DIVERGENCE_THRESHOLD = 1e6  # far above the [0, ~1.5] range of all experiments
DT_INITIAL = 1e-3           # first trial step of rk-adaptive
MAX_STEPS = 10_000_000      # budget of accepted, and of rejected, steps per run

METHODS = ("semi-implicit", "rk-adaptive")


@dataclass(frozen=True)
class StepperConfig:
    method: str = "semi-implicit"
    dt: float = 0.02                 # semi-implicit
    abs_tol: float = 1e-6            # rk-adaptive
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.method not in METHODS:
            raise OutOfRangeError(
                f"stepper must be one of {METHODS}, got {self.method!r}", "stepper")
        for name in ("dt", "abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise OutOfRangeError(
                    f"{name} must be positive and finite, got {value}", name)


def make_schedule(t_final: float, snapshots: int) -> np.ndarray:
    """Uniform snapshot times 0 .. t_final (``snapshots`` entries).

    A positive ``t_final`` needs at least 2 snapshots, the first at t = 0,
    and must be large enough that the times are distinct doubles.
    """
    if not 0.0 <= t_final < np.inf:
        raise OutOfRangeError(
            f"t_final must be nonnegative and finite, got {t_final}", "t_final")
    snapshots = _integral_count(snapshots, "snapshots")
    least = 2 if t_final > 0 else 1
    if snapshots < least:
        raise OutOfRangeError(f"snapshots must be >= {least} when t_final = "
                              f"{t_final}, got {snapshots}", "snapshots")
    if t_final == 0:
        return np.zeros(1)
    schedule = np.linspace(0.0, t_final, snapshots)
    if np.any(np.diff(schedule) <= 0):
        raise OutOfRangeError(f"t_final = {t_final} is too small for {snapshots} "
                              f"distinct snapshot times", "t_final")
    return schedule


def _check_schedule(schedule: np.ndarray) -> np.ndarray:
    schedule = np.asarray(schedule, dtype=float)
    if schedule.ndim != 1 or len(schedule) < 1 or schedule[0] != 0.0:
        raise OutOfRangeError("schedule must start at t = 0")
    if np.any(np.diff(schedule) <= 0):
        raise OutOfRangeError("schedule times must be strictly increasing")
    return schedule


@dataclass
class SimulationResult:
    """Snapshot series plus the reaction and the grid of the operator stepped."""

    times: np.ndarray        # (k,)
    states: np.ndarray       # (k, n)
    grid: Grid1D
    nl: BistableCubic
    stats: dict = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


# ---------------------------------------------------------------------------
# semi-implicit backward Euler
# ---------------------------------------------------------------------------

def step_semi_implicit(u: np.ndarray, dt: float, solve,
                       nl: BistableCubic) -> np.ndarray:
    """Solve (I - dt*A) u_new = u + dt f(u), ``solve = A.factorization(dt)``,
    for a state or, by one solve, each row of a stack (``nl.a`` a column)."""
    return solve(u + dt * nl.f(u))


# ---------------------------------------------------------------------------
# explicit adaptive Dormand-Prince 5(4)
# ---------------------------------------------------------------------------

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_E = np.subtract(_DP_A[6] + (0.0,), _DP_B4)   # 5th minus 4th order weights

_SAFETY, _FACTOR_MIN, _FACTOR_MAX = 0.9, 0.2, 5.0   # step-size controller


def step_explicit_rk(u, f_u, dt_try, rhs, abs_tol, rel_tol):
    """One embedded 5(4) trial step of the autonomous system ``u' = rhs(u)``.

    ``f_u`` is ``rhs(u)``.  Returns ``(u_new, f_new, dt_next, accepted)``
    with ``f_new = rhs(u_new)``, the last stage (first-same-as-last); a
    rejected step returns ``u`` and ``f_u``.  The error measure is
    ``max_n |e_n| / (abs_tol + rel_tol |u_n|)`` against the pre-step state;
    the step is accepted iff it is <= 1, and the next step size follows the
    safety-factored power law with the growth factor clamped to [0.2, 5].
    """
    k = np.empty((7, u.size))   # the stages, k[0] = f_u
    k[0] = f_u
    for i in range(1, 7):
        ui = u + dt_try * np.dot(_DP_A[i], k[:i])
        k[i] = rhs(ui)
    err_vec = dt_try * (_DP_E @ k)
    err = float(np.max(np.abs(err_vec) / (abs_tol + rel_tol * np.abs(u))))
    factor = (_FACTOR_MAX if err == 0.0
              else min(_FACTOR_MAX, max(_FACTOR_MIN, _SAFETY * err ** -0.2)))
    accepted = err <= 1.0
    if accepted:
        u, f_u = ui, k[6].copy()   # a view would keep all 7 stages alive
    return u, f_u, dt_try * factor, accepted


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _widen(bounds: list, u: np.ndarray):
    """Widen each run's (min, max) in ``bounds`` by its row of the stack ``u``;
    returns the first row past ``DIVERGENCE_THRESHOLD`` or NaN, where the
    widening stops, and its ``FracfrontError``, or None if no row is."""
    extremes = zip(u.min(axis=1).tolist(), u.max(axis=1).tolist())   # NaN if any is
    for j, (lo, hi) in enumerate(extremes):
        if not -DIVERGENCE_THRESHOLD <= lo <= hi <= DIVERGENCE_THRESHOLD:
            return j, FracfrontError(f"|u| reached {max(-lo, hi):.3g}")
        bounds[j] = min(bounds[j][0], lo), max(bounds[j][1], hi)
    return None


def integrate(
    ic: np.ndarray,
    schedule: np.ndarray,
    cfg: StepperConfig,
    grid: Grid1D,
    params: FractionalParams,
    nl: BistableCubic,
    tail_correction: bool = False,
    operator: Optional[OperatorMatrix] = None,
) -> SimulationResult:
    """Advance the initial profile ``ic``, shape (n,), through the snapshot
    schedule: the run of ``integrate_group`` with the one reaction ``nl`` on
    ``operator``, built from ``grid``, ``params`` and ``tail_correction`` if None.

    ``stats.wall_time_s`` is the wall time of the stepping, a semi-implicit
    run's solver setup (``stats.solver_setup_s``) included; in a group, the
    group's, whose first run alone is charged the setup.
    """
    if operator is None:
        operator = assemble_operator_matrix(grid, params, tail_correction)
    return next(integrate_group(ic, schedule, cfg, operator, [nl]))


def integrate_group(ic, schedule, cfg, operator, nls):
    """Yield one run per reaction of ``nls``, in order, on ``operator`` and
    its grid, from ``ic``: a state of shape (n,) for every run, or one per
    run, shape (len(nls), n).

    Each reaction must be a ``BistableCubic``, not a subclass, and each
    initial state is checked, magnitude over 1e6 included, before the first
    step; no reaction yields no run.  Snapshots land on the scheduled times
    exactly.  Semi-implicit takes the fewest equal steps of at most ``cfg.dt``
    per interval (the previous size where they differ only in roundoff) and
    steps the runs as one stack with a column of thresholds, one solver at a
    time; rk-adaptive clips its proposals at each time and steps each run
    alone.  A run's states and stats are its lone run's, bit for bit, timings
    aside (``integrate``).  A run past 1e6 or NaN raises ``FracfrontError``
    once the runs before it are yielded, re-run from their starting states
    after the failed stack's snapshots are released; the rest stop.
    """
    schedule = _check_schedule(schedule)
    if any(type(nl) is not BistableCubic for nl in nls):   # a subclass may override f
        raise OutOfRangeError("the steppers take BistableCubic reactions only")
    if not nls:
        return
    grid, ic = operator.grid, np.asarray(ic, dtype=float)
    u = np.array([validate_state(row, grid) for row in
                  (ic if ic.shape == (len(nls), grid.n) else [ic] * len(nls))])
    # each run's (u_min, u_max), before the first f(u), which could overflow
    bounds = [(np.inf, -np.inf)] * len(nls)
    if (failed := _widen(bounds, u)) is not None:
        raise failed[1]
    if cfg.method == "rk-adaptive":
        yield from (_adaptive(row, bound, schedule, cfg, operator, nl)
                    for row, bound, nl in zip(u, bounds, nls))
        return
    spans = np.diff(schedule)
    # a count past 1.8e308 is inf; a span / dt that underflows still takes
    # one step
    with np.errstate(over="ignore"):
        counts = np.maximum(np.ceil(spans / cfg.dt * (1 - 1e-12)), 1)
    if counts.sum() > MAX_STEPS:   # before any step is taken
        raise FracfrontError(f"the schedule needs {counts.sum():.3g} steps of "
                             f"dt = {cfg.dt:g}, over MAX_STEPS = {MAX_STEPS}")
    # the runs' cubics react as one whose threshold is a column, a per run
    nl = BistableCubic(np.array([[r.a] for r in nls]))
    states = np.empty((len(nls), len(schedule), grid.n))
    states[:, 0] = u
    setup, step, solve = 0.0, cfg.dt, None
    wall0 = time.perf_counter()
    for i, (span, count) in enumerate(zip(spans, counts.astype(int)), start=1):
        if abs(span / count - step) > 1e-12 * step:
            step, solve = span / count, None   # dropped before the next is built
        if solve is None:
            t0 = time.perf_counter()
            solve = operator.factorization(step)
            setup += time.perf_counter() - t0
        for _ in range(count):
            u = step_semi_implicit(u, step, solve, nl)
            if (failed := _widen(bounds, u)) is not None:
                # the runs before it re-run from their starting states, this
                # stack's snapshots and solver released first; those after stop
                j = failed[0]
                ic, states, u, solve = states[:j, 0].copy(), None, None, None
                yield from integrate_group(ic, schedule, cfg, operator, nls[:j])
                raise failed[1]
        states[:, i] = u
    stats = {"steps": int(counts.sum()), "rejected_steps": 0,
             "solver": operator.solver, "wall_time_s": time.perf_counter() - wall0}
    for j, (u_min, u_max) in enumerate(bounds):
        yield SimulationResult(schedule.copy(), states[j], grid, nls[j], {
            **stats, "solver_setup_s": 0.0 if j else setup,
            "u_min": u_min, "u_max": u_max})


def _adaptive(u, bound, schedule, cfg, operator, nl) -> SimulationResult:
    """The run of one reaction, stepped alone under its own controller."""
    stats, bounds = {"steps": 0, "rejected_steps": 0}, [bound]
    states, wall0 = [u], time.perf_counter()

    def rhs(v):
        return operator.matvec(v) + nl.f(v)

    # a trial step whose stages overflow has a NaN or infinite error
    # estimate and is rejected; each accepted state is checked
    with np.errstate(over="ignore", invalid="ignore"):
        dt, f_u = DT_INITIAL, rhs(u)
        for t, t_end in zip(schedule[:-1], schedule[1:]):
            while t < t_end:
                clipped = dt > t_end - t
                dt_try = min(dt, t_end - t)
                if dt_try < 1e-14 * schedule[-1]:
                    raise FracfrontError(f"dt = {dt_try:.3g} below 1e-14 * t_final")
                u, f_u, dt_next, accepted = step_explicit_rk(
                    u, f_u, dt_try, rhs, cfg.abs_tol, cfg.rel_tol)
                if accepted:
                    t = t_end if t_end - t <= dt_try else t + dt_try
                    stats["steps"] += 1
                    if stats["steps"] > MAX_STEPS:
                        raise FracfrontError(f"exceeded MAX_STEPS = {MAX_STEPS}")
                    if (failed := _widen(bounds, u[None])) is not None:
                        raise failed[1]
                else:
                    stats["rejected_steps"] += 1
                    if stats["rejected_steps"] > MAX_STEPS:
                        raise FracfrontError("rejection loop exceeded MAX_STEPS")
                # a boundary-clipped step must not shrink the controller state
                dt = max(dt, dt_next) if (clipped and accepted) else dt_next
            states.append(u)
    stats["u_min"], stats["u_max"] = bounds[0]
    stats["wall_time_s"] = time.perf_counter() - wall0
    return SimulationResult(schedule.copy(), np.array(states), operator.grid, nl, stats)
