"""Method-of-lines time integration for du/dt = D u + f(u).

Two steppers, named in ``METHODS``:

* ``semi-implicit``: backward Euler on the linear operator, explicit
  reaction.  Equal steps of at most ``dt`` per snapshot interval, so a
  uniform schedule takes one step size and one cached solver of
  ``I - dt*A`` per run (``OperatorMatrix.factorization``).  Each step is
  one dense mat-vec at ``n <= DENSE_INVERSE_MAX_N`` and an O(n log n)
  Toeplitz solve above it; there the step keeps nonnegativity only to
  roundoff (below 1e-16 absolute where the true inverse entries underflow,
  as at alpha = 2 or theta at its edge).  The run's stats name the solver
  and its setup time.
* ``rk-adaptive``: explicit embedded Dormand-Prince 5(4) pair with the
  standard safety-factored step controller.  Matrix-free: its right-hand
  side is ``OperatorMatrix.matvec``, one FFT correlation of the state at
  the smallest 5-smooth length >= n + M with the projection ghosts folded
  into an edge column.  First-same-as-last: a run
  evaluates the right-hand side 6 times per trial step, plus once.

``integrate`` drives either of them through a snapshot schedule, landing on
each requested time exactly (the reported times are the schedule's floats).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DivergedError, OutOfRangeError, StepLimitError, StepUnderflowError
from .grids import FractionalParams, Grid1D, validate_state
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

    A positive ``t_final`` needs at least 2 snapshots, the first at t = 0.
    """
    if not 0.0 <= t_final < np.inf:
        raise OutOfRangeError(
            f"t_final must be nonnegative and finite, got {t_final}", "t_final")
    least = 2 if t_final > 0 else 1
    if snapshots < least:
        raise OutOfRangeError(f"snapshots must be >= {least} when t_final = "
                              f"{t_final}, got {snapshots}", "snapshots")
    if t_final == 0:
        return np.zeros(1)
    return np.linspace(0.0, t_final, snapshots)


def _check_schedule(schedule: np.ndarray) -> np.ndarray:
    schedule = np.asarray(schedule, dtype=float)
    if schedule.ndim != 1 or len(schedule) < 1 or schedule[0] != 0.0:
        raise OutOfRangeError("schedule must start at t = 0")
    if np.any(np.diff(schedule) <= 0):
        raise OutOfRangeError("schedule times must be strictly increasing")
    return schedule


@dataclass
class SimulationResult:
    """Snapshot series plus the grid, operator parameters and reaction."""

    times: np.ndarray        # (k,)
    states: np.ndarray       # (k, n)
    grid: Grid1D
    params: FractionalParams
    nl: BistableCubic
    stats: dict = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


# ---------------------------------------------------------------------------
# semi-implicit backward Euler
# ---------------------------------------------------------------------------

def step_semi_implicit(u: np.ndarray, dt: float, A: OperatorMatrix,
                       nl: Optional[BistableCubic]) -> np.ndarray:
    """Solve (I - dt*A) u_new = u + dt f(u)."""
    rhs = u + dt * nl.f(u) if nl is not None else u
    return A.factorization(dt) @ rhs


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

def integrate(
    ic: np.ndarray,
    schedule: np.ndarray,
    cfg: StepperConfig,
    grid: Grid1D,
    params: FractionalParams,
    nl: Optional[BistableCubic],
    tail_correction: bool = False,
    operator: Optional[OperatorMatrix] = None,
) -> SimulationResult:
    """Advance the initial profile through the snapshot schedule.

    Snapshots are taken exactly at the scheduled times (the semi-implicit
    method splits each interval into the fewest equal steps of at most
    ``cfg.dt``, reusing the previous size where they differ only in
    roundoff; the adaptive method clips its proposals at the boundary).
    Deterministic for fixed inputs.  Raises ``DivergedError`` if the
    solution magnitude exceeds 1e6.
    """
    schedule = _check_schedule(schedule)
    u = validate_state(ic, grid).copy()
    if operator is None:
        operator = assemble_operator_matrix(grid, params, tail_correction)

    stats = {"steps": 0, "rejected_steps": 0,
             "u_min": float(u.min()), "u_max": float(u.max())}
    states = [u.copy()]
    wall0 = time.perf_counter()

    def bookkeep(v):
        stats["steps"] += 1
        if stats["steps"] > MAX_STEPS:
            raise StepLimitError(f"exceeded MAX_STEPS = {MAX_STEPS}")
        lo, hi = float(v.min()), float(v.max())   # NaN if any entry is NaN
        if not -DIVERGENCE_THRESHOLD <= lo <= hi <= DIVERGENCE_THRESHOLD:
            raise DivergedError(f"|u| reached {max(-lo, hi):.3g}")
        stats["u_min"] = min(stats["u_min"], lo)
        stats["u_max"] = max(stats["u_max"], hi)

    if cfg.method == "semi-implicit":
        stats.update(solver=operator.solver, solver_setup_s=0.0)
        step = cfg.dt
        for span in np.diff(schedule):
            count = math.ceil(span / cfg.dt * (1 - 1e-12))
            if abs(span / count - step) > 1e-12 * step:
                step = span / count
            if not operator.factorized(step):  # a shared operator may hold it
                t0 = time.perf_counter()
                operator.factorization(step)
                stats["solver_setup_s"] += time.perf_counter() - t0
            for _ in range(count):
                u = step_semi_implicit(u, step, operator, nl)
                bookkeep(u)
            states.append(u.copy())
    else:  # rk-adaptive
        def rhs(v):
            Av = operator.matvec(v)
            return Av + nl.f(v) if nl is not None else Av

        dt, f_u = DT_INITIAL, rhs(u)
        for t, t_end in zip(schedule[:-1], schedule[1:]):
            while t < t_end:
                clipped = dt > t_end - t
                dt_try = min(dt, t_end - t)
                if dt_try < 1e-14 * schedule[-1]:
                    raise StepUnderflowError(f"dt = {dt_try:.3g} below 1e-14 * t_final")
                u, f_u, dt_next, accepted = step_explicit_rk(
                    u, f_u, dt_try, rhs, cfg.abs_tol, cfg.rel_tol)
                if accepted:
                    t = t_end if t_end - t <= dt_try else t + dt_try
                    bookkeep(u)
                else:
                    stats["rejected_steps"] += 1
                    if stats["rejected_steps"] > MAX_STEPS:
                        raise StepLimitError("rejection loop exceeded MAX_STEPS")
                # a boundary-clipped step must not shrink the controller state
                dt = max(dt, dt_next) if (clipped and accepted) else dt_next
            states.append(u.copy())

    stats["wall_time_s"] = time.perf_counter() - wall0
    return SimulationResult(times=schedule.copy(), states=np.array(states),
                            grid=grid, params=params, nl=nl, stats=stats)
