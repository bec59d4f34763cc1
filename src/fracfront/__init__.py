"""fracfront: bistable reaction-diffusion with skewed fractional diffusion.

A numpy library for the one-dimensional equation

    du/dt = D u + f(u),

where D is the Fourier multiplier of order alpha in (1, 2] and skewness
theta (|theta| <= min(alpha, 2 - alpha)) and f is a bistable reaction term.
It provides a singular-integral quadrature discretization of D with
projection boundary conditions (the second difference at alpha = 2),
cross-check backends (fractional differences, spectral multiplier),
semi-implicit and adaptive explicit time steppers, traveling-wave
diagnostics (front speed, shift-matched convergence, comparison and bounds
checks), and the heavy-tailed diffusion kernel.
"""

__version__ = "0.1.0"

from .diagnostics import (          # noqa: E402
    ConvergenceReport,
    SpeedEstimate,
    bounds_check,
    chen_ramp,
    comparison_test,
    estimate_decay_rate,
    estimate_speed,
    front_position,
    green_function,
    make_ic,
    make_ordered_ic_pair,
    shift_matched_residual,
    step_profile,
)
from .errors import FracfrontError, OutOfRangeError  # noqa: E402
from .grids import (                # noqa: E402
    FractionalParams,
    Grid1D,
    quadrature_nodes_weights,
    validate_state,
)
from .operators import (            # noqa: E402
    OperatorMatrix,
    apply_riesz_feller,
    assemble_operator_matrix,
    free_space_reference,
    grunwald_letnikov_operator,
    grunwald_letnikov_weights,
    quadrature_coefficients,
    riesz_feller_symbol,
    spectral_apply,
)
from .reaction import BistableCubic  # noqa: E402
from .runio import (                # noqa: E402
    RunConfig,
    read_config_file,
    read_profile_csv,
    result_from_csv,
    run_simulation,
    run_simulations,
    write_manifest,
    write_snapshot_csv,
)
from .stepping import (             # noqa: E402
    SimulationResult,
    StepperConfig,
    integrate,
    integrate_group,
    make_schedule,
    step_explicit_rk,
    step_semi_implicit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
