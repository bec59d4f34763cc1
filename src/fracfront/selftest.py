"""Built-in invariant suite behind the ``selftest`` CLI subcommand.

Each group returns ``(passed, detail)``; the acceptance tests reuse these
functions so the command line and the test suite check the same facts:

* coefficients & symbol identities on an admissible-region lattice,
* operator correctness (annihilation, matrix/matrix-free, oracle convergence),
* the two-scheme cross-check against the fractional-difference backend,
* kernel sanity (Gaussian limit, mass, positivity, semigroup property),
* run-manifest schema completeness.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np

from .diagnostics import green_function
from .grids import FractionalParams, Grid1D
from .operators import (
    apply_riesz_feller,
    assemble_operator_matrix,
    free_space_reference,
    grunwald_letnikov_operator,
    quadrature_coefficients,
    riesz_feller_symbol,
)

# (alpha, theta) pairs with kernel windows wide enough for the heavy tails
GREEN_CASES = (
    (1.2, -0.5, 3000.0, 2 ** 15),
    (1.5, 0.3, 800.0, 2 ** 13),
    (1.6, -0.39, 600.0, 2 ** 13),
    (1.8, 0.1, 400.0, 2 ** 13),
    (1.9, 0.05, 300.0, 2 ** 13),
)

ORACLE_PAIRS = ((1.6, 0.3), (1.5, 0.0), (1.9, -0.1))
ORACLE_SIZES = (401, 801, 1601)


def admissible_lattice(n_alpha: int = 10, n_theta: int = 10):
    """n_alpha * n_theta admissible (alpha, theta) pairs."""
    pairs = []
    for alpha in np.linspace(1.02, 1.98, n_alpha):
        lim = min(alpha, 2.0 - alpha)
        for frac in np.linspace(-1.0, 1.0, n_theta):
            pairs.append((float(alpha), float(frac * lim)))
    return pairs


def check_coefficients() -> tuple[bool, str]:
    """c1, c2 >= 0, c1 + c2 > 0, skew-exchange symmetry, dissipative symbol."""
    worst_edge = 0.0
    xi = np.linspace(-50.0, 50.0, 1000)
    for alpha, theta in admissible_lattice():
        p = FractionalParams(alpha, theta)
        c1, c2 = quadrature_coefficients(p)
        if c1 < 0 or c2 < 0 or c1 + c2 <= 0:
            return False, f"sign violation at ({alpha}, {theta}): {c1}, {c2}"
        c2m, c1m = quadrature_coefficients(FractionalParams(alpha, -theta))
        if c1 != c1m or c2 != c2m:
            return False, f"c1(theta) != c2(-theta) at ({alpha}, {theta})"
        if np.any(riesz_feller_symbol(p, xi).real > 0):
            return False, f"Re psi > 0 at ({alpha}, {theta})"
        edge, _ = quadrature_coefficients(FractionalParams(alpha, 2.0 - alpha))
        worst_edge = max(worst_edge, abs(edge))
    if worst_edge > 1e-12:
        return False, f"c1(alpha, 2-alpha) reaches {worst_edge:.2e}"
    return True, f"100-point lattice; max |c1(alpha, 2-alpha)| = {worst_edge:.2e}"


def check_operator() -> tuple[bool, str]:
    """Annihilation, matrix equivalence, and oracle convergence."""
    rng = np.random.default_rng(2024)
    grid = Grid1D(30.0, 181)
    p = FractionalParams(1.7, 0.2)

    const_err = float(np.max(np.abs(
        apply_riesz_feller(np.full(grid.n, 0.7), grid, p))))
    if const_err > 1e-12:
        return False, f"constant annihilation: {const_err:.2e}"

    affine = lambda x: 0.3 + 0.7 * x
    aff_err = float(np.max(np.abs(
        apply_riesz_feller(affine(grid.x), grid, p, ghosts=affine))))
    if aff_err > 1e-10:
        return False, f"affine annihilation: {aff_err:.2e}"

    worst_rel = 0.0
    # n = 161 applies at 243 = 3^5 points: an odd transform length catches
    # a wrapped or mis-sized transform that even lengths can hide
    for g in (grid, Grid1D(30.0, 161)):
        A = assemble_operator_matrix(g, p)
        for _ in range(20):
            u = rng.standard_normal(g.n)
            direct = apply_riesz_feller(u, g, p)
            via_matrix = A.entries @ u
            worst_rel = max(worst_rel, float(
                np.max(np.abs(via_matrix - direct)) / np.max(np.abs(via_matrix))))
    if worst_rel > 1e-12:
        return False, f"matrix vs matrix-free: {worst_rel:.2e}"

    gauss = lambda x: np.exp(-x ** 2)
    final_errs = []
    for alpha, theta in ORACLE_PAIRS:
        errs = []
        for n in ORACLE_SIZES:
            g = Grid1D(30.0, n)
            pp = FractionalParams(alpha, theta)
            ref = free_space_reference(gauss, g, pp)
            got = apply_riesz_feller(gauss(g.x), g, pp, ghosts=gauss,
                                     tail_correction=True)
            errs.append(float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))))
        if not (errs[0] > errs[1] > errs[2]):
            return False, f"error not strictly decreasing at {(alpha, theta)}: {errs}"
        if errs[-1] > 0.05:
            return False, f"final error {errs[-1]:.3f} > 5% at {(alpha, theta)}"
        final_errs.append(errs[-1])
    return True, ("const/affine/matrix OK (n = 181, 161); oracle rel errors "
                  "at n=1601: "
                  + ", ".join(f"{e:.4f}" for e in final_errs))


def check_grunwald() -> tuple[bool, str]:
    """Fractional-difference backend agrees with the quadrature scheme."""
    worst = 0.0
    for alpha in (1.2, 1.5, 1.8):
        grid = Grid1D(10.0, 1601)
        p = FractionalParams(alpha, 0.0)
        u = np.exp(-grid.x ** 2)
        v_quad = apply_riesz_feller(u, grid, p, tail_correction=True)
        v_gl = grunwald_letnikov_operator(grid, alpha).matvec(u)
        mask = np.abs(grid.x) <= grid.b / 2
        rel = float(np.max(np.abs(v_gl - v_quad)[mask])
                    / np.max(np.abs(v_quad[mask])))
        if rel > 0.05:
            return False, f"alpha={alpha}: disagreement {rel:.3f} > 5%"
        worst = max(worst, rel)
    return True, f"worst relative L-inf over alpha in (1.2, 1.5, 1.8): {worst:.4f}"


def check_green() -> tuple[bool, str]:
    """Gaussian limit, unit mass, positivity, and the semigroup property."""
    x, g = green_function(FractionalParams(2.0, 0.0), t=1.0,
                          window=200.0, k_modes=2 ** 14)
    heat = np.exp(-x ** 2 / 4.0) / math.sqrt(4.0 * math.pi)
    gauss_err = float(np.max(np.abs(g - heat)))
    if gauss_err > 1e-8:
        return False, f"Gaussian limit: {gauss_err:.2e}"

    for alpha, theta, window, k in GREEN_CASES:
        x, g = green_function(FractionalParams(alpha, theta), t=1.0,
                              window=window, k_modes=k)
        mass = float(np.sum(g) * (x[1] - x[0]))
        if abs(mass - 1.0) > 1e-3:
            return False, f"mass {mass} at ({alpha}, {theta})"
        if g.min() < -1e-8:
            return False, f"negative density {g.min():.2e} at ({alpha}, {theta})"

    p = FractionalParams(1.5, 0.3)
    k = 2 ** 13
    x, g_half = green_function(p, t=0.5, window=800.0, k_modes=k)
    _, g_full = green_function(p, t=1.0, window=800.0, k_modes=k)
    dx = x[1] - x[0]
    conv_full = np.convolve(g_half, g_half) * dx
    two_route = conv_full[k // 2:k // 2 + k]
    semi_err = float(np.max(np.abs(two_route - g_full)))
    if semi_err > 1e-4:
        return False, f"semigroup two-route error {semi_err:.2e}"
    return True, (f"Gaussian {gauss_err:.1e}; 5 mass/positivity cases OK; "
                  f"semigroup {semi_err:.1e}")


def check_manifest_schema() -> tuple[bool, str]:
    """A tiny run writes a manifest containing every required field."""
    from .runio import (
        MANIFEST_DERIVED_KEYS,
        MANIFEST_REQUIRED_KEYS,
        RunConfig,
        run_simulation,
        write_manifest,
    )

    config = RunConfig(alpha=1.8, theta=0.1, n=61, b=10.0, t_final=1.0,
                       dt=0.05, snapshots=6)
    result, diag = run_simulation(config)
    with tempfile.TemporaryDirectory() as tmp:
        man_path = Path(tmp) / "manifest.json"
        write_manifest(result, diag, config, man_path)
        manifest = json.loads(man_path.read_text())
    missing = [k for k in MANIFEST_REQUIRED_KEYS if k not in manifest]
    missing += [f"derived.{k}" for k in MANIFEST_DERIVED_KEYS
                if k not in manifest.get("derived", {})]
    for k in ("steps", "rejected_steps", "wall_time_s", "solver",
              "solver_setup_s"):
        if k not in manifest.get("stats", {}):
            missing.append(f"stats.{k}")
    for k in ("speed", "decay_rate"):
        if k not in manifest.get("diagnostics", {}):
            missing.append(f"diagnostics.{k}")
    if missing:
        return False, "missing fields: " + ", ".join(missing)
    solver = manifest["stats"]["solver"]
    if solver != "dense-inverse":   # n = 61 is below DENSE_INVERSE_MAX_N
        return False, f"stats.solver is {solver!r} at n = {config.n}"
    return True, f"all required manifest fields present; solver {solver}"


GROUPS = (
    ("coefficients-and-symbol", check_coefficients),
    ("operator-correctness", check_operator),
    ("grunwald-letnikov-crosscheck", check_grunwald),
    ("green-function", check_green),
    ("manifest-schema", check_manifest_schema),
)


def run_selftest() -> int:
    """Run every group; returns 0 when all pass, 1 otherwise."""
    failures = 0
    for name, fn in GROUPS:
        try:
            ok, detail = fn()
        except Exception as exc:  # surface, keep going
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1
