"""Seeded workload generator: configuration grids, draws and CLI argv.

Configurations are drawn from small discrete grids so that every
configuration any seed can produce has a reference result in
``reference.json`` (written by ``reference.py``).  A draw depends only on the
workload name, the seed and the draw index.
"""

from __future__ import annotations

import random

A_VALUES = (0.3, 0.4, 0.6, 0.7)
# theta as a fraction of its admissible limit min(alpha, 2 - alpha)
THETA_FRACTIONS = (-0.5, 0.0, 0.5)


def _pairs(alphas):
    return [(alpha, round(frac * min(alpha, 2.0 - alpha), 6))
            for alpha in alphas for frac in THETA_FRACTIONS]


# alpha = 1.9 is left out: some of its decay fits sit near the r^2 >= 0.9
# cut-off, so a reference there could flip between a rate and None
ALPHAS = (1.3, 1.5, 1.7)
PAIRS = _pairs(ALPHAS)
EDGE_ALPHA = 1.5
EDGE_THETAS = (0.30, 0.33, 0.36, 0.39, 0.42, 0.45)  # admissible up to 0.5
EDGE_A_VALUES = (0.3, 0.7)

# Shared settings of every configuration of a workload, as CLI flags.  The
# cli-default flags repeat the CLI defaults so that a change of default is
# not silently benchmarked.
FIXED_FLAGS = {
    "cli-default": {"b": 30.0, "n": 181, "t-final": 20.0, "dt": 0.02,
                    "snapshots": 21, "ic": "chen", "stepper": "semi-implicit"},
    "sweep-fine": {"b": 30.0, "n": 1601, "t-final": 20.0, "dt": 0.02,
                   "snapshots": 21, "ic": "chen", "stepper": "semi-implicit"},
    "adaptive-edge": {"b": 30.0, "n": 1601, "t-final": 5.0, "snapshots": 11,
                      "ic": "chen", "stepper": "rk-adaptive",
                      "abs-tol": 1e-6, "rel-tol": 1e-6},
}
WORKLOADS = tuple(FIXED_FLAGS)

# Fewest CLI calls a timed run makes, whatever --seconds says.
MIN_CALLS = {"cli-default": 8, "sweep-fine": 1, "adaptive-edge": 2}
# Each CLI call runs in its own interpreter (cli-default) or all calls of a
# run share one interpreter (the in-process workloads).
SUBPROCESS_PER_CALL = {"cli-default": True, "sweep-fine": False,
                       "adaptive-edge": False}


def config_key(alpha: float, theta: float, a: float) -> str:
    return f"alpha={alpha:g},theta={theta:g},a={a:g}"


def draw_call(workload: str, seed: int, index: int) -> list[dict]:
    """The configurations of CLI call ``index`` of a run with ``seed``.

    Each configuration is a dict with ``alpha``, ``theta`` and ``a``.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "cli-default":
        alpha, theta = rng.choice(PAIRS)
        return [{"alpha": alpha, "theta": theta, "a": rng.choice(A_VALUES)}]
    if workload == "sweep-fine":
        # 2 (alpha, theta) pairs x 2 values of a, in the order the sweep
        # runs them.  The sweep is a cartesian product, so both pairs share
        # alpha.  The operator does not depend on a: half the
        # configurations share their operator with an earlier one.
        alpha = rng.choice(ALPHAS)
        thetas = rng.sample([th for al, th in PAIRS if al == alpha], 2)
        a_values = rng.sample(A_VALUES, 2)
        return [{"alpha": alpha, "theta": theta, "a": a}
                for theta in thetas for a in a_values]
    if workload == "adaptive-edge":
        # theta sets the step count (about 490 to 570 accepted steps), so a
        # run takes the thetas in a seeded order without repeats: runs of
        # equal length then see the same thetas
        thetas = random.Random(f"{workload}:{seed}").sample(
            EDGE_THETAS, len(EDGE_THETAS))
        return [{"alpha": EDGE_ALPHA, "theta": thetas[index % len(thetas)],
                 "a": rng.choice(EDGE_A_VALUES)}]
    raise ValueError(f"unknown workload {workload!r}")


def grid_configs(workload: str) -> list[dict]:
    """Every configuration a draw of ``workload`` can produce."""
    if workload in ("cli-default", "sweep-fine"):
        return [{"alpha": al, "theta": th, "a": a}
                for al, th in PAIRS for a in A_VALUES]
    if workload == "adaptive-edge":
        return [{"alpha": EDGE_ALPHA, "theta": th, "a": a}
                for th in EDGE_THETAS for a in EDGE_A_VALUES]
    raise ValueError(f"unknown workload {workload!r}")


def _flag_args(flags: dict) -> list[str]:
    # "--x=v" keeps negative values from being read as flags
    return [f"--{name}={value!r}" if isinstance(value, float)
            else f"--{name}={value}" for name, value in flags.items()]


def simulate_argv(workload: str, config: dict, out: str) -> list[str]:
    flags = {"alpha": config["alpha"], "theta": config["theta"],
             "a": config["a"], **FIXED_FLAGS[workload]}
    return ["simulate", *_flag_args(flags), f"--out={out}"]


def sweep_argv(workload: str, configs: list[dict], out: str) -> list[str]:
    """One ``sweep`` call whose cartesian product is exactly ``configs``."""
    alphas = list(dict.fromkeys(c["alpha"] for c in configs))
    thetas = list(dict.fromkeys(c["theta"] for c in configs))
    a_values = list(dict.fromkeys(c["a"] for c in configs))
    return ["sweep", f"--alphas={','.join(repr(v) for v in alphas)}",
            f"--thetas={','.join(repr(v) for v in thetas)}",
            f"--a-list={','.join(repr(v) for v in a_values)}",
            *_flag_args(FIXED_FLAGS[workload]), f"--out={out}"]
