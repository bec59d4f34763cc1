"""Recovery from initial data outside the stable band.

A discontinuous initial step between 0.49 and 1.51 starts above the stable
state 1 on half the line.  The excess is burned off quickly (the maximum
relaxes monotonically toward 1) and the solution still converges to a
front profile, faster for larger diffusion orders.  The residuals printed
are those the relaxation-rate fit used (``report.fitted``).
"""

import numpy as np

import fracfront as ff

grid = ff.Grid1D(30.0, 181)
nl = ff.BistableCubic(0.5)
cfg = ff.StepperConfig(method="semi-implicit", dt=0.005)
schedule = ff.make_schedule(2.0, 41)
ic = ff.step_profile(grid.x, lo=0.49, hi=1.51)

for alpha in (1.8, 1.2, 1.01):
    params = ff.FractionalParams(alpha, 0.1)
    res = ff.integrate(ic, schedule, cfg, grid, params, nl)
    maxima = res.states.max(axis=1)
    after = maxima[res.times >= 0.1]
    report = ff.estimate_decay_rate(res)
    window = report.residuals[report.fitted]
    print(f"alpha = {alpha}:")
    print(f"  max u: 1.51 -> {maxima[-1]:.4f} over t in [0, 2] "
          f"(monotone after t = 0.1: {bool(np.all(np.diff(after) <= 1e-12))})")
    print(f"  shift-matched residual vs final profile: "
          f"{window[0]:.3f} -> {window[-1]:.2e}")
    print(f"  fitted relaxation rate: {report.decay_rate} "
          f"(R^2 = {report.r_squared:.3f})")
    print()
