"""Four routes to the same nonlocal operator.

Applies the skewed fractional diffusion operator to a Gaussian with the
quadrature scheme and checks it against the spectral multiplier (the exact
answer on a wide periodic extension), then shows the symmetric-case
agreement with the fractional-difference backend and the classical limit.
"""

import numpy as np

import fracfront as ff

gauss = lambda x: np.exp(-x ** 2)

print("=== quadrature scheme vs spectral oracle ===")
print("rel. L-inf error of the quadrature apply on a Gaussian, b = 30:")
print(f"{'(alpha, theta)':>16} {'n=401':>10} {'n=801':>10} {'n=1601':>10}")
for alpha, theta in ((1.6, 0.3), (1.5, 0.0), (1.9, -0.1)):
    params = ff.FractionalParams(alpha, theta)
    errs = []
    for n in (401, 801, 1601):
        grid = ff.Grid1D(30.0, n)
        oracle = ff.free_space_reference(gauss, grid, params)
        mine = ff.apply_riesz_feller(gauss(grid.x), grid, params,
                                     ghosts=gauss, tail_correction=True)
        errs.append(np.max(np.abs(mine - oracle)) / np.max(np.abs(oracle)))
    print(f"{str((alpha, theta)):>16} " + " ".join(f"{e:10.2e}" for e in errs))

print()
print("=== symmetric case: two independent discretizations ===")
grid = ff.Grid1D(10.0, 1601)
for alpha in (1.2, 1.5, 1.8):
    params = ff.FractionalParams(alpha, 0.0)
    u = gauss(grid.x)
    v_quad = ff.apply_riesz_feller(u, grid, params, tail_correction=True)
    v_gl = ff.grunwald_letnikov_operator(grid, alpha).matvec(u)
    mask = np.abs(grid.x) <= 5.0
    rel = np.max(np.abs(v_gl - v_quad)[mask]) / np.max(np.abs(v_quad[mask]))
    print(f"alpha = {alpha}: quadrature vs fractional differences "
          f"rel. L-inf = {rel:.2e}")

print()
print("=== classical endpoint ===")
grid = ff.Grid1D(30.0, 801)
oracle = ff.free_space_reference(gauss, grid, ff.FractionalParams(2.0, 0.0))
exact = (4 * grid.x ** 2 - 2) * gauss(grid.x)
print(f"spectral backend vs analytic second derivative: "
      f"L-inf = {np.max(np.abs(oracle - exact)):.2e}")
lap = ff.apply_riesz_feller(gauss(grid.x), grid, ff.FractionalParams(2.0, 0.0),
                           ghosts=gauss)
print(f"second central difference vs analytic:            "
      f"L-inf = {np.max(np.abs(lap - exact)):.2e}  (O(h^2))")

print()
print("=== structure of the operator ===")
grid = ff.Grid1D(30.0, 181)
params = ff.FractionalParams(1.8, 0.1)
A = ff.assemble_operator_matrix(grid, params)
print(f"row sums (constants are annihilated): "
      f"max |sum| = {np.max(np.abs(A.entries.sum(axis=1))):.2e}")
affine = lambda x: 0.25 + 0.5 * x
v = ff.apply_riesz_feller(affine(grid.x), grid, params, ghosts=affine)
print(f"affine profiles in free space:        "
      f"max |D(a + b x)| = {np.max(np.abs(v)):.2e}")
