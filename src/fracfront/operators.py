"""Discretizations of the skewed fractional diffusion operator.

The operator of order ``alpha`` and skewness ``theta`` is the Fourier
multiplier with symbol ``psi(xi) = -|xi|^alpha * exp(i*sgn(xi)*theta*pi/2)``.
For ``1 < alpha < 2`` it has the equivalent singular-integral form

    D u(x) = c1 * I[u(x + .) - u(x) - . u'(x)]
           + c2 * I[u(x - .) - u(x) + . u'(x)],

where ``I[phi] = int_0^inf phi(xi) xi^(-1-alpha) dxi`` and

    c1 = Gamma(1+alpha) sin((alpha+theta) pi/2) / pi,
    c2 = Gamma(1+alpha) sin((alpha-theta) pi/2) / pi.

Each grid backend is one Toeplitz stencil, an ``OperatorMatrix``: weights
``K[d]`` for the offsets ``|d| <= M`` plus the weight landing beyond the M
ghost values, which folds onto the boundary nodes.  Its apply is one FFT
correlation of the ghost-extended state, O(n log n).  The implicit step
solves with ``I - dt*A``: by a dense inverse at ``n <= DENSE_INVERSE_MAX_N``,
the only place the dense matrix is built, and above it by a
``ToeplitzSolver`` in O(n log n) per step with no n x n array.  The adaptive
stepper is matrix-free.  The stencils:

* ``assemble_operator_matrix``: the primary scheme, and the one place that
  dispatches on the order: at alpha = 2, where the integral coefficients
  degenerate, it is the second central difference; otherwise trapezoid
  quadrature of the singular integrals on the sub-mesh
  ``xi_j = j*h`` (j = 1..M), with the first derivative replaced by the
  central difference and a closed-form correction that makes the rule exact
  for the locally quadratic part of the profile on [0, b].  Without that
  correction the quadrature misses the ``O(h^(2-alpha))`` mass of the
  singular cell [0, h), which is the dominant error for alpha near 2.
  Off-grid values are resolved by a ghost policy; the optional tail term
  adds the closed-form contribution of (b, inf) assuming the profile is
  constant beyond the domain.  ``apply_riesz_feller`` applies it to a
  profile.
* ``grunwald_letnikov_apply``: shifted Grunwald-Letnikov differences,
  normalized by ``-1/(2 cos(alpha pi/2))`` so that the two-sided sum
  discretizes the symmetric (theta = 0) operator.  Cross-check backend.

``spectral_apply`` is the exact multiplier on a periodic grid via the DFT:
the oracle backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import (
    DegenerateCoefficientsError,
    NonFiniteError,
    SingularSystemError,
    UnsupportedError,
)
from .grids import FractionalParams, Grid1D, quadrature_nodes_weights, validate_state

# Ghost policy: "projection" clamps off-domain reads to the boundary values;
# a callable is evaluated at the off-grid coordinates (testing / free space).
GhostPolicy = Union[str, Callable[[np.ndarray], np.ndarray]]

# Largest n whose implicit solver is the dense inverse; above it the O(n log n)
# Toeplitz solve is faster than the dense mat-vec (measured crossover)
DENSE_INVERSE_MAX_N = 1000


def riesz_feller_symbol(params: FractionalParams, xi) -> np.ndarray:
    """Fourier symbol psi(xi); its real part is <= 0 for all xi."""
    xi = np.asarray(xi, dtype=float)
    return -np.abs(xi) ** params.alpha * np.exp(
        1j * np.sign(xi) * params.theta * np.pi / 2)


def quadrature_coefficients(params: FractionalParams) -> tuple[float, float]:
    """Coefficients (c1, c2) of the singular-integral representation.

    Both are nonnegative with c1 + c2 > 0 on the admissible region, and
    c1(alpha, theta) = c2(alpha, -theta) exactly.  At alpha = 2 both vanish
    and ``assemble_operator_matrix`` uses the second difference instead.
    """
    if params.alpha == 2.0:
        raise DegenerateCoefficientsError(
            "c1 = c2 = 0 at alpha = 2; the operator is the second difference")
    g = math.gamma(1.0 + params.alpha)
    c1 = g * math.sin((params.alpha + params.theta) * math.pi / 2) / math.pi
    c2 = g * math.sin((params.alpha - params.theta) * math.pi / 2) / math.pi
    return c1, c2


def _extend(u: np.ndarray, grid: Grid1D, ghosts: GhostPolicy, m: int) -> np.ndarray:
    """State extended by m ghost values on each side."""
    if ghosts == "projection":
        left = np.full(m, u[0])
        right = np.full(m, u[-1])
    elif callable(ghosts):
        left = np.asarray(ghosts(grid.x[0] - grid.h * np.arange(m, 0, -1)),
                          dtype=float)
        right = np.asarray(ghosts(grid.x[-1] + grid.h * np.arange(1, m + 1)),
                           dtype=float)
    else:
        raise UnsupportedError(f"unknown ghost policy: {ghosts!r}")
    return np.concatenate([left, u, right])


@dataclass(eq=False)
class OperatorMatrix:
    """A discrete operator on ``grid``, stored as its Toeplitz stencil.

    ``weights[M + d]`` multiplies the value at offset ``d`` for ``|d| <= M``
    (M < n; the centre entry is zero); ``far`` is the (left, right) weight
    landing beyond the M ghost values, which folds onto the boundary nodes.
    The diagonal is ``-row_sum``, so rows sum to zero and constants are
    annihilated.  ``matvec`` applies the operator by FFT in O(n log n);
    ``entries`` is the dense matrix under projection ghosts, built afresh
    on each access, and ``entries @ u`` equals ``matvec(u)`` to roundoff.
    The solver of ``I - dt*entries`` is cached for the latest dt only, for
    implicit stepping.  At ``n <= DENSE_INVERSE_MAX_N`` it is the dense
    inverse, the only n x n array the operator keeps; above it, a
    ``ToeplitzSolver`` of O(n) arrays.
    """

    grid: Grid1D
    weights: np.ndarray
    far: tuple[float, float] = (0.0, 0.0)
    _inverse_cache: dict = field(default_factory=dict, repr=False)

    @cached_property
    def row_sum(self) -> float:
        """Total off-diagonal weight of a row."""
        return float(np.sum(self.weights)) + self.far[0] + self.far[1]

    @cached_property
    def _spectrum(self) -> np.ndarray:
        # the correlation's valid part does not wrap once the transform
        # covers the ghost-extended state
        size = 1 << (self.grid.n + len(self.weights) - 2).bit_length()
        return np.fft.rfft(self.weights[::-1], size)

    def matvec(self, u: np.ndarray,
               ghosts: GhostPolicy = "projection") -> np.ndarray:
        """Apply the operator to ``u``, off-grid values set by ``ghosts``.

        Works on ``u - u[0]``, so a constant maps to exactly zero.
        """
        m = len(self.weights) // 2
        size = 2 * (len(self._spectrum) - 1)
        we = _extend(u, self.grid, ghosts, m) - u[0]
        w = we[m:m + self.grid.n]
        corr = np.fft.irfft(np.fft.rfft(we, size) * self._spectrum, size)
        return (corr[2 * m:2 * m + self.grid.n] + self.far[1] * w[-1]
                - self.row_sum * w)

    @property
    def entries(self) -> np.ndarray:
        """Dense n x n matrix of the operator under projection ghosts."""
        n = self.grid.n
        k = np.pad(self.weights, n - 1 - len(self.weights) // 2)  # 1-n..n-1
        A = np.lib.stride_tricks.sliding_window_view(k, n)[::-1].copy()
        # the edge columns take all weight at or beyond the edge: cumulative
        # sums of the kernel from either end, plus the far weight
        A[:, 0] = self.far[0] + np.cumsum(k)[n - 1::-1]
        A[:, -1] = self.far[1] + np.cumsum(k[::-1])[:n]
        A[np.diag_indices(n)] -= self.row_sum
        return A

    @property
    def solver(self) -> str:
        """What ``factorization`` builds: "dense-inverse" or "toeplitz"."""
        return "toeplitz" if self.grid.n > DENSE_INVERSE_MAX_N else "dense-inverse"

    def factorized(self, dt: float) -> bool:
        """Whether ``factorization(dt)`` is cached."""
        return dt in self._inverse_cache

    def factorization(self, dt: float):
        """Solver of ``I - dt * entries``, cached for the latest dt only.

        ``factorization(dt) @ r`` solves ``(I - dt * entries) x = r``.  At
        ``n <= DENSE_INVERSE_MAX_N`` the solver is the dense inverse; above
        it, a ``ToeplitzSolver`` holding O(n) arrays.
        """
        if dt not in self._inverse_cache:
            self._inverse_cache.clear()  # never two solvers held
            self._inverse_cache[dt] = (ToeplitzSolver(self, dt)
                                       if self.solver == "toeplitz"
                                       else self._dense_inverse(dt))
        return self._inverse_cache[dt]

    def _dense_inverse(self, dt: float) -> np.ndarray:
        M = self.entries
        M *= -dt
        M[np.diag_indices(self.grid.n)] += 1.0
        try:
            return np.linalg.inv(M)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SingularSystemError(str(exc)) from exc


class ToeplitzSolver:
    """Solves ``(I - dt*A) x = r`` for an ``OperatorMatrix`` A in O(n log n).

    ``I - dt*A`` is a Toeplitz matrix T plus the two boundary-fold columns.
    Setup runs the nonsymmetric Levinson recursion, O(n^2), for the first
    and last columns f and g of T^-1, then refines them once against
    residuals summed directly, also O(n^2).  The Gohberg-Semencul formula

        f[0] T^-1 = L(f) U(rev g) - L(S g) U(S rev f)

    (L, U: lower/upper triangular Toeplitz with the given first column/row;
    S: the down shift) then applies T^-1 with four FFT triangular products,
    and a 2-column Woodbury correction adds the folds.  Only O(n) arrays
    are held.  Raises ``SingularSystemError`` when the recursion breaks down
    (a leading minor of T is singular) instead of returning NaN.
    """

    def __init__(self, op: OperatorMatrix, dt: float):
        n, m = op.grid.n, len(op.weights) // 2
        # k[n - 1 + d] is the stencil weight at offset d, |d| <= n - 1
        k = np.pad(op.weights, n - 1 - m)
        col = -dt * k[n - 1::-1]   # T[i, 0], i = 0..n-1
        row = -dt * k[n - 1:]      # T[0, j], j = 0..n-1
        col[0] = row[0] = 1.0 + dt * op.row_sum
        self._n, self._size = n, 1 << (2 * n - 2).bit_length()
        f, g = self._levinson(col, row)
        self._set_generators(f, g)
        # one step of iterative refinement: Levinson leaves errors of about
        # cond(T) * eps in f and g, which residuals by direct sums remove
        res = -self._toeplitz_times(col, row, np.stack([f, g], axis=1))
        res[0, 0] += 1.0
        res[-1, 1] += 1.0
        self._set_generators(f + self._apply_t(res[:, 0]),
                             g + self._apply_t(res[:, 1]))
        # the folds: weight beyond the edge, (far plus kernel cumsums) x -dt
        fold0 = op.far[0] + np.concatenate([np.cumsum(k)[n - 2::-1], [0.0]])
        fold1 = op.far[1] + np.concatenate([[0.0], np.cumsum(k[::-1])[:n - 1]])
        z = np.stack([self._apply_t(-dt * fold0), self._apply_t(-dt * fold1)],
                     axis=1)
        cap = np.eye(2) + z[[0, -1]]   # I + V^T T^-1 U, V = [e_0, e_(n-1)]
        det = cap[0, 0] * cap[1, 1] - cap[0, 1] * cap[1, 0]
        if det == 0.0 or not np.isfinite(det):
            raise SingularSystemError(
                f"boundary-fold correction is singular (det = {det})")
        self._fold = z @ np.linalg.inv(cap)   # n x 2

    def _set_generators(self, f: np.ndarray, g: np.ndarray):
        """Spectra of the Gohberg-Semencul factors of f and g."""
        spec = lambda v: np.fft.rfft(v, self._size)
        # U(rev g) and U(S rev f) act as correlations, hence the conjugates
        self._upper = (np.conj(spec(g[::-1])),
                       np.conj(spec(np.concatenate([[0.0], f[:0:-1]]))))
        self._lower = (spec(f / f[0]), spec(np.concatenate([[0.0], g[:-1]]) / f[0]))

    @staticmethod
    def _toeplitz_times(col: np.ndarray, row: np.ndarray, v: np.ndarray):
        """T @ v by direct sums over blocks of rows of at most 1 MiB."""
        n = len(col)
        windows = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([row[:0:-1], col]), n)   # windows[i] = T[i, ::-1]
        block = max(1, (1 << 17) // n)
        return np.concatenate([windows[i:i + block] @ v[::-1]
                               for i in range(0, n, block)])

    @staticmethod
    def _levinson(col: np.ndarray, row: np.ndarray):
        """First and last columns of T^-1, T[i, j] = col[i - j] or row[j - i]."""
        if col[0] == 0.0 or not np.isfinite(col[0]):
            raise SingularSystemError(f"Toeplitz diagonal is {col[0]}")
        f = g = np.array([1.0 / col[0]])
        for m in range(1, len(col)):
            # errors of the padded vectors [f, 0] and [0, g] in the new row
            ef = col[m:0:-1] @ f
            eg = row[1:m + 1] @ g
            pivot = 1.0 - ef * eg
            if pivot == 0.0 or not np.isfinite(pivot):
                raise SingularSystemError(
                    f"Levinson recursion broke down at order {m + 1}: "
                    f"pivot {pivot}")
            f0, g0 = np.append(f, 0.0), np.concatenate([[0.0], g])
            f, g = (f0 - ef * g0) / pivot, (g0 - eg * f0) / pivot
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise SingularSystemError("Levinson recursion overflowed")
        return f, g

    def _apply_t(self, r: np.ndarray) -> np.ndarray:
        """T^-1 r by the Gohberg-Semencul formula."""
        n, size = self._n, self._size
        spectrum = np.fft.rfft(r, size)
        inner = [np.fft.rfft(np.fft.irfft(spectrum * u, size)[:n], size)
                 for u in self._upper]
        return np.fft.irfft(self._lower[0] * inner[0] - self._lower[1] * inner[1],
                            size)[:n]

    def __matmul__(self, rhs: np.ndarray) -> np.ndarray:
        """The solution x of ``(I - dt*A) x = rhs``."""
        y = self._apply_t(rhs)
        return y - self._fold @ y[[0, -1]]


def _quadrature_stencil(grid: Grid1D, params: FractionalParams,
                        tail_correction: bool) -> OperatorMatrix:
    """Stencil of the primary scheme: the one place its weights combine."""
    c1, c2 = quadrature_coefficients(params)
    xi, w = quadrature_nodes_weights(grid)
    alpha, h = params.alpha, grid.h
    k1 = w / xi ** (1.0 + alpha)          # kernel weights per sub-mesh node
    s2 = float(np.sum(w / xi ** alpha))   # drift-term quadrature sum
    # defect of the rule on the quadratic ramp xi^2/2: exact integral of
    # xi^(1-alpha) over [0, b] minus its trapezoid sum over [h, b]
    q_sing = grid.b ** (2.0 - alpha) / (2.0 - alpha) - float(
        np.sum(w * xi ** (1.0 - alpha)))
    far = (0.0, 0.0)
    if tail_correction:
        t1 = grid.b ** (-alpha) / alpha              # integral of xi^(-1-alpha)
        t2 = grid.b ** (1.0 - alpha) / (alpha - 1.0)  # integral of xi^(-alpha)
        s2 += t2  # the tail's drift joins the quadrature drift
        far = (c2 * t1, c1 * t1)
    weights = np.concatenate([c2 * k1[::-1], [0.0], c1 * k1])
    drift = (c2 - c1) * s2 / (2.0 * h)
    curvature = 0.5 * (c1 + c2) * q_sing / h ** 2
    m = grid.m
    weights[m - 1] += curvature - drift
    weights[m + 1] += curvature + drift
    return OperatorMatrix(grid, weights, far)


def apply_riesz_feller(
    u: np.ndarray,
    grid: Grid1D,
    params: FractionalParams,
    ghosts: GhostPolicy = "projection",
    tail_correction: bool = False,
) -> np.ndarray:
    """Apply ``assemble_operator_matrix(grid, params, tail_correction)``.

    Parameters
    ----------
    u : ndarray
        Nodal values on ``grid``.
    ghosts : "projection" or callable
        Off-domain value policy (see module docstring).
    tail_correction : bool
        Add the closed-form (b, inf) contribution assuming the profile is
        constant beyond the domain at the boundary node values (inert at
        alpha = 2).

    Constants are annihilated exactly (all terms are value differences);
    affine profiles are annihilated to roundoff under exact ghosts.
    """
    u = validate_state(u, grid)
    v = assemble_operator_matrix(grid, params, tail_correction).matvec(u, ghosts)
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("operator output contains NaN or Inf")
    return v


def assemble_operator_matrix(
    grid: Grid1D,
    params: FractionalParams,
    tail_correction: bool = False,
) -> OperatorMatrix:
    """The scheme with projection ghosts as an operator on ``grid``.

    At alpha = 2 this routes to the classical second difference (the
    integral coefficients degenerate there); the tail flag is then inert.
    """
    if params.is_classical:
        return OperatorMatrix(grid, np.array([1.0, 0.0, 1.0]) / grid.h ** 2)
    return _quadrature_stencil(grid, params, tail_correction)


def grunwald_letnikov_weights(alpha: float, count: int) -> np.ndarray:
    """First ``count`` fractional-difference weights g_0..g_{count-1}.

    Computed by the recurrence g_0 = 1, g_r = g_{r-1} (r - 1 - alpha)/r,
    avoiding Gamma evaluations at negative arguments.
    """
    r = np.arange(1, count)
    return np.cumprod(np.concatenate([[1.0], (r - 1.0 - alpha) / r]))


def grunwald_letnikov_apply(u: np.ndarray, grid: Grid1D, alpha: float) -> np.ndarray:
    """Symmetric (theta = 0) operator via shifted Grunwald-Letnikov sums.

    The one-sided fractional-difference sums are combined as
    ``-1/(2 cos(alpha pi/2)) * (left + right) / h^alpha`` with projection
    ghosts, so offset ``d`` weighs ``g_(1-d) [d <= 1] + g_(d+1) [d >= -1]``.
    The weight tails beyond the domain are completed against the boundary
    values (the weights sum to zero over 0..inf, so a flat far field
    contributes exactly the negated partial sums); without this the
    truncated sums leave an O(b^-alpha) defect on constants that no grid
    refinement removes.  Independent of the quadrature backend;
    first-order accurate in h.
    """
    alpha = float(alpha)
    if not 1.0 < alpha < 2.0:
        raise UnsupportedError(
            f"Grunwald-Letnikov backend requires 1 < alpha < 2, got {alpha}")
    u = validate_state(u, grid)
    n = grid.n
    norm = -1.0 / (2.0 * math.cos(alpha * math.pi / 2))
    g = grunwald_letnikov_weights(alpha, n + 1) * (norm / grid.h ** alpha)
    weights = np.zeros(2 * n - 1)  # offsets -(n-1)..n-1
    weights[:n + 1] += g[::-1]     # left sums: offset d <= 1 weighs g_(1-d)
    weights[n - 2:] += g           # right sums: offset d >= -1 weighs g_(d+1)
    weights[n - 1] = 0.0
    far = -float(np.sum(g))        # g_r for r > n, on either side
    return OperatorMatrix(grid, weights, (far, far)).matvec(u)


def spectral_apply(u: np.ndarray, period: float, params: FractionalParams) -> np.ndarray:
    """Exact Fourier-multiplier application on a periodic grid.

    ``u`` samples one period; wavenumbers are ``2*pi*k/period``.  Returns the
    real part (the imaginary residue of a real input is roundoff-level since
    the symbol satisfies psi(-xi) = conj(psi(xi))).
    """
    u = np.asarray(u, dtype=float)
    k = len(u)
    xi = 2.0 * np.pi * np.fft.fftfreq(k, d=period / k)
    return np.fft.fft(riesz_feller_symbol(params, xi) * np.fft.ifft(u)).real


def free_space_reference(
    func: Callable[[np.ndarray], np.ndarray],
    grid: Grid1D,
    params: FractionalParams,
) -> np.ndarray:
    """Oracle: spectral application on a wide periodic extension of ``func``.

    Samples ``func`` at the grid spacing on ``[-4b, 4b)`` and returns the
    multiplier result restricted to the grid nodes.  Valid when the profile
    is effectively compactly supported well inside the extension
    (wraparound from heavy tails decays like ``(3b)^(-1-alpha)``).
    """
    pad = 4
    k = pad * (grid.n - 1)
    xe = -pad * grid.b + grid.h * np.arange(k)
    ve = spectral_apply(np.asarray(func(xe), dtype=float), 2 * pad * grid.b, params)
    off = (pad - 1) * (grid.n - 1) // 2
    return ve[off:off + grid.n]
