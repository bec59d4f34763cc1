"""Operator parameters and the uniform spatial grid.

The diffusion operator is identified by an order ``alpha`` and a skewness
``theta``.  Admissible pairs satisfy ``1 < alpha <= 2`` and
``|theta| <= min(alpha, 2 - alpha)``, checked as ``alpha + |theta| <= 2`` in
floating point so that decimal edges such as (1.1, 0.9) are admitted; at
``alpha = 2`` the operator is the classical Laplacian and the skewness is
forced to zero.

The spatial grid covers ``[-b, b]`` with an odd number of nodes so that the
origin is a node.  The singular-integral quadrature reuses the grid spacing:
its nodes are ``xi_j = j*h`` for ``j = 1..M`` with ``M = (n-1)/2``, so
``xi_M = b`` lands on the domain edge exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmallError, NonFiniteError, OutOfRangeError


@dataclass(frozen=True)
class FractionalParams:
    """Validated (order, skewness) pair identifying the operator."""

    alpha: float
    theta: float

    def __post_init__(self):
        if not 1.0 < self.alpha <= 2.0:
            raise OutOfRangeError(
                f"alpha must lie in (1, 2], got {self.alpha}", "alpha")
        # min(alpha, 2 - alpha) = 2 - alpha for alpha > 1.  Compare the sum:
        # 1.1 + 0.9 == 2.0, but 2.0 - 1.1 rounds below 0.9
        if not self.alpha + abs(self.theta) <= 2.0:  # rejects NaN too
            raise OutOfRangeError(
                f"theta must satisfy |theta| <= min(alpha, 2 - alpha), "
                f"got {self.theta} at alpha = {self.alpha}", "theta")

    @property
    def is_classical(self) -> bool:
        return self.alpha == 2.0


class Grid1D:
    """Uniform grid on [-b, b] with an odd node count.

    Attributes
    ----------
    b : float
        Half-width of the domain.
    n : int
        Node count (odd, >= 3).
    h : float
        Spacing ``2b/(n-1)``.
    m : int
        Quadrature node count ``(n-1)//2``; ``m*h == b``.
    x : ndarray
        Nodes ``x[0] = -b``, ``x[-1] = b``, ``x[m] = 0`` exactly.
    """

    def __init__(self, b: float, n: int):
        b = float(b)
        n = int(n)
        if not 0.0 < b < np.inf:
            raise OutOfRangeError(
                f"grid half-width b must be positive and finite, got {b}", "b")
        if n < 3 or n % 2 == 0:
            raise OutOfRangeError(f"node count n must be odd and >= 3, got {n}", "n")
        self.b = b
        self.n = n
        self.m = (n - 1) // 2
        self.h = 2.0 * b / (n - 1)
        x = (np.arange(n) - self.m) * self.h
        # snap the endpoints: j*h rounds within 1 ulp of +-b
        x[0] = -b
        x[-1] = b
        self.x = x
        self.x.setflags(write=False)

    def __repr__(self):
        return f"Grid1D(b={self.b}, n={self.n})"


def quadrature_nodes_weights(grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes and weights for the singular-integral sub-mesh.

    Nodes are ``xi_j = j*h`` for ``j = 1..M`` (the last one snapped onto
    ``b``), weights are the composite-trapezoid weights on [h, b]:
    ``h/2, h, ..., h, h/2``.
    """
    if grid.m < 2:
        raise GridTooSmallError(
            f"quadrature needs n >= 5 (M >= 2), got n={grid.n}", "n")
    xi = grid.h * np.arange(1, grid.m + 1)
    xi[-1] = grid.b
    w = np.full(grid.m, grid.h)
    w[0] = grid.h / 2
    w[-1] = grid.h / 2
    return xi, w


def validate_state(u: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Check a nodal state vector against the grid; returns the array."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n,):
        raise OutOfRangeError(
            f"state has shape {u.shape}, grid expects ({grid.n},)")
    if not np.all(np.isfinite(u)):
        raise NonFiniteError("state vector contains NaN or Inf")
    return u
