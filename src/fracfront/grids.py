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
``xi_M = b`` lands on the domain edge exactly.  Its largest power of a node
is ``xi^(1+alpha) <= xi^3``, so ``b^3`` and ``h^3`` must be finite, normal
doubles: h and b lie in about [2.8e-103, 5.6e102].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FracfrontError, OutOfRangeError


def _integral_count(value, name: str) -> int:
    """``value`` as an int if it is an integer or an integral float (181.0)
    that numpy can size a complex128 array by; else (181.5, NaN, a string,
    10**18) ``OutOfRangeError`` naming ``name``."""
    if not (isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer())):
        raise OutOfRangeError(f"{name} must be an integer, got {value}", name)
    largest = np.iinfo(np.intp).max // 16   # 16 bytes per complex128 element
    if int(value) > largest:
        raise OutOfRangeError(f"{name} must be at most {largest}, got {int(value)}",
                              name)
    return int(value)


def _cube_is_normal(value: float) -> bool:
    """Whether ``value**3`` is a finite, normal double (False for NaN)."""
    return np.finfo(float).tiny <= value * value * value < np.inf


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
        if not _cube_is_normal(b):
            raise OutOfRangeError(
                f"grid half-width b must be positive with a finite, normal cube "
                f"(about 2.8e-103 <= b <= 5.6e102), got {b}", "b")
        n = _integral_count(n, "n")
        if not (n >= 3 and n % 2 == 1):
            raise OutOfRangeError(
                f"node count n must be an odd integer >= 3, got {n}", "n")
        self.b = b
        self.n = n
        self.m = (n - 1) // 2
        self.h = 2.0 * b / (n - 1)
        if not _cube_is_normal(self.h):
            raise OutOfRangeError(
                f"grid spacing h = 2b/(n-1) = {self.h} must have a normal cube "
                f"(h >= about 2.8e-103); b = {b} is too small for n = {n}", "b")
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

    Nodes are the grid's positive nodes ``xi_j = x[M + j] = j*h`` for
    ``j = 1..M`` (a read-only view; ``xi_M = b`` exactly), weights are the
    composite-trapezoid weights on [h, b]: ``h/2, h, ..., h, h/2``.
    """
    if grid.m < 2:
        raise OutOfRangeError(
            f"quadrature needs n >= 5 (M >= 2), got n={grid.n}", "n")
    w = np.full(grid.m, grid.h)
    w[0] = grid.h / 2
    w[-1] = grid.h / 2
    return grid.x[grid.m + 1:], w


def validate_state(u: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Check a nodal state vector against the grid; returns the array."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n,):
        raise OutOfRangeError(
            f"state has shape {u.shape}, grid expects ({grid.n},)")
    if not np.all(np.isfinite(u)):
        raise FracfrontError("state vector contains NaN or Inf")
    return u
