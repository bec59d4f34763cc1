"""Bistable reaction terms.

The steppers take ``BistableCubic`` alone, a stack's cubics as one with a
column ``a``; front tracking reads ``a`` and the manifest ``potential_gap()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError


@dataclass(frozen=True)
class BistableCubic:
    """f(u) = u (1 - u) (u - a): stable states 0 and 1, unstable threshold a."""

    a: float   # or a column of them, one per row of a stack of states

    def __post_init__(self):
        if not 0.0 < np.min(self.a) <= np.max(self.a) < 1.0:
            raise OutOfRangeError(
                f"threshold a must lie in (0, 1), got {self.a}", "a")

    def f(self, u):
        return u * (1.0 - u) * (u - self.a)

    def f_prime(self, u):
        # d/du of -u^3 + (1+a) u^2 - a u
        return -3.0 * u**2 + 2.0 * (1.0 + self.a) * u - self.a

    def potential_gap(self) -> float:
        """Potential difference F(1) - F(0) = (1 - 2a)/12.

        Zero means the two stable states are balanced (standing wave);
        positive means state 0 is metastable, negative means state 1 is.
        """
        return (1.0 - 2.0 * self.a) / 12.0

