"""Exception types raised by fracfront."""


class FracfrontError(Exception):
    """Base class for all fracfront errors."""


class OutOfRangeError(FracfrontError, ValueError):
    """A parameter lies outside its admissible region.

    ``param`` is the parameter's ``RunConfig`` field name, which the CLI
    turns into its flag, or None when no single parameter is at fault.
    """

    def __init__(self, message: str, param=None):
        super().__init__(message)
        self.param = param


class DegenerateCoefficientsError(FracfrontError, ValueError):
    """Both integral-representation coefficients vanish (order exactly 2)."""


class GridTooSmallError(OutOfRangeError):
    """The grid cannot carry the requested quadrature sub-mesh."""


class NonFiniteError(FracfrontError, ValueError):
    """An array that must be finite contains NaN or Inf."""


class UnsupportedError(FracfrontError, ValueError):
    """The requested configuration is outside this backend's contract."""


class SingularSystemError(FracfrontError, RuntimeError):
    """The implicit linear solve failed (dt pathologically large or corrupt matrix)."""


class StepUnderflowError(FracfrontError, RuntimeError):
    """The adaptive step size collapsed below the resolvable scale."""


class StepLimitError(FracfrontError, RuntimeError):
    """The integrator exceeded its step budget."""


class DivergedError(FracfrontError, RuntimeError):
    """The solution magnitude exceeded the divergence threshold."""


class NoCrossingError(FracfrontError, ValueError):
    """The profile never brackets the requested level."""


class InsufficientDecayError(FracfrontError, ValueError):
    """No usable residual window for a decay-rate fit."""


class WindowTooSmallError(FracfrontError, ValueError):
    """Heavy-tailed density mass is not negligible at the window boundary."""
