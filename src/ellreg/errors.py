"""Exception types shared across the library."""


class EllregError(Exception):
    """Base class for all library errors."""


class GridMismatch(EllregError):
    """Operands live on different grids."""


class ChannelMismatch(EllregError):
    """Channel counts are incompatible."""


class SingularSymbol(EllregError):
    """The resolvent symbol is singular at a lattice frequency."""

    def __init__(self, xi):
        self.xi = tuple(float(x) for x in xi)
        super().__init__(f"symbol matrix singular at xi={self.xi}")


class VariableCoefficients(EllregError, ValueError):
    """An exactly inverted operator part has non-constant coefficients."""


class EpsilonOutOfRange(EllregError):
    """Mollification radius is unresolvable or too large for the torus."""


class NotContracting(EllregError):
    """A fixed-point iteration failed to contract (spectral parameter too small)."""

    def __init__(self, message, contraction=None, increments=()):
        self.contraction = contraction
        self.increments = list(increments)  # the L^2 increment history up to the refusal
        super().__init__(message)


class SupportViolation(EllregError):
    """Data leaks outside the support cube required by a localized solve."""


class IncommensurableDelta(EllregError):
    """Partition spacing does not divide the torus period, or makes more than 2^22 samples."""


class ZeroRHS(EllregError):
    """A ratio against a zero right-hand side was requested."""


class ConfigError(EllregError):
    """Experiment configuration failed validation."""


class ExperimentError(EllregError):
    """A library operation failed while running an experiment."""
