"""Exception types shared across the package."""

__all__ = [
    "SnowcapError", "NoSolutionInRange", "DepthOverflow", "EmptyDomain", "EmptyRegion",
    "DegenerateFit", "InsufficientSamples", "Disconnected", "SolverDiverged",
]


class SnowcapError(Exception):
    """Base class for all snowcap-specific errors."""


class NoSolutionInRange(SnowcapError):
    """Moran equation has no root in [0, ambient dimension]."""


class DepthOverflow(SnowcapError):
    """Requested recursion depth exceeds the per-family cap."""


class EmptyDomain(SnowcapError):
    """No grid cell center lies inside the domain."""


class EmptyRegion(SnowcapError):
    """A local region Omega_{z,rho} (or constraint collar) contains no cells."""


class DegenerateFit(SnowcapError):
    """Log-log regression input carries no usable variation."""


class InsufficientSamples(SnowcapError):
    """An empirical measure ball captured no boundary sample points."""


class Disconnected(SnowcapError):
    """No grid path exists between a sampled pair of cells."""


class SolverDiverged(SnowcapError):
    """Iterative solver failed to reach its tolerance within the iteration cap."""
