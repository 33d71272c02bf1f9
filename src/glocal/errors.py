"""Exception types shared across the package."""

from __future__ import annotations


class GlocalError(Exception):
    """Base class for package-specific failures."""


class MeshError(GlocalError, ValueError):
    """Malformed mesh data (bad indices, degenerate elements, bad material)."""


class SingularInteriorError(GlocalError):
    """Interior stiffness block is not positive definite."""

    def __init__(self, label: str = "interior block"):
        super().__init__(f"interior factorization failed: {label} is singular "
                         "or indefinite")
        self.label = label


class TopologyError(GlocalError, ValueError):
    """Inconsistent coupling topology (interface index sets do not line up)."""


class GeometryError(GlocalError, ValueError):
    """Interface geometry mismatch between a fine patch and the global model."""


class ScheduleError(GlocalError, ValueError):
    """Delay schedule violates the bounded-delay rules."""


class ConfigError(GlocalError, ValueError):
    """Invalid run configuration (unknown keys, out-of-range values)."""


class DivergenceError(GlocalError):
    """Iteration residual blew past the divergence guard.

    Carries the iteration history recorded up to the failing step so callers
    can inspect the blow-up.
    """

    def __init__(self, message: str, history: list):
        super().__init__(message)
        self.history = history


class StagnationError(GlocalError):
    """Aitken update hit a zero residual difference with a nonzero residual."""


class LivelockError(GlocalError):
    """Concurrent run made no progress within
    ``glocal.async_engine.WATCHDOG_S`` seconds."""
