"""Exception types shared across the package."""

from __future__ import annotations


class CglabError(Exception):
    """Base class for all package-specific errors."""


class StructureError(CglabError):
    """Malformed game structure, inconsistent indexing, or invalid references."""


class DomainError(CglabError):
    """Argument outside the mathematical domain of an operation."""


class FeasibilityError(CglabError):
    """A flow-load pair violates the feasibility constraints."""


class CapacityError(CglabError):
    """An exact computation exceeds its size limit."""


class PrecisionError(CglabError):
    """A certified accuracy target cannot be met (e.g. missing growth envelope)."""


class ConfigError(CglabError):
    """Required settings are missing (bound constants, ...), or a solver does not apply."""


class ConvergenceError(CglabError):
    """An iterative method failed to reach its target, or no equilibrium was found."""
