"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "BranchCutError",
    "ConvergenceError",
    "NormalizationError",
    "BranchConventionWarning",
]


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class BranchCutError(DomainError):
    """Evaluation was requested exactly on a branch cut."""


class ConvergenceError(RuntimeError):
    """An iterative or truncated scheme failed to reach its tolerance."""


class NormalizationError(RuntimeError):
    """A constructed object failed its defining consistency check."""


class BranchConventionWarning(UserWarning):
    """Input on a real cut; the limit from the upper half plane is used."""
