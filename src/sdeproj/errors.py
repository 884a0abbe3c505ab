"""Exception types shared across the package."""
from __future__ import annotations


class SdeProjError(Exception):
    """Base class for all package-specific errors."""


class FellerViolation(SdeProjError):
    """Square-root model parameters do not keep the process away from zero."""


class DomainError(SdeProjError):
    """Model or engine parameter outside its admissible domain.

    `field` names the offending argument when the rule is one a config block
    shares, so that the block can report `reason` at its own dotted path.
    """

    def __init__(self, message: str, field: str = ""):
        self.field = field
        self.reason = message
        super().__init__(f"{field}: {message}" if field else message)


class RateUnavailable(SdeProjError):
    """No proved strong convergence rate for the requested parameter regime."""


class PlanInfeasible(SdeProjError):
    """Moment exponents too weak to yield a positive convergence rate."""


class MissingThreshold(SdeProjError):
    """Read-out clamp requested a threshold the plan does not carry."""


class NonFinite(SdeProjError):
    """A simulated value became NaN or infinite.

    `index` is the time-step index at which the first non-finite value
    appeared, or None when unknown.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class BudgetExceeded(SdeProjError):
    """A sampling plan asked for more paths than the configured ceiling."""


class ConfigError(SdeProjError):
    """Configuration file failed validation.

    `path` is a dotted address of the offending field, e.g. "mlmc.epsilons[2]".
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
