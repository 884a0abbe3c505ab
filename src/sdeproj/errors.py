"""Exception types shared across the package, and the one bound checker."""
from __future__ import annotations

import math
from typing import Any, Mapping


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


def check_bound(value: Any, field: str, lo: float | None = None,
                hi: float | None = None, positive: bool = False,
                choices: tuple[str, ...] = (), finite: bool = False) -> None:
    """Refuse `value` outside its bound with a `DomainError` naming `field`:
    inclusive limits `lo` and `hi`, `positive` (above 0), `finite` (an unset
    None passes), or one of `choices`.  NaN fails every numeric bound."""
    if choices and value not in choices:
        raise DomainError(f"must be one of {', '.join(choices)}; got {value!r}", field)
    if finite and value is not None and not math.isfinite(value):
        raise DomainError("must be finite", field)
    if positive and not value > 0:
        raise DomainError("must be positive", field)
    if lo is not None and hi is not None and not lo <= value <= hi:
        raise DomainError(f"must lie in [{lo}, {hi}]", field)
    if lo is not None and not lo <= value:
        raise DomainError(f"must be >= {lo}", field)
    if hi is not None and not value <= hi:
        raise DomainError(f"must be <= {hi}", field)


def check_bounds(bounds: Mapping[str, Mapping], **values: Any) -> None:
    """`check_bound` each of `values`, in order, against its entry in `bounds`."""
    for name, value in values.items():
        check_bound(value, name, **bounds[name])


def check_family(family: str | None, families: tuple[str, ...], engine: str,
                 field: str = "") -> None:
    """Refuse a model `family` outside `families`, the ones `engine` declares
    that it runs, with a `DomainError` naming `field`."""
    if family not in families:
        raise DomainError(f"{engine} does not run the {family} family "
                          f"(it needs {', '.join(families)})", field)


class RateUnavailable(SdeProjError):
    """No proved strong convergence rate for the requested parameter regime."""


class PlanInfeasible(SdeProjError):
    """Moment exponents too weak to yield a positive convergence rate."""


class MissingThreshold(DomainError):
    """Read-out clamp requested a threshold the plan does not carry."""


class NonFinite(SdeProjError):
    """A simulated value became NaN or infinite."""


class BudgetExceeded(SdeProjError):
    """A sampling plan asked for more paths than the configured ceiling."""


class ConfigError(SdeProjError):
    """Configuration file failed validation.

    `path` is a dotted address of the offending field, e.g. "mlmc.epsilons[2]".
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
