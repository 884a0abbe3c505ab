"""Projected explicit Euler stepping.

The scheme evaluates the drift through a clamp of the state onto the moving
domain D_n = [scale_lo * n^-k, scale_hi * n^k'] (either side optional) and
the diffusion through a clamp onto [0, inf), while the state itself is left
unclamped between steps:

    Y_{i+1} = Y_i + f(project(Y_i)) h + gamma(max(Y_i, 0)) dW_i.

Models that live on the whole real line (meta flag `full_line`) get the
sign-symmetric variant instead: D_n = [-scale_hi * n^k', scale_hi * n^k'],
and the diffusion argument passes through the same box, which keeps the step
increments bounded for any state.

Exponents k, k' come from a `ProjectionPlan`, either derived from a model's
claimed regularity regime (`plan_exponents`) or supplied explicitly
(`manual_plan`).  With no clamps at all the scheme reduces to classical
explicit Euler.
"""
from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .blocks import walk
from .errors import DomainError, MissingThreshold, PlanInfeasible
from .models import _OPERATORS, _UFUNCS, TransformedModel

_HP_TOL = 1e-9


@dataclass(frozen=True)
class ProjectionPlan:
    """Projection exponents and read-out thresholds for one model.

    Attributes:
        alpha, beta: drift growth exponents the plan was built for.
        k: lower clamp exponent (bound scale_lo * n^-k), None for no clamp.
        k_prime: upper clamp exponent (bound scale_hi * n^k'), None for none.
        scale_lo, scale_hi: positive multiplicative bound adjustments.
        rate: planned strong convergence order, when one is guaranteed.
        eta_exponent: lower read-out threshold is h ** eta_exponent.
        zeta_exponent: upper read-out threshold is h ** zeta_exponent
            (negative exponent, so the threshold grows as h shrinks).
        regime: regularity label the exponents were derived from, if any.
        symmetric: clamp onto [-scale_hi * n^k', scale_hi * n^k'] instead,
            for models on the whole real line; the diffusion argument then
            passes through the same box.
    """

    alpha: float
    beta: float
    k: float | None
    k_prime: float | None
    scale_lo: float = 1.0
    scale_hi: float = 1.0
    rate: float | None = None
    eta_exponent: float | None = None
    zeta_exponent: float | None = None
    regime: str | None = None
    symmetric: bool = False

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise DomainError("growth exponents must be nonnegative")
        if self.k is not None and self.k <= 0:
            raise DomainError("k must be positive when present")
        if self.k_prime is not None and self.k_prime <= 0:
            raise DomainError("k' must be positive when present")
        if self.scale_lo <= 0 or self.scale_hi <= 0:
            raise DomainError("bound scales must be positive")
        if self.rate is not None and self.rate <= 0:
            raise DomainError("rate must be positive when present")
        if self.eta_exponent is not None and self.eta_exponent <= 0:
            raise DomainError("eta_exponent must be positive when present")
        if self.zeta_exponent is not None and self.zeta_exponent >= 0:
            raise DomainError("zeta_exponent must be negative when present")
        # Compatibility condition keeping the clamped drift's stiffness
        # bounded relative to the step size: 2*beta*k <= 1 and 2*alpha*k' <= 1.
        if self.k is not None and 2.0 * self.beta * self.k > 1.0 + _HP_TOL:
            raise DomainError(f"2*beta*k = {2 * self.beta * self.k} exceeds 1")
        if self.k_prime is not None and 2.0 * self.alpha * self.k_prime > 1.0 + _HP_TOL:
            raise DomainError(f"2*alpha*k' = {2 * self.alpha * self.k_prime} exceeds 1")
        if self.symmetric:
            if self.k_prime is None:
                raise DomainError("a symmetric plan needs an upper exponent k'")
            if self.beta != 0 or self.k is not None:
                raise DomainError(
                    "a symmetric plan has no lower bound; it needs beta = 0 and no k")


def classical_plan() -> ProjectionPlan:
    """Plan with no clamps: the scheme degenerates to classical Euler."""
    return ProjectionPlan(alpha=0.0, beta=0.0, k=None, k_prime=None,
                          regime="classical")


def plan_exponents(model: TransformedModel, *, scale_lo: float = 1.0,
                   scale_hi: float = 1.0) -> ProjectionPlan:
    """Derive projection exponents and the guaranteed rate from the model's
    own regularity label.

    Args:
        model: transformed model carrying exponents, moment bounds and the
            label; `TransformedModel` checks that a label comes with q and q'
            large enough for every rate below to be positive.
        scale_lo, scale_hi: clamp bound adjustments.

    Returns:
        Plan with k = 1/(q+2) style exponents under "Hy1" or k = 1/(2*beta)
        style exponents under the "Hy2" regimes, rate, and read-out
        threshold exponents.

    Raises:
        PlanInfeasible: the model claims no regime, or claims the unit-rate
            regime with moment exponents below its thresholds.
    """
    regime = model.regularity
    if regime is None:
        raise PlanInfeasible(
            "model claims no regularity regime; use manual_plan with explicit exponents")
    alpha, beta = model.alpha, model.beta
    q, qp = model.q, model.q_prime

    if regime == "Hy1":
        k = 1.0 / (q + 2.0) if beta > 0 else None
        k_prime = 1.0 / (qp - 2.0) if alpha > 0 else None
        terms = [0.5]
        if beta > 0:
            terms.append(0.5 - beta / (q + 2.0))
        if alpha > 0:
            terms.append(0.5 - alpha / (qp - 2.0))
        rate = min(terms)
    else:
        k = 1.0 / (2.0 * beta) if beta > 0 else None
        k_prime = 1.0 / (2.0 * alpha) if alpha > 0 else None
        if regime == "Hy2":
            terms = [0.5]
            if beta > 0:
                terms.append((q + 2.0) / (4.0 * beta) - 0.5)
            if alpha > 0:
                terms.append((qp - 2.0) / (4.0 * alpha) - 0.5)
            rate = min(terms)
        else:
            if q <= 6.0 * beta - 2.0 or qp <= 6.0 * alpha + 2.0:
                raise PlanInfeasible(
                    "unit-rate regime needs q > 6*beta - 2 and q' > 6*alpha + 2")
            rate = 1.0

    return ProjectionPlan(
        alpha=alpha, beta=beta, k=k, k_prime=k_prime,
        scale_lo=scale_lo, scale_hi=scale_hi, rate=rate,
        eta_exponent=2.0 * rate / q if beta > 0 else None,
        zeta_exponent=-2.0 * rate / (qp - 2.0) if alpha > 0 else None,
        regime=regime,
        symmetric=bool(model.meta.get("full_line", False)),
    )


def manual_plan(model: TransformedModel, *, k: float | None = None,
                k_prime: float | None = None, scale_lo: float = 1.0,
                scale_hi: float = 1.0, rate: float | None = None) -> ProjectionPlan:
    """Plan with caller-chosen exponents, validated against the model.

    Read-out thresholds are derived only when a rate is supplied and the
    matching moment exponent is available on the model.
    """
    eta_exp = None
    zeta_exp = None
    if rate is not None:
        if k is not None and model.q is not None:
            eta_exp = 2.0 * rate / model.q
        if k_prime is not None and model.q_prime is not None:
            zeta_exp = -2.0 * rate / (model.q_prime - 2.0)
    return ProjectionPlan(
        alpha=model.alpha, beta=model.beta, k=k, k_prime=k_prime,
        scale_lo=scale_lo, scale_hi=scale_hi, rate=rate,
        eta_exponent=eta_exp, zeta_exponent=zeta_exp, regime="manual",
        symmetric=bool(model.meta.get("full_line", False)),
    )


def _bounds(plan: ProjectionPlan, n: int) -> tuple[float | None, float | None]:
    """The bounds of D_n, each None on a side the plan does not clamp."""
    if plan.symmetric:
        hi = plan.scale_hi * float(n) ** plan.k_prime
        return -hi, hi
    return (None if plan.k is None else plan.scale_lo * float(n) ** -plan.k,
            None if plan.k_prime is None else plan.scale_hi * float(n) ** plan.k_prime)


def project(y: np.ndarray | float, n: int, plan: ProjectionPlan) -> np.ndarray | float:
    """Clamp the state onto the drift-evaluation domain D_n.

    Total, monotone, 1-Lipschitz and idempotent; the identity when the plan
    carries no clamps (and then also on negative inputs).  Symmetric plans
    clamp onto [-scale_hi * n^k', scale_hi * n^k'].
    """
    lo, hi = _bounds(plan, n)
    out = y
    if lo is not None:
        out = np.maximum(out, lo)
    if hi is not None:
        out = np.minimum(out, hi)
    return out


def _clamp(lo: float | None, hi: float | None) -> Callable:
    """`project` onto [lo, hi] (None: no clamp on that side) as (y, out) ->
    the clamped y, in `out` unless nothing is clamped, with the bounds bound
    once as 0-d arrays.

    `ndarray.clip` (which skips the dispatch of `np.clip`) takes both sides
    in one call, faster than np.maximum alone, and gives the bits of
    np.maximum then np.minimum, NaN and infinities included, unless a bound
    is zero: np.maximum(-0.0, 0.0) is +0.0, the clip keeps -0.0.  So a zero
    bound (scale_lo * n^-k can underflow) keeps the two ufuncs."""
    if lo is None and hi is None:
        return lambda y, out: y
    lo_ = np.array(-np.inf if lo is None else lo, dtype=float)
    hi_ = np.array(np.inf if hi is None else hi, dtype=float)
    if lo == 0.0 or hi == 0.0:
        return lambda y, out: np.minimum(np.maximum(y, lo_, out=out), hi_, out=out)
    return lambda y, out: y.clip(lo_, hi_, out=out)


def diffusion_bar(model: TransformedModel, y: np.ndarray | float, n: int,
                  plan: ProjectionPlan) -> np.ndarray | float:
    """Diffusion factor used in one scheme step.

    Constant-diffusion models return the constant unchanged.  Under a
    symmetric plan the argument passes through the same box as the drift's,
    bounding the noise term; otherwise it is clamped onto [0, inf).
    """
    if model.gamma_const is not None:
        return model.gamma_const
    if plan.symmetric:
        return model.gamma(project(y, n, plan))
    return model.gamma_bar(y)


class _Rows(NamedTuple):
    """What `_evolve` binds once for the in-place step: the clamp (`_clamp`),
    whether the drift takes rows, h as a 0-d array, the diffusion factor as
    a function of (clamped state, state, row s), and the rows `y` (the
    state), `p` (the clamped state; None with no clamp), `d` and `s`."""

    clamp: Callable
    drift_rows: bool
    h: np.ndarray
    noise: Callable
    y: np.ndarray
    p: np.ndarray | None
    d: np.ndarray
    s: np.ndarray


@functools.lru_cache(maxsize=64)
def _takes_rows(fn, arguments: int) -> bool:
    """Whether the coefficient `fn` takes `arguments` positional arguments:
    the state and its rows (`TransformedModel.f` and `gamma`)."""
    try:
        inspect.signature(fn).bind(*[None] * arguments)
    except (TypeError, ValueError):
        return False
    return True


def _noise(model: TransformedModel, plan: ProjectionPlan, n: int) -> Callable:
    """`diffusion_bar` as (x, y, s) -> the factor, from the clamped state x
    and the state y, computed in s for a diffusion that takes rows."""
    if model.gamma_const is not None:
        gamma = np.array(model.gamma_const, dtype=float)
        return lambda x, y, s: gamma
    if not _takes_rows(model.gamma, 2):
        return lambda x, y, s: diffusion_bar(model, y, n, plan)
    if plan.symmetric:
        return lambda x, y, s: model.gamma(x, s)
    zero = np.array(0.0)
    return lambda x, y, s: model.gamma(np.maximum(y, zero, out=s), s)


def _rows(model: TransformedModel, plan: ProjectionPlan, n: int, h: float,
          count: int) -> _Rows:
    """The `_Rows` of `count` paths stepped at n steps of size h."""
    lo, hi = _bounds(plan, n)
    clamped = lo is not None or hi is not None
    return _Rows(_clamp(lo, hi), _takes_rows(model.f, 3), np.array(h, dtype=float),
                 _noise(model, plan, n), np.empty(count),
                 np.empty(count) if clamped else None, np.empty(count), np.empty(count))


def _advance(y, model: TransformedModel, plan: ProjectionPlan, n: int,
             h: float, dw, *, rows: _Rows | None = None):
    """One projected step of a state or a batch: the scheme's only copy,
    y + f(project(y)) * h + diffusion_bar(y) * dw.

    With no `rows` each term is a new value, for scalars and the oracles.
    With `rows` (`_Rows`, bound by `_evolve`) the step runs in place with
    the same bits: each element takes the same operations on the same
    operands in the same order.  The clamped state goes into row p, the
    drift into d with s as its scratch, the noise term into s and the new
    state into rows.y, which is returned; `y` may be rows.y itself.  The
    constants are 0-d arrays, so no ufunc call converts a float.  A
    one-element `y` (step 0, from every path's start value) has its clamp,
    drift and diffusion taken on that one element."""
    if rows is None:
        (mul, add, _, _), out, d, s = _OPERATORS, None, None, None
    else:
        (mul, add, _, _), out, d, s, h = _UFUNCS, rows.y, rows.d, rows.s, rows.h
    if rows is None or len(y) < len(out):
        drift = model.f(project(y, n, plan))
        noise = diffusion_bar(model, y, n, plan)
    else:
        x = rows.clamp(y, rows.p)
        drift = model.f(x, d, s) if rows.drift_rows else model.f(x)
        noise = rows.noise(x, y, s)
    return add(add(y, mul(drift, h, d), d), mul(noise, dw, s), out)


def _evolve(model: TransformedModel, plan: ProjectionPlan, n: int, h: float,
            increments: np.ndarray, integrand=None):
    """The projected stepper over the n columns of `increments`
    (`blocks.walk`): terminal states and the integrand's left Riemann sum
    (else None).  inf/NaN propagate for callers to flag.  The step-0 state
    is one element, not a scalar: `**` on a float calls C `pow`, and on an
    array numpy's SIMD loop, as on the rows (see `models._power`).

    Two or more steps run in place on the four rows of `_advance`, whose
    noise row carries the integrand's terms; a single step, as at level 0 of
    the multilevel estimator, allocates the two rows that it makes."""
    incs = np.asarray(increments, dtype=float)
    rows = _rows(model, plan, n, h, len(incs)) if incs.shape[1] > 1 else None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return walk(lambda y, dw: _advance(y, model, plan, n, h, dw, rows=rows),
                    np.full(1, model.y0, dtype=float), incs, h, integrand,
                    None if rows is None else rows.s)


def evolve_terminal(model: TransformedModel, plan: ProjectionPlan, n: int,
                    h: float, increments: np.ndarray) -> np.ndarray:
    """Terminal states of `_evolve` for a batch of paths (rows of `increments`)."""
    return _evolve(model, plan, n, h, increments)[0]


# The plan's threshold exponents that each read-out clamp reads.
_READOUT_THRESHOLDS = {"raw": (), "bar": (), "tilde": ("eta_exponent",),
                       "check": ("zeta_exponent",),
                       "double": ("eta_exponent", "zeta_exponent")}


def check_readout(variant: str, plan: ProjectionPlan, name: str = "readout") -> None:
    """Refuse a read-out clamp `variant` whose threshold `plan` lacks, so a
    study refuses it before it draws a path.

    Raises:
        MissingThreshold: naming `name`, the caller's name for the read-out.
        ValueError: an unknown variant.
    """
    if variant not in _READOUT_THRESHOLDS:
        raise ValueError(f"unknown read-out variant {variant!r}")
    missing = [e for e in _READOUT_THRESHOLDS[variant] if getattr(plan, e) is None]
    if missing:
        raise MissingThreshold(f"the plan lacks {' and '.join(missing)}, which "
                               f"the {variant} read-out needs", name)


def clamp_variant(y: np.ndarray | float, variant: str, plan: ProjectionPlan,
                  h: float) -> np.ndarray | float:
    """Read-out clamp applied to terminal states before mapping back.

    Variants: "raw" (no clamp), "bar" (clamp to [0, inf)), "tilde" (lower
    threshold eta = h ** eta_exponent), "check" (upper threshold
    zeta = h ** zeta_exponent), "double" (both thresholds).

    Raises:
        MissingThreshold: the plan lacks the required threshold exponent
            (`check_readout`).
    """
    check_readout(variant, plan)
    if variant == "raw":
        return y
    if variant == "bar":
        return np.maximum(y, 0.0)
    if variant == "tilde":
        return np.maximum(y, h ** plan.eta_exponent)
    if variant == "check":
        return np.minimum(y, h ** plan.zeta_exponent)
    return np.minimum(np.maximum(y, h ** plan.eta_exponent), h ** plan.zeta_exponent)
