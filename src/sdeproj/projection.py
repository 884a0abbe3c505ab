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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MissingThreshold, NonFinite, PlanInfeasible
from .models import TransformedModel

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


def plan_exponents(model: TransformedModel, regime: str | None = None, *,
                   scale_lo: float = 1.0, scale_hi: float = 1.0) -> ProjectionPlan:
    """Derive projection exponents and the guaranteed rate from a regime.

    Args:
        model: transformed model carrying exponents and moment bounds.
        regime: regularity label to plan under; defaults to the model's own.
        scale_lo, scale_hi: clamp bound adjustments.

    Returns:
        Plan with k = 1/(q+2) style exponents under "Hy1" or k = 1/(2*beta)
        style exponents under the "Hy2" regimes, rate, and read-out
        threshold exponents.

    Raises:
        PlanInfeasible: the moment exponents give a nonpositive rate, or the
            model claims no regime and none was supplied.
    """
    regime = regime if regime is not None else model.regularity
    if regime is None:
        raise PlanInfeasible(
            "model claims no regularity regime; use manual_plan with explicit exponents")
    if regime not in ("Hy1", "Hy2", "Hy2-const-diffusion"):
        raise DomainError(f"unknown regime {regime!r}")
    alpha, beta = model.alpha, model.beta
    q, qp = model.q, model.q_prime
    if q is None or qp is None:
        raise PlanInfeasible("planning requires both moment exponents q and q'")

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
            if model.gamma_const is None:
                raise PlanInfeasible("Hy2-const-diffusion needs a constant diffusion")
            if model.f_double_prime is None:
                raise PlanInfeasible("Hy2-const-diffusion needs f''")
            if q <= 6.0 * beta - 2.0 or qp <= 6.0 * alpha + 2.0:
                raise PlanInfeasible(
                    "unit-rate regime needs q > 6*beta - 2 and q' > 6*alpha + 2")
            rate = 1.0
    if rate <= 0:
        raise PlanInfeasible(
            f"moment exponents (q={q}, q'={qp}) give nonpositive rate {rate}")

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


def project(y: np.ndarray | float, n: int, plan: ProjectionPlan) -> np.ndarray | float:
    """Clamp the state onto the drift-evaluation domain D_n.

    Total, monotone, 1-Lipschitz and idempotent; the identity when the plan
    carries no clamps (and then also on negative inputs).  Symmetric plans
    clamp onto [-scale_hi * n^k', scale_hi * n^k'].
    """
    if plan.symmetric:
        hi = plan.scale_hi * float(n) ** plan.k_prime
        return np.minimum(np.maximum(y, -hi), hi)
    out = y
    if plan.k is not None:
        out = np.maximum(out, plan.scale_lo * float(n) ** -plan.k)
    if plan.k_prime is not None:
        out = np.minimum(out, plan.scale_hi * float(n) ** plan.k_prime)
    return out


def projected_drift(model: TransformedModel, n: int, plan: ProjectionPlan):
    """Drift with its argument clamped onto D_n, as a plain callable."""

    def f_n(y):
        return model.f(project(y, n, plan))

    return f_n


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


def lipschitz_bound(model: TransformedModel, n: int, plan: ProjectionPlan) -> float:
    """Global Lipschitz constant of the clamped drift on the whole line.

    L(n) = 2 K (1 + n^(k*beta) + n^(k'*alpha)) with K the local Lipschitz
    modulus; the power terms appear only on sides the model actually blows
    up on, and require the matching clamp to be present.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    total = 1.0
    if model.beta > 0:
        if plan.k is None:
            raise DomainError("drift blows up at zero but the plan has no lower clamp")
        total += float(n) ** (plan.k * model.beta)
    if model.alpha > 0:
        if plan.k_prime is None:
            raise DomainError("drift grows at infinity but the plan has no upper clamp")
        total += float(n) ** (plan.k_prime * model.alpha)
    return 2.0 * model.local_lipschitz_k * total


@dataclass(frozen=True)
class SchemeGrid:
    """Uniform time grid with n steps on [0, horizon]."""

    horizon: float
    n: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise DomainError("horizon must be positive")
        if self.n < 1:
            raise DomainError("n must be >= 1")

    @property
    def h(self) -> float:
        return self.horizon / self.n

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n + 1)


def step(y: float, model: TransformedModel, n: int, plan: ProjectionPlan,
         h: float, dw: float) -> float:
    """One scalar scheme step.  Raises NonFinite if the result is not finite."""
    out = y + model.f(project(y, n, plan)) * h + diffusion_bar(model, y, n, plan) * dw
    if not np.isfinite(out):
        raise NonFinite(f"step produced {out}")
    return float(out)


def simulate_path(model: TransformedModel, grid: SchemeGrid,
                  plan: ProjectionPlan, increments: np.ndarray) -> np.ndarray:
    """Simulate one trajectory on the grid.

    Args:
        increments: Brownian increments, shape (grid.n,).

    Returns:
        States at the n + 1 grid nodes, starting from the model's y0.

    Raises:
        NonFinite: a step produced NaN or infinity; the exception's `index`
            is the node at which it first appeared.
    """
    incs = np.asarray(increments, dtype=float)
    if incs.shape != (grid.n,):
        raise ValueError(f"expected {(grid.n,)} increments, got {incs.shape}")
    h = grid.h
    out = np.empty(grid.n + 1)
    out[0] = y = model.y0
    for i in range(grid.n):
        y = (y + model.f(project(y, grid.n, plan)) * h
             + diffusion_bar(model, y, grid.n, plan) * incs[i])
        if not np.isfinite(y):
            raise NonFinite(f"non-finite state at node {i + 1}", index=i + 1)
        out[i + 1] = y
    return out


def evolve_terminal(model: TransformedModel, plan: ProjectionPlan, n: int,
                    h: float, increments: np.ndarray) -> np.ndarray:
    """Terminal states for a batch of paths, one per row of `increments`.

    Overflow is deliberately left unchecked here (the values propagate as
    inf/NaN); callers flag and cap non-finite results.  The per-step update
    is the exact expression used by `step`, so a single-path run reproduces
    `simulate_path` bit for bit.

    Step i reads the column `increments[:, i]`, which is contiguous for the
    column-major blocks of `BrownianFabric`; the array is used in whatever
    layout it arrives in, and the result does not depend on that layout.
    """
    incs = np.asarray(increments, dtype=float)
    y = np.full(incs.shape[0], model.y0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(n):
            y = (y + model.f(project(y, n, plan)) * h
                 + diffusion_bar(model, y, n, plan) * incs[:, i])
    return y


def clamp_variant(y: np.ndarray | float, variant: str, plan: ProjectionPlan,
                  h: float) -> np.ndarray | float:
    """Read-out clamp applied to terminal states before mapping back.

    Variants: "raw" (no clamp), "bar" (clamp to [0, inf)), "tilde" (lower
    threshold eta = h ** eta_exponent), "check" (upper threshold
    zeta = h ** zeta_exponent), "double" (both thresholds).

    Raises:
        MissingThreshold: the plan lacks the required threshold exponent.
    """
    if variant == "raw":
        return y
    if variant == "bar":
        return np.maximum(y, 0.0)
    if variant == "tilde":
        if plan.eta_exponent is None:
            raise MissingThreshold("plan has no lower read-out threshold")
        return np.maximum(y, h ** plan.eta_exponent)
    if variant == "check":
        if plan.zeta_exponent is None:
            raise MissingThreshold("plan has no upper read-out threshold")
        return np.minimum(y, h ** plan.zeta_exponent)
    if variant == "double":
        if plan.eta_exponent is None or plan.zeta_exponent is None:
            raise MissingThreshold("plan lacks a read-out threshold")
        return np.minimum(np.maximum(y, h ** plan.eta_exponent),
                          h ** plan.zeta_exponent)
    raise ValueError(f"unknown read-out variant {variant!r}")
