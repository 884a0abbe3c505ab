"""Reference solutions used to benchmark the projected Euler scheme.

Three independent sources of truth: a drift-implicit positivity-preserving
stepper for square-root-type transformed dynamics, the pathwise closed-form
solution of the cubic-drift model, and the closed-form zero-coupon bond
price under square-root short rates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import walk
from .errors import DomainError, check_family
from .models import _OPERATORS, _UFUNCS

__all__ = [
    "ImplicitCirParams",
    "implicit_cir_step",
    "implicit_cir_terminal",
    "ginzburg_landau_terminal",
    "cir_zcb_closed_form",
]

# The families whose transformed dynamics `ImplicitCirParams.from_model`
# takes: a/y + b*y drift and a positive constant diffusion (three-halves'
# is -c3/2).  The implicit-fine-grid reference, the implicit-reference
# variant and the implicit price run them.
IMPLICIT_FAMILIES = ("cir",)


@dataclass(frozen=True)
class ImplicitCirParams:
    """Coefficients of dY = (a/Y + b Y) dt + c dW for the implicit stepper."""

    a: float
    b: float
    c: float
    y0: float

    def __post_init__(self):
        if self.a < 0:
            raise DomainError("a must be nonnegative")
        if self.b > 0:
            raise DomainError("b must be nonpositive")
        if self.c <= 0:
            raise DomainError("c must be positive")
        if self.y0 <= 0:
            raise DomainError("y0 must be positive")

    @classmethod
    def from_cir(cls, kappa: float, theta: float, xi: float, x0: float) -> "ImplicitCirParams":
        """Coefficients of the square-root transform Y = sqrt(X)."""
        if min(kappa, theta, xi, x0) <= 0:
            raise DomainError("kappa, theta, xi, x0 must be positive")
        a = (4.0 * kappa * theta - xi * xi) / 8.0
        if a < 0:
            raise DomainError("4*kappa*theta < xi^2: transform coefficient a < 0")
        return cls(a=a, b=-kappa / 2.0, c=xi / 2.0, y0=math.sqrt(x0))

    @classmethod
    def from_model(cls, model) -> "ImplicitCirParams":
        """Coefficients of a `TransformedModel` of one of `IMPLICIT_FAMILIES`."""
        check_family(model.meta.get("family"), IMPLICIT_FAMILIES, "the implicit stepper")
        return cls(a=model.meta["drift_a"], b=model.meta["drift_b"],
                   c=model.gamma_const, y0=model.y0)


def _coefficients(params: ImplicitCirParams, h: float) -> tuple[float, float, float]:
    """The constants of `_implicit_step`: (c, 2 (1 - b h), a h / (1 - b h))."""
    if h <= 0:
        raise DomainError("h must be positive")
    denom = 1.0 - params.b * h
    return params.c, 2.0 * denom, params.a * h / denom


def _implicit_step(y, dw, c, two_denom, t, out=None, s=None, mask=None):
    """The step of `implicit_cir_step` from `y` with increments `dw`, into
    `out` through the scratch `s` and the bool row `mask` (arrays of the
    broadcast shape; `out` may be `y`), or, with no buffers, by operators
    into new values.  The coefficients (`_coefficients`) are scalars or one
    entry per row.  `fmin` skips NaN, so a NaN row hides no s < 0 row."""
    mul, add, _, div = _OPERATORS if out is None else _UFUNCS
    # Each buffer argument is read before its name is rebound, and `y`
    # before the root is made in `out`.
    s = div(add(y, mul(c, dw, s), s), two_denom, s)
    root = np.sqrt(add(mul(s, s, out), t, out), out=out)
    if not np.fmin.reduce(s, axis=None, initial=np.inf) < 0.0:
        return add(s, root, root)
    # In place: s + root, or t / (root - s) with root - s in `s` where s < 0.
    with np.errstate(invalid="ignore", divide="ignore"):
        if np.ndim(s) == 0:
            return t / (root - s)
        neg = np.less(s, 0.0, out=mask)
        np.subtract(root, s, out=s, where=neg)
        np.divide(t, s, out=root, where=neg)
        return np.add(s, root, out=root, where=np.logical_not(neg, out=neg))


def implicit_cir_step(y: np.ndarray | float, params: ImplicitCirParams,
                      h: float, dw: np.ndarray | float) -> np.ndarray | float:
    """One drift-implicit step: solves y' = y + (a/y' + b y') h + c dw, y' > 0.

    The positive quadratic root is s + sqrt(s^2 + t) with
    s = (y + c dw) / (2 (1 - b h)) and t = a h / (1 - b h).  Only the rows
    with s < 0, and only in a step that has any, are evaluated in the
    cancellation-safe form t / (sqrt(s^2 + t) - s); the others pay for one
    sum.  With a > 0 the result is strictly positive for every input.

    Returns, from `_implicit_step`, an array for array inputs and a numpy
    scalar for scalar or 0-d inputs.
    """
    return _implicit_step(y, dw, *_coefficients(params, h))


def _implicit_evolve(params, n: int, h: float, increments: np.ndarray,
                     integrand=None):
    """The implicit stepper over the n columns of `increments`
    (`blocks.walk`): each step runs `_implicit_step` in place on the rows
    `out`, `s` and `mask`, and the integrand's terms are made in `s`.

    `params` is one `ImplicitCirParams`, for scalar coefficients and a
    one-element step-0 state, or a sequence of them, one per factor, for
    increments that stack the factors' rows in as many equal row blocks
    (as `blocks.Stream.draw` gives them).  The coefficients and the state
    are then columns, and each row keeps the bits it has when its factor is
    stepped alone."""
    rows = len(increments)
    factors = (params,) if isinstance(params, ImplicitCirParams) else tuple(params)
    if len(factors) == 1:
        coefficients, y = _coefficients(factors[0], h), np.full(1, factors[0].y0)
    else:
        # c, two_denom, t and y0, each factor's values over its row block.
        *coefficients, y = np.repeat([(*_coefficients(p, h), p.y0) for p in factors],
                                     rows // len(factors), axis=0).T.copy()
    out, s, mask = np.empty(rows), np.empty(rows), np.empty(rows, bool)
    return walk(lambda y, dw: _implicit_step(y, dw, *coefficients, out, s, mask),
                y, increments, h, integrand, s)


def implicit_cir_terminal(params: ImplicitCirParams, h: float,
                          increments: np.ndarray) -> np.ndarray:
    """Terminal states for a batch of paths (rows of `increments`)."""
    return _implicit_evolve(params, np.shape(increments)[-1], h, increments)[0]


# The family whose pathwise solution `ginzburg_landau_terminal` gives: the
# closed-form reference and the exact price run it only.
CLOSED_FORM_FAMILIES = ("ginzburg-landau",)


def ginzburg_landau_terminal(lam: float, sigma: float, x0: float,
                             times: np.ndarray,
                             increments: np.ndarray) -> np.ndarray:
    """Pathwise solution of dX = (-X^3 + (lam + sigma^2/2) X) dt + sigma X dW
    at the last grid node, from Brownian increments.

    X_t = x0 exp(lam t + sigma W_t) / sqrt(1 + 2 x0^2 I_t) with
    I_t = integral of exp(2 lam s + 2 sigma W_s) ds, discretised by the left
    Riemann sum on the supplied grid.  The grid is walked one time step at a
    time, keeping only W and the integral at the current node: two
    row-sized vectors.  The tests check it bit for bit against the solution
    at every node (`tests/oracles.py`), whose scalar factors it takes in the
    same order.

    Args:
        times: grid nodes, shape (n + 1,), starting at 0.
        increments: Brownian increments, shape (..., n).

    Returns:
        Solution values at times[-1], shape increments.shape[:-1].
    """
    if x0 <= 0:
        raise DomainError("x0 must be positive")
    t = np.asarray(times, dtype=float)
    dw = np.asarray(increments, dtype=float)
    if t.ndim != 1 or dw.shape[-1] + 1 != t.shape[0]:
        raise ValueError("times must have one node more than the increments")
    drift = 2.0 * lam * t
    dt = np.diff(t)
    two_sigma = 2.0 * sigma
    w = np.zeros(dw.shape[:-1])
    integral = np.zeros(dw.shape[:-1])
    for i in range(dw.shape[-1]):
        integral += np.exp(drift[i] + two_sigma * w) * dt[i]
        w += dw[..., i]
    return x0 * np.exp(lam * t[-1] + sigma * w) \
        / np.sqrt(1.0 + 2.0 * x0 * x0 * integral)


# The family whose bond price `cir_zcb_closed_form` gives, from its
# parameters by name.
ZCB_CLOSED_FORM_FAMILIES = ("cir",)


def cir_zcb_closed_form(kappa: float, theta: float, xi: float, v0: float,
                        horizon: float) -> float:
    """Zero-coupon bond price E[exp(-integral of v)] for the square-root rate.

    dv = kappa (theta - v) dt + xi sqrt(v) dW, v_0 = v0.  Evaluated in log
    space so that near-deterministic rates (tiny xi) stay accurate.
    """
    if min(kappa, theta, xi) <= 0 or v0 < 0:
        raise DomainError("kappa, theta, xi must be positive and v0 >= 0")
    if horizon < 0:
        raise DomainError("horizon must be nonnegative")
    if horizon == 0:
        return 1.0
    lam = math.sqrt(kappa * kappa + 2.0 * xi * xi)
    growth = math.expm1(horizon * lam)
    denom = 2.0 * lam + (kappa + lam) * growth
    log_a = (2.0 * kappa * theta / (xi * xi)) * (
        math.log(2.0 * lam) + 0.5 * (kappa + lam) * horizon - math.log(denom))
    c = 2.0 * growth / denom
    return math.exp(log_a - c * v0)
