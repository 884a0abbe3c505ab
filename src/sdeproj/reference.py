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

from .errors import DomainError

__all__ = [
    "ImplicitCirParams",
    "implicit_cir_step",
    "implicit_cir_path",
    "implicit_cir_terminal",
    "ginzburg_landau_exact",
    "running_sum",
    "cir_zcb_closed_form",
]


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


def implicit_cir_step(y: np.ndarray | float, params: ImplicitCirParams,
                      h: float, dw: np.ndarray | float) -> np.ndarray | float:
    """One drift-implicit step: solves y' = y + (a/y' + b y') h + c dw, y' > 0.

    The positive quadratic root is s + sqrt(s^2 + t) with
    s = (y + c dw) / (2 (1 - b h)) and t = a h / (1 - b h); for s < 0 it is
    evaluated as t / (sqrt(s^2 + t) - s) to avoid cancellation.  With a > 0
    the result is strictly positive for every input.
    """
    if h <= 0:
        raise DomainError("h must be positive")
    denom = 1.0 - params.b * h
    s = (y + params.c * dw) / (2.0 * denom)
    t = params.a * h / denom
    root = np.sqrt(s * s + t)
    # np.where evaluates both branches; at a = 0 the rejected one is 0/0.
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(s >= 0.0, s + root, t / (root - s))


def implicit_cir_path(params: ImplicitCirParams, h: float,
                      increments: np.ndarray) -> np.ndarray:
    """Full trajectory of the implicit stepper for one path.

    Args:
        increments: Brownian increments, shape (n,).

    Returns:
        States at the n + 1 grid nodes starting from params.y0.
    """
    incs = np.asarray(increments, dtype=float)
    if incs.ndim != 1:
        raise ValueError("increments must be one-dimensional")
    out = np.empty(incs.shape[0] + 1)
    out[0] = params.y0
    y = params.y0
    for i in range(incs.shape[0]):
        y = implicit_cir_step(y, params, h, incs[i])
        out[i + 1] = y
    return out


def implicit_cir_terminal(params: ImplicitCirParams, h: float,
                          increments: np.ndarray) -> np.ndarray:
    """Terminal states for a batch of paths (rows of `increments`)."""
    incs = np.asarray(increments, dtype=float)
    y = np.full(incs.shape[0], params.y0, dtype=float)
    for i in range(incs.shape[-1]):
        y = implicit_cir_step(y, params, h, incs[:, i])
    return y


def ginzburg_landau_exact(lam: float, sigma: float, x0: float,
                          times: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pathwise solution of dX = (-X^3 + (lam + sigma^2/2) X) dt + sigma X dW.

    X_t = x0 exp(lam t + sigma W_t) / sqrt(1 + 2 x0^2 I_t) with
    I_t = integral of exp(2 lam s + 2 sigma W_s) ds, discretised here by the
    left Riemann sum on the supplied grid.

    Args:
        times: grid nodes, shape (n + 1,), starting at 0.
        w: Brownian values at the nodes, shape (..., n + 1), w[..., 0] = 0.

    Returns:
        Solution values at the nodes, same shape as w.
    """
    if x0 <= 0:
        raise DomainError("x0 must be positive")
    t = np.asarray(times, dtype=float)
    w = np.asarray(w, dtype=float)
    if t.ndim != 1 or w.shape[-1] != t.shape[0]:
        raise ValueError("times and w must share the grid axis")
    growth = np.exp(2.0 * lam * t + 2.0 * sigma * w)
    integral = running_sum(growth[..., :-1] * np.diff(t))
    return x0 * np.exp(lam * t + sigma * w) / np.sqrt(1.0 + 2.0 * x0 * x0 * integral)


def running_sum(terms: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, preceded by a zero node.

    out[..., 0] = 0 and out[..., i + 1] = out[..., i] + terms[..., i], added
    left to right: the same bits as `np.cumsum`, for either memory layout.
    Turns Brownian increments into Brownian values at the grid nodes.

    Column-major input (the package's Brownian blocks) is summed one
    contiguous column at a time into a column-major result, because a cumsum
    along a strided axis is several times slower; other input takes one
    cumsum.

    Returns:
        Array of shape (..., n + 1) for terms of shape (..., n).
    """
    terms = np.asarray(terms, dtype=float)
    n = terms.shape[-1]
    shape = terms.shape[:-1] + (n + 1,)
    if terms.ndim > 1 and terms.strides[0] < terms.strides[-1]:
        out = np.empty(shape, order="F")
        out[..., 0] = 0.0
        if n:
            out[..., 1] = terms[..., 0]
        for i in range(1, n):
            np.add(out[..., i], terms[..., i], out=out[..., i + 1])
        return out
    out = np.empty(shape)
    out[..., 0] = 0.0
    np.cumsum(terms, axis=-1, out=out[..., 1:])
    return out


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
