"""One-call oracles the tests check the package's steppers against.

They are plain whole-grid formulas, kept out of the package because no
engine calls them: `ginzburg_landau_exact` gives the pathwise
ginzburg-landau solution at every node of a grid, from the Brownian values
that `running_sum` builds from increments, and
`reference.ginzburg_landau_terminal` must match its last node bit for bit.
"""
from __future__ import annotations

import numpy as np

from sdeproj.errors import DomainError


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
