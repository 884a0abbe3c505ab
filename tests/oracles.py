"""One-call oracles the tests check the package's steppers against.

They are plain whole-grid formulas and one-path loops, kept out of the
package because no engine calls them: `ginzburg_landau_exact` gives the
pathwise ginzburg-landau solution at every node of a grid, from the
Brownian values that `running_sum` builds from increments, and
`reference.ginzburg_landau_terminal` must match its last node bit for bit.
`projected_path`, `implicit_path` and `level_pair` step one path alone
through the kernels the batch steppers share, and `path_increments` draws
that path's row of its block stream.
"""
from __future__ import annotations

import math

import numpy as np

from sdeproj import mlmc
from sdeproj.brownian import BLOCK_WIDTH
from sdeproj.errors import DomainError
from sdeproj.projection import _advance
from sdeproj.reference import implicit_cir_step


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


def path_increments(fabric, path: int, level: int, n: int, h: float, *,
                    factor: int = 0) -> np.ndarray:
    """The n Brownian increments of one path: its row of its block's stream
    (`BrownianFabric.block_cursor`), each normal times sqrt(h)."""
    block, row = divmod(path, BLOCK_WIDTH)
    cursor = fabric.block_cursor(level, block, n, factor=factor)
    cursor.fill(None, row)
    out = np.empty((1, n))
    cursor.fill(out, keep=False, scale=math.sqrt(h))
    return out[0]


def projected_path(model, plan, n: int, h: float, increments) -> np.ndarray:
    """One path of the projected scheme stepped as floats by
    `projection._advance`: the states at the n + 1 nodes, from the model's
    y0, for n increments of a grid with step h."""
    incs = np.asarray(increments, dtype=float)
    out = np.empty(n + 1)
    out[0] = y = model.y0
    for i in range(n):
        out[i + 1] = y = _advance(y, model, plan, n, h, incs[i])
    return out


def implicit_path(params, h: float, increments) -> np.ndarray:
    """One path of the drift-implicit scheme stepped as scalars by
    `reference.implicit_cir_step`: the states at every node, from params.y0."""
    incs = np.asarray(increments, dtype=float)
    out = np.empty(len(incs) + 1)
    out[0] = y = params.y0
    for i, dw in enumerate(incs):
        out[i + 1] = y = implicit_cir_step(y, params, h, dw)
    return out


def level_pair(config, fabric, level: int, path: int) -> tuple[float, float]:
    """Payoff pair (P_l, P_{l-1}) of one path of the multilevel estimator,
    with P_{-1} = 0, drawn alone (its block's prefix) and stepped by
    `mlmc._pair_batch`; raises `NonFinite` as the estimator does."""
    block, row = divmod(path, BLOCK_WIDTH)
    chunks = [(block, row, row + 1)]
    pair = mlmc._pair_batch(config, mlmc._projected(config), level,
                            mlmc._stream(config, fabric, level).draw(chunks))
    mlmc._check_finite(level, chunks, pair)
    return float(pair[0][0]), float(pair[1][0]) if level else 0.0


def lipschitz_bound(model, n: int, plan) -> float:
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
