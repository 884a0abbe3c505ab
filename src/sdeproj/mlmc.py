"""Multilevel Monte Carlo pricing on top of the projected Euler scheme.

Level l runs the scheme with refinement**l steps; the level-l sample is the
payoff difference between that resolution and the next coarser one driven by
the same Brownian path (coarse increments are sums of the fine ones).  A
pilot phase estimates per-level variances, path counts are allocated to meet
the target root-mean-square accuracy, and pilot samples are reused as the
head of the final estimate.

The reported cost comparison puts both estimators on the same footing: the
standard Monte Carlo benchmark steps on the finest multilevel grid (the
resolution whose bias the estimator actually achieved) with the path count
implied by the payoff variance at the same accuracy split.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import workers
from .brownian import BLOCK_WIDTH, BrownianFabric, correlate, couple_levels
from .errors import BudgetExceeded, DomainError, NonFinite
from .models import ModelTriple
from .projection import ProjectionPlan, diffusion_bar, manual_plan, project

# A factor's block is drawn on a pool thread only from this many normals up:
# handing a smaller block to another thread costs more than its fill saves.
_INLINE_NORMALS = 1 << 14

# Normals per factor in one batch of whole blocks, the unit of work a worker
# draws and steps.  A block bigger than this is a batch of its own, stepped on
# the calling thread with its factors' draws and the mix split over the team.
_BATCH_NORMALS = 1 << 17

_PAYOFFS = ("zcb", "spread")


def payoff_zcb(rates: np.ndarray, horizon: float) -> np.ndarray | float:
    """Discount factor exp(-integral of the rate path), left Riemann sum.

    Args:
        rates: nonnegative rate values on a uniform grid, shape (..., n + 1).
        horizon: grid length T.
    """
    r = np.asarray(rates, dtype=float)
    if r.shape[-1] < 2:
        raise ValueError("rate path needs at least two nodes")
    if horizon <= 0:
        raise DomainError("horizon must be positive")
    if np.any(r < 0):
        raise ValueError("rate path must be nonnegative")
    h = horizon / (r.shape[-1] - 1)
    return np.exp(-np.sum(r[..., :-1], axis=-1) * h)


def payoff_spread(x1: np.ndarray, x2: np.ndarray, strike: float) -> np.ndarray:
    """European spread call max(x1 - x2 - strike, 0) on terminal values."""
    return np.maximum(np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)
                      - strike, 0.0)


@dataclass(frozen=True)
class MlmcConfig:
    """Problem and tuning knobs for one multilevel run.

    Attributes:
        models: one factor for "zcb", two for "spread".
        payoff: "zcb" or "spread".
        horizon: maturity T.
        epsilon: target root-mean-square error.
        refinement: steps multiplier between levels.
        max_level: finest level L; level l uses refinement**l steps.
        pilot_paths: paths per level in the variance-estimation phase.
        path_ceiling: hard cap on the total allocated paths.
        strike: spread strike (spread only).
        correlation: correlation between the two driving motions.
        k: lower projection exponent for the factors' plans.
        scale_lo: multiplicative loosening of the lower clamp.
    """

    models: tuple[ModelTriple, ...]
    payoff: str
    horizon: float
    epsilon: float
    refinement: int = 4
    max_level: int = 5
    pilot_paths: int = 1000
    path_ceiling: int = 2 ** 31
    strike: float | None = None
    correlation: float = 0.0
    k: float = 0.25
    scale_lo: float = 0.01

    def __post_init__(self):
        if self.payoff not in _PAYOFFS:
            raise DomainError(f"payoff must be one of {_PAYOFFS}, got {self.payoff!r}")
        expected = 1 if self.payoff == "zcb" else 2
        if len(self.models) != expected:
            raise DomainError(f"{self.payoff!r} payoff needs exactly {expected} model(s)")
        if self.payoff == "spread" and self.strike is None:
            raise DomainError("spread payoff needs a strike")
        if self.horizon <= 0 or self.epsilon <= 0:
            raise DomainError("horizon and epsilon must be positive")
        if self.refinement < 2:
            raise DomainError("refinement must be >= 2")
        if self.max_level < 1:
            raise DomainError("max_level must be >= 1")
        if self.pilot_paths < 2:
            raise DomainError("pilot_paths must be >= 2")
        if self.path_ceiling < self.pilot_paths * (self.max_level + 1):
            raise DomainError("path_ceiling cannot be below the pilot phase total")
        if not -1.0 <= self.correlation <= 1.0:
            raise DomainError("correlation must lie in [-1, 1]")
        if self.k <= 0 or self.scale_lo <= 0:
            raise DomainError("k and scale_lo must be positive")


@dataclass(frozen=True)
class MlmcLevel:
    level: int
    h: float
    paths: int
    mean_diff: float
    var_diff: float
    mean_fine: float
    var_fine: float
    cost: int


@dataclass(frozen=True)
class MlmcReport:
    levels: tuple[MlmcLevel, ...]
    estimator: float
    std_error: float
    bias_proxy: float
    rmse_estimate: float
    epsilon: float
    cost_mlmc: int
    cost_std: int
    savings: float
    seed: int
    metadata: dict


def allocate_paths(variances: Sequence[float], step_sizes: Sequence[float],
                   epsilon: float, *, floor: int = 1) -> np.ndarray:
    """Per-level path counts meeting a variance budget of epsilon**2 / 2.

    N_l = ceil((2 / eps^2) sqrt(V_l h_l) * sum_j sqrt(V_j / h_j)), floored
    at `floor`.  All-zero variances fall back to the floor everywhere.
    """
    v = np.asarray(variances, dtype=float)
    h = np.asarray(step_sizes, dtype=float)
    if v.shape != h.shape or v.ndim != 1:
        raise ValueError("variances and step_sizes must be matching 1-d sequences")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if np.any(v < 0) or np.any(h <= 0):
        raise DomainError("variances must be >= 0 and step sizes > 0")
    if floor < 1:
        raise DomainError("floor must be >= 1")
    total = float(np.sum(np.sqrt(v / h)))
    if total == 0.0:
        return np.full(v.shape, floor, dtype=np.int64)
    raw = np.ceil((2.0 / (epsilon * epsilon)) * np.sqrt(v * h) * total)
    return np.maximum(raw, floor).astype(np.int64)


def _plans(config: MlmcConfig) -> tuple[ProjectionPlan, ...]:
    return tuple(manual_plan(t.transformed, k=config.k, scale_lo=config.scale_lo)
                 for t in config.models)


def _chunks(start: int, stop: int):
    """Yield (block, row_lo, row_hi) for paths [start, stop), block by block."""
    while start < stop:
        block, row_lo = divmod(start, BLOCK_WIDTH)
        row_hi = min(BLOCK_WIDTH, row_lo + (stop - start))
        yield block, row_lo, row_hi
        start += row_hi - row_lo


def _increments(fabric: BrownianFabric, level: int,
                chunks: Sequence[tuple[int, int, int]], n: int, h: float, *,
                factor: int = 0) -> np.ndarray:
    """Brownian increments of the chunks' rows, stacked in chunk order.

    A chunk (block, row_lo, row_hi) is rows [row_lo, row_hi) of a block, and
    each block is drawn whole from its own stream.  One chunk is returned as
    a row slice of its block; several are copied into one column-major
    array, so every value is the one its block gives.
    """
    parts = (fabric.block_increments(level, block, n, h, factor=factor,
                                     rows=row_hi)[row_lo:]
             for block, row_lo, row_hi in chunks)
    if len(chunks) == 1:
        return next(parts)
    out = np.empty((sum(hi - lo for _, lo, hi in chunks), n), order="F")
    at = 0
    for part in parts:
        out[at:at + len(part)] = part
        at += len(part)
    return out


def _drivers(config: MlmcConfig, fabric: BrownianFabric, level: int,
             chunks: Sequence[tuple[int, int, int]], n: int, h: float,
             team: workers.Team | None = None) -> tuple[np.ndarray, ...]:
    """Brownian increments for each factor over the rows of `chunks`.

    With a `team`, factor 1's blocks are drawn on a pool thread while this
    thread draws factor 0's, and the correlation mix is split over the team.
    """
    draw = functools.partial(_increments, fabric, level, chunks, n, h)
    if config.payoff == "zcb":
        return (draw(),)
    pending = None
    if team is not None and sum(hi for _, _, hi in chunks) * n >= _INLINE_NORMALS:
        pending = team.submit(draw, factor=1)
    w = draw()
    w_perp = draw(factor=1) if pending is None else pending.result()
    # Mixed into w_perp's own storage: no third block-sized array.
    return (w, correlate(w, w_perp, config.correlation, out=w_perp, team=team))


def _payoff_values(config: MlmcConfig, plans: tuple[ProjectionPlan, ...],
                   drivers: tuple[np.ndarray, ...], n: int, h: float) -> np.ndarray:
    """Payoffs for a batch of paths at one resolution."""
    if config.payoff == "zcb":
        triple, plan, drv = config.models[0], plans[0], drivers[0]
        model, inverse = triple.transformed, triple.lamperti.inverse
        y = np.full(drv.shape[0], model.y0)
        integral = np.zeros(drv.shape[0])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i in range(n):
                integral += inverse(np.maximum(y, 0.0)) * h
                y = (y + model.f(project(y, n, plan)) * h
                     + diffusion_bar(model, y, n, plan) * drv[:, i])
        return np.exp(-integral)
    terminals = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for triple, plan, drv in zip(config.models, plans, drivers):
            model = triple.transformed
            y = np.full(drv.shape[0], model.y0)
            for i in range(n):
                y = (y + model.f(project(y, n, plan)) * h
                     + diffusion_bar(model, y, n, plan) * drv[:, i])
            terminals.append(triple.lamperti.inverse(np.maximum(y, 0.0)))
    return payoff_spread(terminals[0], terminals[1], config.strike)


def _pair_batch(config: MlmcConfig, plans: tuple[ProjectionPlan, ...],
                fabric: BrownianFabric, level: int,
                chunks: Sequence[tuple[int, int, int]],
                team: workers.Team | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(fine payoff, coarse payoff) for the rows of `chunks` at one level.

    The coarse payoff reruns the scheme on the summed increments of the same
    Brownian path; level 0 has no coarse half and returns zeros there.  Each
    path's payoffs are elementwise in its own increments, so they do not
    depend on which rows share the batch.

    Raises:
        NonFinite: naming the level, block and row of the first path whose
            fine or coarse payoff is not finite.
    """
    m = config.refinement
    n_fine = m ** level
    h_fine = config.horizon / n_fine
    drivers = _drivers(config, fabric, level, chunks, n_fine, h_fine, team)
    fine = _payoff_values(config, plans, drivers, n_fine, h_fine)
    if level == 0:
        coarse = np.zeros_like(fine)
    else:
        coarse_drivers = tuple(couple_levels(d, m) for d in drivers)
        coarse = _payoff_values(config, plans, coarse_drivers,
                                n_fine // m, h_fine * m)
    finite = np.isfinite(fine) & np.isfinite(coarse)
    if not finite.all():
        at = int(np.argmin(finite))
        for block, row_lo, row_hi in chunks:
            if at < row_hi - row_lo:
                break
            at -= row_hi - row_lo
        raise NonFinite(f"non-finite payoff at level {level}, block {block}, "
                        f"row {row_lo + at}")
    return fine, coarse


def level_sample(config: MlmcConfig, fabric: BrownianFabric, level: int,
                 path: int) -> tuple[float, float]:
    """Payoff pair (P_l, P_{l-1}) for a single path, with P_{-1} = 0.

    Both payoffs are driven by the same Brownian path (the coarse one by the
    summed increments), so regenerating the same (level, path) address
    reproduces the pair exactly.  Intended for inspection and testing; the
    estimator itself consumes whole blocks (this call generates the path's
    block prefix).
    """
    if level < 0 or level > config.max_level:
        raise DomainError(f"level must be in [0, {config.max_level}]")
    if path < 0:
        raise DomainError("path must be nonnegative")
    block, row = divmod(path, BLOCK_WIDTH)
    fine, coarse = _pair_batch(config, _plans(config), fabric, level,
                               [(block, row, row + 1)])
    return float(fine[0]), float(coarse[0])


class _LevelAccumulator:
    """Streaming sums for one level, extended in deterministic block order."""

    def __init__(self):
        self.count = 0
        self.sum_diff = 0.0
        self.sumsq_diff = 0.0
        self.sum_fine = 0.0
        self.sumsq_fine = 0.0

    def extend(self, config, plans, fabric, level, target, team=None):
        """Add paths [count, target) of `level`, block by block.

        Blocks are cut into batches of at most `_BATCH_NORMALS` normals per
        factor (at least one block each).  With a team, up to `team.size`
        batches are drawn and stepped at once; a block bigger than the cap
        is a batch of its own and splits its draws over the team instead.
        The sums are folded here, one block's rows at a time in block order,
        so they are the same for every batch size and thread count.
        """
        chunks = list(_chunks(self.count, target))
        per_batch = _BATCH_NORMALS // (BLOCK_WIDTH * config.refinement ** level)
        size = max(1, per_batch)
        batches = [chunks[i:i + size] for i in range(0, len(chunks), size)]
        pair = functools.partial(_pair_batch, config, plans, fabric, level)
        if team is None or per_batch == 0:
            results = (pair(batch, team) for batch in batches)
        else:
            results = team.imap(pair, batches)
        for batch, (fine, coarse) in zip(batches, results):
            at = 0
            for _, row_lo, row_hi in batch:
                rows = slice(at, at + row_hi - row_lo)
                diff = fine[rows] - coarse[rows]
                self.sum_diff += float(np.sum(diff))
                self.sumsq_diff += float(np.dot(diff, diff))
                self.sum_fine += float(np.sum(fine[rows]))
                self.sumsq_fine += float(np.dot(fine[rows], fine[rows]))
                self.count += row_hi - row_lo
                at = rows.stop

    def mean_var_diff(self) -> tuple[float, float]:
        mean = self.sum_diff / self.count
        return mean, max(self.sumsq_diff / self.count - mean * mean, 0.0)

    def mean_var_fine(self) -> tuple[float, float]:
        mean = self.sum_fine / self.count
        return mean, max(self.sumsq_fine / self.count - mean * mean, 0.0)


def mlmc_estimate(config: MlmcConfig, fabric: BrownianFabric, *,
                  threads: int = 1) -> MlmcReport:
    """Run the pilot, allocate paths, and estimate the payoff expectation.

    `threads` caps the workers of a two-factor payoff (0 means all cores;
    larger values are clamped to the cores available).  On levels whose
    blocks are small, workers draw and step whole batches of blocks at
    once; on the others they draw the two factors' blocks at the same time
    and split the correlation mix.  Sums stay on the calling thread in
    block order, so the report is the same for every value.  Single-factor
    payoffs always run on the calling thread.

    Raises:
        BudgetExceeded: the allocation asks for more total paths than
            config.path_ceiling.
    """
    m = config.refinement
    levels = list(range(config.max_level + 1))
    step_sizes = [config.horizon / m ** l for l in levels]
    plans = _plans(config)
    accs = [_LevelAccumulator() for _ in levels]

    # Finest level first: its big blocks are drawn before the small batches'
    # freed temporaries are scattered over the heap, which keeps peak memory
    # down.  The levels' sums are independent, so the order changes no value.
    with workers.team(threads if len(config.models) > 1 else 1) as team:
        for l in reversed(levels):
            accs[l].extend(config, plans, fabric, l, config.pilot_paths, team)
        pilot_vars = [accs[l].mean_var_diff()[1] for l in levels]
        allocation = allocate_paths(pilot_vars, step_sizes, config.epsilon,
                                    floor=config.pilot_paths)
        total = int(allocation.sum())
        if total > config.path_ceiling:
            raise BudgetExceeded(
                f"allocation of {total} paths exceeds ceiling {config.path_ceiling}")
        for l in reversed(levels):
            accs[l].extend(config, plans, fabric, l, int(allocation[l]), team)

    level_rows = []
    estimator = 0.0
    variance_of_estimator = 0.0
    cost_mlmc = 0
    for l in levels:
        acc = accs[l]
        mean_diff, var_diff = acc.mean_var_diff()
        mean_fine, var_fine = acc.mean_var_fine()
        estimator += mean_diff
        variance_of_estimator += var_diff / acc.count
        cost = acc.count * m ** l
        cost_mlmc += cost
        level_rows.append(MlmcLevel(
            level=l, h=step_sizes[l], paths=acc.count, mean_diff=mean_diff,
            var_diff=var_diff, mean_fine=mean_fine, var_fine=var_fine,
            cost=cost))

    bias_proxy = abs(level_rows[-1].mean_diff) / (m - 1)
    std_error = math.sqrt(variance_of_estimator)
    rmse_estimate = math.sqrt(variance_of_estimator + bias_proxy * bias_proxy)

    # Standard-MC benchmark: a plain estimator with the bias of this run
    # steps on the finest multilevel grid, with the path count set by the
    # payoff variance at the same epsilon^2 / 2 variance budget.
    payoff_variance = level_rows[-1].var_fine
    paths_std = max(1, math.ceil(2.0 * payoff_variance / config.epsilon ** 2))
    steps_std = m ** config.max_level
    cost_std = paths_std * steps_std
    savings = cost_std / cost_mlmc

    metadata = {
        "payoff": config.payoff,
        "strike": config.strike,
        "correlation": config.correlation,
        "refinement": m,
        "max_level": config.max_level,
        "pilot_paths": config.pilot_paths,
        "horizon": config.horizon,
        "k": config.k,
        "scale_lo": config.scale_lo,
        "paths_std": paths_std,
        "steps_std": steps_std,
        "models": [t.transformed.meta for t in config.models],
    }
    return MlmcReport(
        levels=tuple(level_rows), estimator=estimator, std_error=std_error,
        bias_proxy=bias_proxy, rmse_estimate=rmse_estimate,
        epsilon=config.epsilon, cost_mlmc=cost_mlmc, cost_std=cost_std,
        savings=savings, seed=fabric.master_seed, metadata=metadata)


def _implicit_values(config: MlmcConfig, params: list,
                     drivers: tuple[np.ndarray, ...], n: int, h: float) -> np.ndarray:
    """Payoffs for a batch of paths from the drift-implicit stepper."""
    # Looked up at call time, so that a wrapper installed on
    # `reference.implicit_cir_step` (as the benchmark tracer does) is called.
    from .reference import implicit_cir_step

    if config.payoff == "zcb":
        w = drivers[0]
        y = np.full(w.shape[0], params[0].y0)
        integral = np.zeros(w.shape[0])
        inverse = config.models[0].lamperti.inverse
        for i in range(n):
            integral += inverse(y) * h
            y = implicit_cir_step(y, params[0], h, w[:, i])
        return np.exp(-integral)
    terminals = []
    for p, triple, drv in zip(params, config.models, drivers):
        y = np.full(drv.shape[0], p.y0)
        for i in range(n):
            y = implicit_cir_step(y, p, h, drv[:, i])
        terminals.append(triple.lamperti.inverse(y))
    return payoff_spread(terminals[0], terminals[1], config.strike)


def implicit_price(config: MlmcConfig, fabric: BrownianFabric, *, paths: int,
                   fine_exponent: int = 12, threads: int = 1) -> tuple[float, float]:
    """High-resolution benchmark price from the drift-implicit stepper.

    Prices the configured payoff with 2**fine_exponent implicit steps per
    path, using addresses disjoint from the multilevel levels (the grid
    exponent is the stream level tag).  Returns (price, standard error).

    `threads` works as in `mlmc_estimate`: for two factors, workers draw
    both factors' blocks at the same time and split the correlation mix,
    while the implicit steps and the sums stay on the calling thread, so
    the result is the same for every value.
    """
    from .reference import ImplicitCirParams

    if paths < 2:
        raise DomainError("paths must be >= 2")
    params = []
    for triple in config.models:
        model = triple.transformed
        if model.gamma_const is None or model.gamma_const <= 0 \
                or "drift_a" not in model.meta:
            raise DomainError("implicit benchmark needs square-root-type factors")
        params.append(ImplicitCirParams(
            a=model.meta["drift_a"], b=model.meta["drift_b"],
            c=model.gamma_const, y0=model.y0))

    n = 1 << fine_exponent
    h = config.horizon / n
    total = 0.0
    total_sq = 0.0
    with workers.team(threads if len(config.models) > 1 else 1) as team:
        for chunk in _chunks(0, paths):
            # The drivers are a call argument only, so each block is released
            # before the next one is drawn.
            values = _implicit_values(
                config, params,
                _drivers(config, fabric, fine_exponent, [chunk], n, h, team),
                n, h)
            total += float(np.sum(values))
            total_sq += float(np.dot(values, values))

    mean = total / paths
    var = max(total_sq / paths - mean * mean, 0.0)
    return mean, math.sqrt(var / paths)
