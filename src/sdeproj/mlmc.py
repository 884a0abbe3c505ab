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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .brownian import BLOCK_WIDTH, BrownianFabric, correlate, couple_levels
from .errors import BudgetExceeded, DomainError, NonFinite
from .models import ModelTriple
from .projection import ProjectionPlan, diffusion_bar, manual_plan, project

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


def _drivers(config: MlmcConfig, fabric: BrownianFabric, level: int, block: int,
             row_lo: int, row_hi: int, n: int, h: float) -> tuple[np.ndarray, ...]:
    """Brownian increments for each factor, rows [row_lo, row_hi) of a block."""
    w = fabric.block_increments(level, block, n, h, rows=row_hi)[row_lo:]
    if config.payoff == "zcb":
        return (w,)
    w_perp = fabric.block_increments(level, block, n, h, factor=1,
                                     rows=row_hi)[row_lo:]
    return (w, correlate(w, w_perp, config.correlation))


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


def _pair_block(config: MlmcConfig, plans: tuple[ProjectionPlan, ...],
                fabric: BrownianFabric, level: int, block: int,
                row_lo: int, row_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(fine payoff, coarse payoff) for rows of one block at one level.

    The coarse payoff reruns the scheme on the summed increments of the same
    Brownian path; level 0 has no coarse half and returns zeros there.
    """
    m = config.refinement
    n_fine = m ** level
    h_fine = config.horizon / n_fine
    drivers = _drivers(config, fabric, level, block, row_lo, row_hi, n_fine, h_fine)
    fine = _payoff_values(config, plans, drivers, n_fine, h_fine)
    if level == 0:
        coarse = np.zeros_like(fine)
    else:
        coarse_drivers = tuple(couple_levels(d, m) for d in drivers)
        coarse = _payoff_values(config, plans, coarse_drivers,
                                n_fine // m, h_fine * m)
    if not (np.isfinite(fine).all() and np.isfinite(coarse).all()):
        raise NonFinite(f"non-finite payoff at level {level}")
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
    fine, coarse = _pair_block(config, _plans(config), fabric, level, block,
                               row, row + 1)
    return float(fine[0]), float(coarse[0])


class _LevelAccumulator:
    """Streaming sums for one level, extended in deterministic block order."""

    def __init__(self):
        self.count = 0
        self.sum_diff = 0.0
        self.sumsq_diff = 0.0
        self.sum_fine = 0.0
        self.sumsq_fine = 0.0

    def extend(self, config, plans, fabric, level, target):
        while self.count < target:
            block, row_lo = divmod(self.count, BLOCK_WIDTH)
            row_hi = min(BLOCK_WIDTH, row_lo + (target - self.count))
            fine, coarse = _pair_block(config, plans, fabric, level, block,
                                       row_lo, row_hi)
            diff = fine - coarse
            self.sum_diff += float(np.sum(diff))
            self.sumsq_diff += float(np.dot(diff, diff))
            self.sum_fine += float(np.sum(fine))
            self.sumsq_fine += float(np.dot(fine, fine))
            self.count += row_hi - row_lo

    def mean_var_diff(self) -> tuple[float, float]:
        mean = self.sum_diff / self.count
        return mean, max(self.sumsq_diff / self.count - mean * mean, 0.0)

    def mean_var_fine(self) -> tuple[float, float]:
        mean = self.sum_fine / self.count
        return mean, max(self.sumsq_fine / self.count - mean * mean, 0.0)


def mlmc_estimate(config: MlmcConfig, fabric: BrownianFabric) -> MlmcReport:
    """Run the pilot, allocate paths, and estimate the payoff expectation.

    Raises:
        BudgetExceeded: the allocation asks for more total paths than
            config.path_ceiling.
    """
    m = config.refinement
    levels = list(range(config.max_level + 1))
    step_sizes = [config.horizon / m ** l for l in levels]
    plans = _plans(config)
    accs = [_LevelAccumulator() for _ in levels]

    for l in levels:
        accs[l].extend(config, plans, fabric, l, config.pilot_paths)
    pilot_vars = [accs[l].mean_var_diff()[1] for l in levels]
    allocation = allocate_paths(pilot_vars, step_sizes, config.epsilon,
                                floor=config.pilot_paths)
    total = int(allocation.sum())
    if total > config.path_ceiling:
        raise BudgetExceeded(
            f"allocation of {total} paths exceeds ceiling {config.path_ceiling}")
    for l in levels:
        accs[l].extend(config, plans, fabric, l, int(allocation[l]))

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
                   fine_exponent: int = 12) -> tuple[float, float]:
    """High-resolution benchmark price from the drift-implicit stepper.

    Prices the configured payoff with 2**fine_exponent implicit steps per
    path, using addresses disjoint from the multilevel levels (the grid
    exponent is the stream level tag).  Returns (price, standard error).
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
    done = 0
    while done < paths:
        block, row_lo = divmod(done, BLOCK_WIDTH)
        row_hi = min(BLOCK_WIDTH, row_lo + (paths - done))
        # The drivers are a call argument only, so each block is released
        # before the next one is drawn.
        values = _implicit_values(
            config, params,
            _drivers(config, fabric, fine_exponent, block, row_lo, row_hi, n, h),
            n, h)
        total += float(np.sum(values))
        total_sq += float(np.dot(values, values))
        done += row_hi - row_lo

    mean = total / paths
    var = max(total_sq / paths - mean * mean, 0.0)
    return mean, math.sqrt(var / paths)
