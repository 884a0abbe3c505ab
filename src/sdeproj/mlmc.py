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
import threading
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Sequence

import numpy as np

from .blocks import Moments, Stream, fold
from .brownian import BrownianFabric, correlate, couple_levels
from .errors import (BudgetExceeded, DomainError, NonFinite, check_bound, check_bounds,
                     check_family)
from .models import ModelTriple
# perfbench's tracer wraps `project` and `diffusion_bar` under this module.
from .projection import (_HP_TOL, _evolve, diffusion_bar, manual_plan,  # noqa: F401
                         project)
from .reference import (CLOSED_FORM_FAMILIES, ImplicitCirParams, _implicit_evolve,
                        ginzburg_landau_terminal)

PAYOFFS = ("zcb", "spread")
# The argument bounds of `implicit_price` and `gl_exact_price`
# (`errors.check_bound`'s keywords), which the price config block reads.
PRICE_BOUNDS = {"paths": {"lo": 2}, "fine_exponent": {"lo": 1, "hi": 24},
                "horizon": {"positive": True}}


def payoff_spread(x1: np.ndarray, x2: np.ndarray, strike: float) -> np.ndarray:
    """European spread call max(x1 - x2 - strike, 0) on terminal values."""
    return np.maximum(np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)
                      - strike, 0.0)


def check_levels(refinement: int, max_level: int, pilot_paths: int,
                 path_ceiling: int) -> None:
    """Refuse a finest level past 2**24 steps, the finest study or price grid
    (`DomainError` naming `max_level`), and a path ceiling below the pilot
    phase's total (naming `path_ceiling`)."""
    # max_level first keeps the power small.
    if max_level > 24 or refinement ** max_level > 2 ** 24:
        raise DomainError("refinement ** max_level must be <= 2 ** 24 steps",
                          "max_level")
    pilot_total = pilot_paths * (max_level + 1)
    if not path_ceiling >= pilot_total:
        raise DomainError(f"must be >= pilot_paths * (max_level + 1) = "
                          f"{pilot_total}", "path_ceiling")


def check_lower_exponent(models: Sequence[ModelTriple], k: float,
                         name: str = "k") -> None:
    """Refuse a lower projection exponent `k` that some factor's plan cannot
    take: `ProjectionPlan` needs 2*beta*k <= 1 for the factor's beta.

    Raises:
        DomainError: naming `name`, the caller's name for `k`.
    """
    for triple in models:
        beta = triple.transformed.beta
        if not 2.0 * beta * k <= 1.0 + _HP_TOL:
            raise DomainError(f"2*beta*k = {2.0 * beta * k} exceeds 1 for the "
                              f"{triple.transformed.name} model (beta = {beta})",
                              name)


def check_strike(payoff: str, strike: float | None) -> None:
    """Refuse a spread payoff without a strike (`DomainError` naming `strike`)."""
    if payoff == "spread" and strike is None:
        raise DomainError("spread payoff needs a strike", "strike")


def _bounded(default: Any = MISSING, **bound):
    """A field with its bound (`errors.check_bound`'s keywords) as metadata."""
    return field(default=default, metadata={"bound": bound})


@dataclass(frozen=True, kw_only=True)
class Problem:
    """What `implicit_price` prices and `mlmc_estimate` estimates.
    Construction checks each field's bound, declared in its metadata where
    the config blocks read it, then the cross-field rules.

    Attributes:
        models: one factor for "zcb", two for "spread".
        payoff: "zcb" or "spread".
        horizon: maturity T.
        strike: spread strike (spread only).
        correlation: correlation between the two driving motions.
    """

    models: tuple[ModelTriple, ...]
    payoff: str = _bounded(choices=PAYOFFS)
    horizon: float = _bounded(positive=True)
    strike: float | None = _bounded(None, finite=True)
    correlation: float = _bounded(0.0, lo=-1, hi=1)

    def __post_init__(self):
        for f in fields(self):
            check_bound(getattr(self, f.name), f.name, **f.metadata.get("bound", {}))
        expected = 1 if self.payoff == "zcb" else 2
        if len(self.models) != expected:
            raise DomainError(f"{self.payoff!r} payoff needs exactly {expected} "
                              f"model(s)", "models")
        check_strike(self.payoff, self.strike)


# The families the multilevel engine runs: those on the half line.  It
# clamps from below only, and cannot plan a full-line model's symmetric box.
MLMC_FAMILIES = ("cir", "three-halves", "ait-sahalia", "locally-smooth")


@dataclass(frozen=True, kw_only=True)
class MlmcConfig(Problem):
    """A problem and the tuning of one multilevel run.  Construction also
    refuses a factor outside `MLMC_FAMILIES` (`DomainError` naming
    `models`).

    Attributes:
        epsilon: target root-mean-square error.
        refinement: steps multiplier between levels.
        max_level: finest level L; level l uses refinement**l steps.
        pilot_paths: paths per level in the variance-estimation phase.
        path_ceiling: hard cap on the total allocated paths.
        k: lower projection exponent for the factors' plans.
        scale_lo: multiplicative loosening of the lower clamp.
    """

    epsilon: float = _bounded(positive=True)
    refinement: int = _bounded(4, lo=2)
    max_level: int = _bounded(5, lo=1)
    pilot_paths: int = _bounded(1000, lo=2)
    path_ceiling: int = 2 ** 31
    k: float = _bounded(0.25, positive=True)
    scale_lo: float = _bounded(0.01, positive=True)

    def __post_init__(self):
        super().__post_init__()
        for triple in self.models:
            check_family(triple.transformed.meta.get("family"), MLMC_FAMILIES,
                         "the multilevel engine", "models")
        check_levels(self.refinement, self.max_level, self.pilot_paths,
                     self.path_ceiling)
        check_lower_exponent(self.models, self.k)


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
    check_bound(epsilon, "epsilon", positive=True)
    check_bound(floor, "floor", lo=1)
    if np.any(v < 0) or np.any(h <= 0):
        raise DomainError("variances must be >= 0 and step sizes > 0")
    total = float(np.sum(np.sqrt(v / h)))
    if total == 0.0:
        return np.full(v.shape, floor, dtype=np.int64)
    raw = np.ceil((2.0 / (epsilon * epsilon)) * np.sqrt(v * h) * total)
    return np.maximum(raw, floor).astype(np.int64)


def _projected(config: MlmcConfig) -> tuple:
    """One projected stepper per factor, as `_payoff_values` calls them."""
    return tuple(functools.partial(
        _evolve, t.transformed,
        manual_plan(t.transformed, k=config.k, scale_lo=config.scale_lo))
        for t in config.models)


def _stream(config: MlmcConfig, fabric: BrownianFabric, level: int) -> Stream:
    """The block streams of `level`'s fine grid, one per factor."""
    n = config.refinement ** level
    return Stream(fabric, level, n, config.horizon / n, len(config.models))


def _correlated(config: Problem, drivers: np.ndarray, team=None) -> np.ndarray:
    """The drawn `drivers` (`Stream.draw`), with a spread's second row block
    mixed in place into its correlated motion, split over `team` if one is
    given."""
    if config.payoff != "zcb":
        w, w_perp = np.split(drivers, 2)
        # Mixed into w_perp's own storage: no third block-sized array.
        correlate(w, w_perp, config.correlation, out=w_perp, team=team)
    return drivers


def _payoff_values(config: Problem, steppers: tuple, drivers: np.ndarray,
                   n: int, h: float) -> np.ndarray:
    """Payoffs for a batch of paths at one resolution, from `drivers` that
    stack every factor's rows in row blocks.  Either each of `steppers`
    steps its factor's row block (`_evolve` with its model bound), or one
    `_implicit_evolve` steps them all.  A rate is the inverse Lamperti image
    of max(state, 0); implicit states are never < 0."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rates = [lambda y, inverse=t.lamperti.inverse: inverse(np.maximum(y, 0.0))
                 for t in config.models]
        if config.payoff == "zcb":
            return np.exp(-steppers[0](n, h, drivers, rates[0])[1])
        if len(steppers) == 1:
            states = np.split(steppers[0](n, h, drivers)[0], len(config.models))
            x1, x2 = (rate(y) for rate, y in zip(rates, states))
        else:
            # Each factor's states are freed once its rate is taken.
            x1, x2 = (rate(run(n, h, drv)[0]) for run, rate, drv
                      in zip(steppers, rates, np.split(drivers, len(steppers))))
        return payoff_spread(x1, x2, config.strike)


def _pair_batch(config: MlmcConfig, steppers: tuple, level: int,
                drivers: np.ndarray, team=None) -> tuple[np.ndarray, ...]:
    """(fine payoff, coarse payoff) at one level for the paths of `drivers`,
    drawn from the level's stream and correlated with `team` (see
    `_correlated`); not checked for finiteness.

    The coarse payoff reruns the scheme on the summed increments of the same
    Brownian path; level 0 has no coarse half and returns (fine payoff,).  Each
    path's payoffs are elementwise in its own increments, so they do not
    depend on which rows share the call: `blocks.fold` calls this on whole
    batches or on their row slabs.
    """
    m = config.refinement
    n_fine = m ** level
    h_fine = config.horizon / n_fine
    drivers = _correlated(config, drivers, team)
    fine = _payoff_values(config, steppers, drivers, n_fine, h_fine)
    if level == 0:
        return (fine,)
    return fine, _payoff_values(config, steppers, couple_levels(drivers, m),
                                n_fine // m, h_fine * m)


def _check_finite(level: int, chunks: Sequence[tuple[int, int, int]],
                  values: Sequence[np.ndarray]) -> None:
    """Raise NonFinite naming the level, block and row of the first path of
    `chunks`, in row order, with a non-finite entry in any of `values`."""
    finite = np.logical_and.reduce([np.isfinite(v) for v in values])
    if not finite.all():
        at = int(np.argmin(finite))
        for block, row_lo, row_hi in chunks:
            if at < row_hi - row_lo:
                break
            at -= row_hi - row_lo
        raise NonFinite(f"non-finite payoff at level {level}, block {block}, "
                        f"row {row_lo + at}")


def mlmc_estimate(config: MlmcConfig, fabric: BrownianFabric, *,
                  threads: int = 0) -> MlmcReport:
    """Run the pilot, allocate paths, and estimate the payoff expectation.

    `threads` caps the workers (0, the default, means all cores; larger
    values are clamped to the cores available).  Each level is walked by
    `blocks.fold`: on levels whose blocks are small, workers draw and step
    whole batches of blocks at once; on the others, blocks are taken one
    per worker and drawn in row slabs, with every (factor, block) stream
    filled at once and the correlation mix split over the workers.  Each
    block's moments are merged on the calling thread in block order, so
    the report is the same for every value.

    Every (level, factor, block) stream is drawn once: each level keeps one
    `blocks.Stream` across the pilot and the final pass, so the final pass
    continues a block where the pilot left it.

    Raises:
        NonFinite: naming the level, block and row of the first path, in
            block order, whose fine or coarse payoff is not finite.
        BudgetExceeded: the allocation asks for more total paths than
            config.path_ceiling.
    """
    m = config.refinement
    levels = list(range(config.max_level + 1))
    step_sizes = [config.horizon / m ** l for l in levels]
    steppers = _projected(config)
    diffs = [Moments() for _ in levels]
    # Level 0 has no coarse half: its differences are its payoffs, and one
    # `Moments` serves as both.
    fines = diffs[:1] + [Moments() for _ in levels[1:]]
    streams = [_stream(config, fabric, l) for l in levels]

    def extend(level: int, target: int) -> None:
        """Fold paths [count, target) of `level` into its moments, in block
        order (`blocks.fold`)."""
        def values(drivers, team):
            pair = _pair_batch(config, steppers, level, drivers, team)
            return pair if level == 0 else (pair[0] - pair[1], pair[0])

        totals = (diffs[0],) if level == 0 else (diffs[level], fines[level])
        fold(values, streams[level], diffs[level].count, target, totals,
             threads=threads, check=functools.partial(_check_finite, level))

    # Finest level first: its big blocks are drawn before the small batches'
    # freed temporaries are scattered over the heap, which keeps peak memory
    # down.  The levels are independent, so the order changes no value.
    for l in reversed(levels):
        extend(l, config.pilot_paths)
    pilot_vars = [d.var for d in diffs]
    allocation = allocate_paths(pilot_vars, step_sizes, config.epsilon,
                                floor=config.pilot_paths)
    total = int(allocation.sum())
    if total > config.path_ceiling:
        raise BudgetExceeded(
            f"allocation of {total} paths exceeds ceiling {config.path_ceiling}")
    for l in reversed(levels):
        extend(l, int(allocation[l]))

    level_rows = []
    estimator = 0.0
    variance_of_estimator = 0.0
    cost_mlmc = 0
    for l, diff, fine in zip(levels, diffs, fines):
        estimator += diff.mean
        variance_of_estimator += diff.var / diff.count
        cost = diff.count * m ** l
        cost_mlmc += cost
        level_rows.append(MlmcLevel(
            level=l, h=step_sizes[l], paths=diff.count, mean_diff=diff.mean,
            var_diff=diff.var, mean_fine=fine.mean, var_fine=fine.var,
            cost=cost))

    bias_proxy = abs(level_rows[-1].mean_diff) / (m - 1)
    std_error = math.sqrt(variance_of_estimator)
    # From the reported std_error, so that the report's own identity
    # rmse^2 = std_error^2 + bias_proxy^2 holds in floating point.
    rmse_estimate = math.sqrt(std_error ** 2 + bias_proxy ** 2)

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


def _mean_and_error(values, stream: Stream, paths: int,
                    threads: int) -> tuple[float, float]:
    """Mean and standard error of the per-path `values(increments, team)`
    over paths [0, paths) of `stream`, folded by `blocks.fold` with
    `by_block=True`; a non-finite value raises `NonFinite`, as in
    `mlmc_estimate`.  `values` must hold a lock of its own around its
    stepping call, so that the per-block walk steps one block at a time."""
    moments = Moments()
    fold(lambda drawn, team: (values(drawn, team),), stream, 0, paths, (moments,),
         threads=threads, by_block=True,
         check=functools.partial(_check_finite, stream.level))
    return moments.mean, math.sqrt(moments.var / paths)


def implicit_price(problem: Problem, fabric: BrownianFabric, *, paths: int,
                   fine_exponent: int = 12, threads: int = 0) -> tuple[float, float]:
    """High-resolution benchmark price from the drift-implicit stepper.

    Prices the problem's payoff with 2**fine_exponent implicit steps per
    path, using addresses disjoint from the multilevel levels (the grid
    exponent is the stream level tag).  Returns (price, standard error).

    Every factor's increments are drawn into one `blocks.Stream` array,
    factor f's rows in row block f; the correlation is mixed in place on
    the row blocks, and one `_implicit_evolve` call steps every factor's
    rows at once, so a row slab of long rows holds BLOCK_WIDTH stacked
    rows, half a block of each factor of a spread.

    `threads` works as in `mlmc_estimate` (0, the default, means all
    cores): `blocks.fold` steps short rows in batches of whole blocks on the
    workers.  Long ones, on two workers and two or more blocks, are walked
    one block a worker, each drawing, mixing and stepping its block in row
    slabs, one worker stepping at a time under the stepping gate, a lock
    held around the stepping call alone.  On more workers, or a single
    block, they are drawn in shared row slabs, with every (factor, block)
    stream filled at once and the correlation mix split over the workers,
    and stepped on the calling thread.  The result is the same for every
    value.
    """
    check_bounds(PRICE_BOUNDS, paths=paths, fine_exponent=fine_exponent)
    stepper = functools.partial(_implicit_evolve, [
        ImplicitCirParams.from_model(t.transformed) for t in problem.models])
    n = 1 << fine_exponent
    h = problem.horizon / n

    gate = threading.Lock()  # one worker steps at a time

    def payoffs(drawn, team):
        mixed = _correlated(problem, drawn, team)  # outside the gate
        with gate:
            return _payoff_values(problem, (stepper,), mixed, n, h)

    stream = Stream(fabric, fine_exponent, n, h, len(problem.models))
    return _mean_and_error(payoffs, stream, paths, threads)


def gl_exact_price(triple: ModelTriple, fabric: BrownianFabric, *, paths: int,
                   fine_exponent: int = 12, horizon: float = 1.0,
                   threads: int = 0) -> tuple[float, float]:
    """(price, standard error) of E[X_T] for the ginzburg-landau model, from
    `ginzburg_landau_terminal` on 2**fine_exponent steps (streams at level
    `fine_exponent`).  With sigma = 0 the price is exact: the same function
    on one row of zero increments, and no path is drawn.

    `threads` works as in `implicit_price`; the result is the same for
    every value.
    """
    check_bounds(PRICE_BOUNDS, paths=paths, fine_exponent=fine_exponent,
                 horizon=horizon)
    meta = triple.transformed.meta
    check_family(meta.get("family"), CLOSED_FORM_FAMILIES, "the exact price")
    lam, sigma, x0 = meta["lam"], meta["sigma"], meta["x0"]
    n = 1 << fine_exponent
    times = np.linspace(0.0, horizon, n + 1)
    if sigma == 0.0:
        value = ginzburg_landau_terminal(lam, 0.0, x0, times, np.zeros((1, n)))
        return float(value[0]), 0.0

    gate = threading.Lock()  # as in implicit_price

    def terminals(drawn, team):
        with gate:
            return ginzburg_landau_terminal(lam, sigma, x0, times, drawn)

    return _mean_and_error(terminals, Stream(fabric, fine_exponent, n, horizon / n),
                           paths, threads)
