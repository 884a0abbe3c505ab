"""Strong convergence studies against a reference solution.

For each tested resolution 2^N the harness simulates coupled paths: one
master fine grid of 2^fine_exponent steps drives the reference, and the
coarse increments for every N are obtained by summing the same fine
increments, so all resolutions see the same Brownian paths.  Errors are
averaged per resolution and the empirical rate is the slope of a base-2
log-log least-squares fit.

Exploding paths (classical Euler on stiff drifts) are not fatal: values that
leave [-2^20, 2^20] or turn NaN are capped at 2^20, counted per record, and
records containing any such path are excluded from the fit but kept in the
report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocks import Moments, Stream, fold
from .brownian import BrownianFabric, couple_levels, extend_coupling
from .errors import DomainError, check_bounds, check_family
from .models import LampertiMap, TransformedModel
from .projection import ProjectionPlan, check_readout, clamp_variant, evolve_terminal
# perfbench's tracer wraps `implicit_cir_step` under this module.
from .reference import (CLOSED_FORM_FAMILIES, ImplicitCirParams,  # noqa: F401
                        ginzburg_landau_terminal, implicit_cir_step,
                        implicit_cir_terminal)

VALUE_CAP = 2.0 ** 20

REFERENCES = ("closed-form", "implicit-fine-grid", "modified-scheme-fine-grid")
VARIANTS = ("modified", "classical", "implicit-reference")
CLAMPS = ("raw", "bar", "tilde", "check", "double")  # `clamp_variant`'s read-outs
# `run_convergence_study`'s argument bounds (`errors.check_bound`'s
# keywords), which the study and scheme config blocks read.
STUDY_BOUNDS = {"reference": {"choices": REFERENCES}, "variant": {"choices": VARIANTS},
                "readout": {"choices": CLAMPS}, "space": {"choices": ("x", "y")},
                "paths": {"lo": 1}, "fine_exponent": {"hi": 24},
                "horizon": {"positive": True}}


def check_exponents(exponents: Sequence[int], fine_exponent: int) -> None:
    """Refuse tested resolutions that are not strictly increasing in
    1 <= N < fine_exponent (`DomainError` naming `exponents`)."""
    if not exponents or list(exponents) != sorted(set(exponents)):
        raise DomainError("must be nonempty and strictly increasing", "exponents")
    if not 1 <= exponents[0] or not exponents[-1] < fine_exponent:
        raise DomainError("must satisfy 1 <= N < fine_exponent", "exponents")


@dataclass(frozen=True)
class ConvergenceRecord:
    """Error of one resolution: steps = 2^exponent, averaged over
    sample_count paths of which `diverged` were capped."""

    exponent: int
    steps: int
    error: float
    sample_count: int
    diverged: int


@dataclass(frozen=True)
class ConvergenceReport:
    records: tuple[ConvergenceRecord, ...]
    rate: float | None
    intercept: float | None
    r_squared: float | None
    seed: int
    metadata: dict


def fit_rate(steps: Sequence[float], errors: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares fit of log2(error) against log2(steps).

    Returns:
        (rate, intercept, r_squared) where rate is the negated slope.

    Raises:
        ValueError: fewer than two points, nonpositive errors, or all step
            counts equal.
    """
    s = np.asarray(steps, dtype=float)
    e = np.asarray(errors, dtype=float)
    if s.shape != e.shape or s.ndim != 1:
        raise ValueError("steps and errors must be matching one-dimensional sequences")
    if s.size < 2:
        raise ValueError("need at least two points to fit a rate")
    if np.any(e <= 0) or not np.all(np.isfinite(e)):
        raise ValueError("errors must be positive and finite")
    x = np.log2(s)
    y = np.log2(e)
    if np.ptp(x) == 0:
        raise ValueError("all step counts equal; slope undefined")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    centred = y - y.mean()
    ss_tot = float(np.dot(centred, centred))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-slope), float(intercept), float(min(max(r_squared, 0.0), 1.0))


def _sanitize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cap non-finite or huge values at VALUE_CAP; returns (values, bad mask)."""
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(values) | (np.abs(values) > VALUE_CAP)
    if bad.any():
        values = np.where(bad, VALUE_CAP, values)
    return values, bad


def _to_space(y: np.ndarray, space: str, readout: str, plan: ProjectionPlan,
              h: float, lamperti: LampertiMap) -> np.ndarray:
    out = clamp_variant(y, readout, plan, h)
    if space == "x":
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = lamperti.inverse(out)
    return out


def run_convergence_study(model: TransformedModel, lamperti: LampertiMap,
                          plan: ProjectionPlan, exponents: Sequence[int],
                          paths: int, reference: str, fabric: BrownianFabric,
                          *, horizon: float = 1.0, fine_exponent: int = 12,
                          space: str = "x", readout: str = "raw",
                          variant: str = "modified",
                          threads: int = 0) -> ConvergenceReport:
    """Measure strong errors over resolutions 2^N for N in `exponents`.

    Args:
        model, lamperti: transformed dynamics and the coordinate map back.
        plan: projection plan driving the scheme (no-clamp plan = classical
            Euler).
        exponents: tested resolutions as powers of two, each strictly below
            fine_exponent.
        paths: number of coupled sample paths.
        reference: "closed-form" (cubic-drift model solution, its time
            integral accumulated on the fine grid), "implicit-fine-grid"
            (drift-implicit stepper on the fine grid) or
            "modified-scheme-fine-grid" (this same scheme on the fine grid).
        fabric: increment source; the study consumes block streams at level
            `fine_exponent`.
        space: "x" compares in original coordinates, "y" in transformed ones.
        readout: terminal clamp variant applied to the scheme output.  One
            whose threshold `plan` lacks is refused before any path is
            drawn (`projection.check_readout`).
        variant: "modified" and "classical" both step with `plan` (build the
            plan accordingly) and differ only in the recorded label;
            "implicit-reference" steps the tested resolutions with the
            drift-implicit square-root scheme instead.
        threads: worker threads (0, the default, means all cores; larger
            values are clamped to the cores available).  `blocks.fold`
            draws the fine grid's `blocks.Stream`: long rows in row slabs,
            one block per worker, each block's stream filled on its own
            worker, and then only the calling thread steps the slab while
            one pool thread builds its coupled coarse grids; short ones in
            batches of whole blocks stepped on the workers, each building
            its own grids.  The report is the same for every value.
    """
    check_bounds(STUDY_BOUNDS, reference=reference, variant=variant,
                 readout=readout, space=space, paths=paths,
                 fine_exponent=fine_exponent, horizon=horizon)
    exps = [int(n) for n in exponents]
    check_exponents(exps, fine_exponent)
    check_readout(readout, plan)

    family = model.meta.get("family")
    if reference == "closed-form":
        check_family(family, CLOSED_FORM_FAMILIES, "the closed-form reference")
    implicit_params = None
    if reference == "implicit-fine-grid" or variant == "implicit-reference":
        implicit_params = ImplicitCirParams.from_model(model)

    n_fine = 1 << fine_exponent
    h_fine = horizon / n_fine
    # Only the closed-form reference reads the time grid.
    times = (np.linspace(0.0, horizon, n_fine + 1) if reference == "closed-form"
             else None)

    def coupled(fine):
        """The grids of the tested resolutions, finest first: each coarser
        one extends the previous one's sums (`extend_coupling`) instead of
        re-reading all of `fine`."""
        grids = [couple_levels(fine, n_fine >> exps[-1])]
        for n_prev, n_exp in zip(reversed(exps), reversed(exps[:-1])):
            grids.append(extend_coupling(grids[-1], fine, n_fine >> n_prev,
                                         n_fine >> n_exp))
        return grids

    def values(fine, team):
        """Per resolution, |reference - scheme| of each path drawn in `fine`
        on the fine grid; then per resolution, whether either value was
        capped.

        With a team, a pool thread builds the coupled grids while this one
        steps the reference: the chain is large ufunc calls that release
        the lock, the stepping many small ones that hold it."""
        pending = None if team is None else team.submit(coupled, fine)
        if reference == "closed-form":
            ref_vals = ginzburg_landau_terminal(model.meta["lam"], model.meta["sigma"],
                                                model.meta["x0"], times, fine)
            if space == "y":
                ref_vals = lamperti.forward(ref_vals)
        else:
            if reference == "implicit-fine-grid":
                y = implicit_cir_terminal(implicit_params, h_fine, fine)
            else:
                y = evolve_terminal(model, plan, n_fine, h_fine, fine)
            ref_vals = _to_space(y, space, "raw", plan, h_fine, lamperti)
        ref_vals, ref_bad = _sanitize(ref_vals)

        grids = coupled(fine) if pending is None else pending.result()
        errors, capped = {}, {}
        for n_exp in reversed(exps):
            n = 1 << n_exp
            h = horizon / n
            # Popped, so each grid is freed once its pass is done.
            coarse = grids.pop(0)
            if variant == "implicit-reference":
                y = implicit_cir_terminal(implicit_params, h, coarse)
            else:
                y = evolve_terminal(model, plan, n, h, coarse)
            approx, approx_bad = _sanitize(
                _to_space(y, space, readout, plan, h, lamperti))
            errors[n_exp] = np.abs(ref_vals - approx)
            capped[n_exp] = approx_bad | ref_bad
        return tuple(errors[n] for n in exps) + tuple(capped[n] for n in exps)

    # Per resolution, the moments of the errors and of the capped flags
    # (whose total is the count of capped paths).
    moments = [Moments() for _ in exps]
    capped_paths = [Moments() for _ in exps]
    fold(values, Stream(fabric, fine_exponent, n_fine, h_fine), 0, paths,
         moments + capped_paths, threads=threads)

    records = [ConvergenceRecord(exponent=n_exp, steps=1 << n_exp,
                                 error=min(moment.mean, VALUE_CAP),
                                 sample_count=paths, diverged=int(bad.total))
               for n_exp, moment, bad in zip(exps, moments, capped_paths)]

    fittable = [r for r in records
                if r.diverged == 0 and math.isfinite(r.error) and r.error > 0.0]
    rate = intercept = r_squared = None
    if len(fittable) >= 2:
        rate, intercept, r_squared = fit_rate(
            [r.steps for r in fittable], [r.error for r in fittable])

    metadata = {
        "model": model.name,
        "family": family,
        "variant": variant,
        "reference": reference,
        "space": space,
        "readout": readout,
        "horizon": horizon,
        "fine_exponent": fine_exponent,
        "paths": paths,
        "plan": {
            "k": plan.k, "k_prime": plan.k_prime,
            "scale_lo": plan.scale_lo, "scale_hi": plan.scale_hi,
            "rate": plan.rate, "regime": plan.regime,
        },
        "fittable_records": len(fittable),
    }
    return ConvergenceReport(
        records=tuple(records), rate=rate, intercept=intercept,
        r_squared=r_squared, seed=fabric.master_seed, metadata=metadata)
