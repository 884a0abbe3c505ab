"""The three benchmark workloads: experiment files, output checks, work counts.

Each workload is one `sdeproj` command on one generated YAML experiment file.
The file's `seed` is the benchmark's `--seed`, so the same seed gives the same
inputs and every repetition inside one benchmark run must write byte-identical
output files.  Path-step counts are computed from the inputs and from what the
run wrote (the `N_l` column), never timed, so they repeat exactly.

A workload may also name an acceptance study on fixed inputs, run once per
benchmark run and not timed.  `convergence-as` does: the fitted rate of a
single seed is too noisy to gate on (seed 0 at 8192 paths fits 0.29, because
one path's error at 128 steps dominates the mean), so criterion 4's bound is
checked on criterion 4's own seed and path count.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

# Criterion 4's Ait-Sahalia model (alpha = 4) and its projection exponents.
AIT_SAHALIA = {"a_minus1": 1.0, "a0": 1.0, "a1": 1.0, "a2": 1.0, "gamma": 1.0,
               "varrho": 2.0, "rho": 1.5, "x0": 1.0}
# The two square-root factors of criterion 7's correlated spread.
CIR_1 = {"kappa": 1.0, "theta": 0.06, "xi": 0.04, "x0": 0.05}
CIR_2 = {"kappa": 0.8, "theta": 0.05, "xi": 0.016, "x0": 0.06}
CORRELATION = -0.7
STRIKE = 0.001
MLMC_EPSILON = 5e-6  # a run of several seconds

# Correlated-spread reference and its standard error, as in
# tests/test_acceptance.py (SPREAD_RHO_NEG, SPREAD_SE).
Z95 = 1.959963984540054
SPREAD_REFERENCE = 0.003711
SPREAD_REFERENCE_SE = 0.00000267 / Z95
MIN_RATE = 0.9  # criterion 4's bound on the fitted strong rate
CRITERION_4_SEED = 42  # criterion 4's seed and path count, tests/test_acceptance.py
CRITERION_4_PATHS = 10 ** 4

BLOCK_WIDTH = 4096  # sdeproj.brownian.BLOCK_WIDTH: paths per random block
FINE_EXPONENT = 12


class CheckFailed(Exception):
    """An output file is missing, malformed or outside its correctness bound."""


@dataclass(frozen=True)
class Outcome:
    """What one command run produced, read back from its output files."""

    path_steps: int
    summary: str
    counts: dict  # computed per-layer counts, by metric name


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    factors: int
    experiment: Callable[[int, str], dict]
    check: Callable[[str], Outcome]
    # Fixed-input acceptance study: its experiment for an output directory,
    # and a check that raises CheckFailed or returns a summary.
    criterion: Callable[[str], dict] | None = None
    criterion_check: Callable[[str], str] | None = None


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {os.path.basename(path)}: {exc}") from None


def _spread_price_ok(price: float, std_error: float) -> bool:
    """Within 3 combined standard errors of the correlated-spread reference."""
    combined = math.sqrt(std_error ** 2 + SPREAD_REFERENCE_SE ** 2)
    return abs(price - SPREAD_REFERENCE) <= 3.0 * combined


def _convergence_experiment(seed: int, out: str, paths: int = 2 * BLOCK_WIDTH) -> dict:
    return {
        "model": {"family": "ait-sahalia", "params": dict(AIT_SAHALIA)},
        "scheme": {"k": 0.25, "k_prime": 0.125},
        "study": {"exponents": list(range(3, 10)),
                  "reference": "modified-scheme-fine-grid",
                  "paths": paths, "fine_exponent": FINE_EXPONENT},
        "seed": seed,
        "out": out,
    }


def _read_convergence(out: str) -> dict:
    report = _read_json(os.path.join(out, "convergence.json"))
    if not os.path.isfile(os.path.join(out, "convergence.csv")):
        raise CheckFailed("convergence.csv missing")
    return report


def _convergence_check(out: str) -> Outcome:
    """Every resolution finite, none diverged, and a rate fitted; the rate
    bound itself is checked by _criterion_4_check."""
    report = _read_convergence(out)
    for record in report["records"]:
        if record["diverged"] or not 0.0 < record["error"] < math.inf:
            raise CheckFailed(f"resolution 2^{record['exponent']}: error "
                              f"{record['error']!r}, {record['diverged']} diverged")
    rate = report["fit"]["rate"]
    if rate is None or not math.isfinite(rate):
        raise CheckFailed(f"no finite rate fitted: {rate!r}")
    meta = report["metadata"]
    # One reference pass on the fine grid plus one pass per tested resolution.
    steps_per_path = 2 ** meta["fine_exponent"] + sum(r["steps"] for r in report["records"])
    return Outcome(path_steps=meta["paths"] * steps_per_path,
                   summary=f"rate {rate!r}", counts={})


def _criterion_4_experiment(out: str) -> dict:
    return _convergence_experiment(CRITERION_4_SEED, out, CRITERION_4_PATHS)


def _criterion_4_check(out: str) -> str:
    rate = _read_convergence(out)["fit"]["rate"]
    if rate is None or rate < MIN_RATE:
        raise CheckFailed(f"criterion 4: fitted rate {rate!r} below {MIN_RATE}")
    return f"criterion 4 (seed {CRITERION_4_SEED}, {CRITERION_4_PATHS} paths): rate {rate!r}"


def _mlmc_experiment(seed: int, out: str) -> dict:
    return {
        "model": {"family": "cir", "params": dict(CIR_1)},
        "model2": {"family": "cir", "params": dict(CIR_2)},
        "mlmc": {"payoff": "spread", "epsilons": [MLMC_EPSILON], "strike": STRIKE,
                 "correlation": CORRELATION, "path_ceiling": 2 ** 34},
        "seed": seed,
        "out": out,
    }


def _mlmc_check(out: str) -> Outcome:
    stem = os.path.join(out, f"mlmc_{MLMC_EPSILON:g}")
    report = _read_json(stem + ".json")
    try:
        with open(stem + ".csv", encoding="utf-8") as handle:
            paths = [int(row["N_l"]) for row in csv.DictReader(handle)]
    except (OSError, KeyError, ValueError) as exc:
        raise CheckFailed(f"cannot read {stem}.csv: {exc}") from None
    if not _spread_price_ok(report["estimator"], report["std_error"]):
        raise CheckFailed(f"estimator {report['estimator']!r} (std error "
                          f"{report['std_error']!r}) too far from {SPREAD_REFERENCE}")
    m = report["metadata"]["refinement"]
    factors = len(report["metadata"]["models"])
    # Level l steps every path m**l times on the fine grid and, for l > 0,
    # m**(l-1) times on the coupled coarse grid, once per factor.
    steps = sum(n_l * (m ** l + (m ** (l - 1) if l else 0)) * factors
                for l, n_l in enumerate(paths))
    counts = {f"mlmc.level_paths.l{l}": n_l for l, n_l in enumerate(paths)}
    counts["mlmc.steps_taken"] = steps
    counts["mlmc.cost_coverage"] = report["cost_mlmc"] / steps
    return Outcome(path_steps=steps, summary=f"estimator {report['estimator']!r}",
                   counts=counts)


def _price_experiment(seed: int, out: str) -> dict:
    return {
        "model": {"family": "cir", "params": dict(CIR_1)},
        "model2": {"family": "cir", "params": dict(CIR_2)},
        "price": {"mode": "spread-mc", "paths": 2 * BLOCK_WIDTH,
                  "fine_exponent": FINE_EXPONENT, "strike": STRIKE,
                  "correlation": CORRELATION},
        "seed": seed,
        "out": out,
    }


def _price_check(out: str) -> Outcome:
    report = _read_json(os.path.join(out, "price.json"))
    price, half = report["price"], report["half_width"]
    if half is None or not _spread_price_ok(price, half / Z95):
        raise CheckFailed(f"price {price!r} (half width {half!r}) too far "
                          f"from {SPREAD_REFERENCE}")
    cfg = report["config"]["price"]
    return Outcome(path_steps=cfg["paths"] * 2 ** cfg["fine_exponent"] * 2,
                   summary=f"price {price!r}", counts={})


WORKLOADS = {w.name: w for w in (
    Workload(
        name="convergence-as", command="convergence", factors=1,
        why="Few blocks of long rows: the only workload where the projected step, "
            "the y**e drift and couple_levels at large ratios dominate.",
        experiment=_convergence_experiment, check=_convergence_check,
        criterion=_criterion_4_experiment, criterion_check=_criterion_4_check),
    Workload(
        name="mlmc-spread", command="mlmc", factors=2,
        why="Thousands of small blocks of 1-1024 steps and two factors: per-block "
            "overhead, pilot and allocation logic, inlined projected CIR step.",
        experiment=_mlmc_experiment, check=_mlmc_check),
    Workload(
        name="reference-spread", command="price", factors=2,
        why="Long rows, two factors and the drift-implicit stepper over independent "
            "full blocks: most memory per block, no coupling, no projection.",
        experiment=_price_experiment, check=_price_check),
)}
