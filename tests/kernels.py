"""Kernel microbenchmark: nanoseconds per path-step of each stepping kernel.

Run from the repository root, against the `src` tree on PYTHONPATH:

    PYTHONPATH=src python tests/kernels.py

Each line times one batch stepper over a Fortran-ordered block of Brownian
increments, `rows` paths of `STEPS` steps, and prints the best of `REPEATS`
runs in ns per path-step: each family's projected step (`projection._evolve`
under the plan an engine gives it) and the drift-implicit step
(`reference._implicit_evolve`), at 1024 and 4096 rows.  Figures depend on the
host; compare two trees on one machine.  Pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from sdeproj import (ImplicitCirParams, SmoothCoefficient, ait_sahalia_model,
                     cir_model, ginzburg_landau_model, locally_smooth_model,
                     manual_plan, plan_exponents, three_halves_model)
from sdeproj.projection import _evolve
from sdeproj.reference import _implicit_evolve

STEPS = 256
REPEATS = 5
ROWS = (1024, 4096)


def _constant(value: float) -> SmoothCoefficient:
    return SmoothCoefficient(fn=lambda x: value + 0.0 * x, deriv=lambda x: 0.0 * x,
                             second=lambda x: 0.0 * x)


def steppers() -> dict:
    """Kernel name -> function of (n, h, increments), as the engines call it."""
    cir = cir_model(1.0, 0.06, 0.04, 0.05).transformed
    three_halves = three_halves_model(1.0, 1.0, 1.0, 1.0).transformed
    # Criterion 4's model and plan, and one whose exponents take `pow`.
    ait = ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0).transformed
    ait_pow = ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.5, 1.7, 0.8).transformed
    gl = ginzburg_landau_model(0.5, 1.0, 1.0).transformed
    smooth = locally_smooth_model(_constant(1.0), _constant(1.0), 1.0, 0.75,
                                  1.0).transformed
    plans = {
        "cir": (cir, manual_plan(cir, k=0.25)),
        "three-halves": (three_halves, plan_exponents(three_halves)),
        "ait-sahalia": (ait, manual_plan(ait, k=0.25, k_prime=0.125)),
        "ait-sahalia-pow": (ait_pow, manual_plan(ait_pow, k=0.2, k_prime=0.1)),
        "ginzburg-landau": (gl, plan_exponents(gl)),
        "locally-smooth": (smooth, plan_exponents(smooth)),
    }
    out = {f"projected {name}": (lambda n, h, incs, model=model, plan=plan:
                                 _evolve(model, plan, n, h, incs))
           for name, (model, plan) in plans.items()}
    params = ImplicitCirParams.from_model(cir)
    out["implicit cir"] = lambda n, h, incs: _implicit_evolve(params, n, h, incs)
    return out


def ns_per_path_step(run, rows: int, steps: int = STEPS,
                     repeats: int = REPEATS) -> float:
    """Best of `repeats` timed calls of `run(steps, h, increments)`."""
    h = 1.0 / steps
    rng = np.random.default_rng(7)
    incs = np.asfortranarray(rng.standard_normal((rows, steps)) * math.sqrt(h))
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter_ns()
        run(steps, h, incs)
        best = min(best, time.perf_counter_ns() - start)
    return best / (rows * steps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=STEPS)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    args = parser.parse_args(argv)
    print(f"numpy {np.__version__}, {args.steps} steps, best of {args.repeats}")
    for name, run in steppers().items():
        figures = "  ".join(f"{rows} rows {ns_per_path_step(run, rows, args.steps, args.repeats):6.2f}"
                            for rows in ROWS)
        print(f"{name:28s} {figures}  ns per path-step")
    return 0


if __name__ == "__main__":
    sys.exit(main())
