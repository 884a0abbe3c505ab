"""Byte-identity corpus: tiny runs of every engine and command of sdeproj,
each reduced to one SHA-256 digest.

Run from the repository root, against the `src` tree on PYTHONPATH:

    PYTHONPATH=src python tests/corpus.py --threads 2

Each output line is a case id and the SHA-256 of the case's result: the
`repr` of an engine's report (floats print in their shortest round-trip
form, so every bit counts), the bytes of drawn arrays, or a command's exit
code, standard output and output files, with the echoed `config.threads`
removed.  A case that raises prints its exception type instead.

Two uses: run one tree at several thread counts and every digest must
agree (`tests/test_corpus.py`); run this script against two trees on one
machine and compare the lines to see whether a change moved any output bit
(`--compare`, as CI does against the merge base).  Both trees run this
one script and the `oracles.py` beside it, so a case may use only what both
trees have: a case that raises in one of them counts as a difference.
Pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from sdeproj import (BLOCK_WIDTH, BrownianFabric, ImplicitCirParams, MlmcConfig,
                     Problem, SmoothCoefficient, ait_sahalia_model, cir_model,
                     classical_plan, ginzburg_landau_model, guaranteed_rate,
                     implicit_cir_step, implicit_price, locally_smooth_model,
                     manual_plan, mlmc_estimate, plan_exponents,
                     run_convergence_study, three_halves_model)
from sdeproj import blocks, workers
from sdeproj.mlmc import gl_exact_price

from oracles import implicit_path, level_pair

SPREAD_MODELS = (cir_model(1.0, 0.06, 0.04, 0.05), cir_model(0.8, 0.05, 0.016, 0.06))
ZCB_MODEL = cir_model(2.0, 1.0, 0.5, 1.0)
CIR = cir_model(0.5, 1.0, 0.5, 1.0)
AIT = ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0)
GL = ginzburg_landau_model(0.5, 1.0, 1.0)
# omega 4: a lower clamp only, and the constant diffusion -c3/2 is negative.
THREE_HALVES = three_halves_model(1.0, 1.0, 1.0, 1.0)
# Near the boundary (2 kappa theta / xi^2 = 1.02): the implicit stepper
# meets rows with s < 0 in most steps.
EDGE = cir_model(1.0, 0.01, 0.14, 1e-4)
# Pilot and final targets end mid-block.
SPREAD = MlmcConfig(models=SPREAD_MODELS, payoff="spread", horizon=1.0,
                    epsilon=1e-4, strike=0.001, correlation=-0.7, max_level=3,
                    pilot_paths=1000)
ZCB = MlmcConfig(models=(ZCB_MODEL,), payoff="zcb", horizon=1.0, epsilon=1e-3,
                 max_level=3, pilot_paths=700)
SPREAD_PROBLEM = Problem(models=SPREAD_MODELS, payoff="spread", horizon=1.0,
                         strike=0.001, correlation=-0.7)
ZCB_PROBLEM = Problem(models=(ZCB_MODEL,), payoff="zcb", horizon=1.0)

SPREAD_YAML = """\
model: {family: cir, params: {kappa: 1.0, theta: 0.06, xi: 0.04, x0: 0.05}}
model2: {family: cir, params: {kappa: 0.8, theta: 0.05, xi: 0.016, x0: 0.06}}
"""
CLI_CASES = {
    "cli-convergence-implicit": ("convergence", """\
model: {family: cir, params: {kappa: 0.375, theta: 1.0, xi: 0.5, x0: 1.0}}
scheme: {k: 0.25}
study: {exponents: [2, 3, 4], reference: implicit-fine-grid, paths: 4200, fine_exponent: 7}
seed: 9
"""),
    "cli-convergence-ait": ("convergence", """\
model:
  family: ait-sahalia
  params: {a_minus1: 1.0, a0: 1.0, a1: 1.0, a2: 1.0, gamma: 1.0, varrho: 2.0, rho: 1.5, x0: 1.0}
scheme: {k: 0.25, k_prime: 0.125}
study: {exponents: [2, 3], reference: modified-scheme-fine-grid, paths: 2000, fine_exponent: 6}
seed: 9
"""),
    "cli-mlmc-spread": ("mlmc", SPREAD_YAML + """\
mlmc: {payoff: spread, epsilons: [2.0e-4, 1.0e-4], strike: 0.001, correlation: -0.7, max_level: 3, pilot_paths: 900}
seed: 9
"""),
    "cli-mlmc-zcb": ("mlmc", """\
model: {family: cir, params: {kappa: 2.0, theta: 1.0, xi: 0.5, x0: 1.0}}
mlmc: {payoff: zcb, epsilons: [1.0e-3], max_level: 3, pilot_paths: 600}
seed: 9
"""),
    "cli-price-spread-mc": ("price", SPREAD_YAML + """\
price: {mode: spread-mc, strike: 0.001, correlation: -0.7, paths: 4200, fine_exponent: 6}
seed: 9
"""),
    "cli-price-gl-exact": ("price", """\
model: {family: ginzburg-landau, params: {lambda: 0.5, sigma: 1.0, x0: 1.0}}
price: {mode: gl-exact, paths: 4200, fine_exponent: 5}
seed: 9
"""),
    "cli-price-zcb-closed-form": ("price", """\
model: {family: cir, params: {kappa: 2.0, theta: 1.0, xi: 0.5, x0: 1.0}}
price: {mode: zcb-closed-form}
"""),
}
# One file that serves all three commands and sets only fields that one of
# them reads: `cli-shared-file` runs each command on it.
SHARED_YAML = SPREAD_YAML + """\
scheme: {k: 0.25, scale_lo: 0.5}
study: {exponents: [2, 3], reference: implicit-fine-grid, paths: 300, fine_exponent: 5}
mlmc: {payoff: spread, epsilons: [1.0e-3], strike: 0.001, correlation: -0.7, max_level: 2, pilot_paths: 200}
price: {mode: spread-mc, strike: 0.001, correlation: -0.7, paths: 300, fine_exponent: 5}
seed: 9
"""


def _cli(command: str, text: str, threads: int) -> bytes:
    """Exit code, standard output and output files of one command run in a
    scratch directory, with `config.threads` dropped from the JSON files."""
    from click.testing import CliRunner

    from sdeproj.cli import main

    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tempfile.gettempdir()):
        with open("experiment.yaml", "w", encoding="utf-8") as handle:
            handle.write(text)
        result = runner.invoke(main, [command, "experiment.yaml", "--out", "out",
                                      "--threads", str(threads)])
        parts = [str(result.exit_code).encode(), result.stdout.encode()]
        for name in sorted(os.listdir("out")) if os.path.isdir("out") else []:
            with open(os.path.join("out", name), "rb") as handle:
                data = handle.read()
            if name.endswith(".json"):
                doc = json.loads(data)
                doc.get("config", {}).pop("threads", None)
                data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
            parts += [name.encode(), data]
    return b"\0".join(parts)


def _draws(threads: int) -> list[np.ndarray]:
    """Drawn increments: a pilot chunk, then its block resumed mid-block and
    a second block, on a team; one-column rows; rows longer than a staging
    chunk; a block's leading rows."""
    fabric = BrownianFabric(5)
    out = []
    with workers.team(threads) as team:
        for n, h in ((64, 1.0 / 64), (1, 0.5), (5000, 1e-3)):
            stream = blocks.Stream(fabric, 3, n, h, factors=2)
            for batch in ([(0, 0, 700)], [(0, 700, BLOCK_WIDTH), (1, 0, 50)]):
                out += np.split(stream.draw(batch, team), 2)
    out.append(fabric.block_normals(2, 7, 100, factor=1, rows=333))
    return out


def _implicit_steps() -> list:
    """The implicit step on edge values, as arrays and as scalars, and one
    path."""
    params = ImplicitCirParams.from_cir(0.5, 1.0, 0.5, 1.0)
    ys = [0.3, 1.0, 0.0, -0.2, 5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf]
    dws = [0.2, -0.5, -2.0, 0.0, -40.0, np.nan, np.inf, -np.inf]
    y, dw = (np.array(v) for v in zip(*[(a, b) for a in ys for b in dws]))
    with np.errstate(all="ignore"):
        return [implicit_cir_step(y, params, 0.125, dw),
                [implicit_cir_step(a, params, 0.125, b) for a, b in zip(y, dw)],
                implicit_path(params, 0.125, np.linspace(-0.4, 0.3, 40))]


# Every band edge of the square-root-drift families (cir and three-halves
# at 2, 3 and 5; locally-smooth Hs2 at 3, 4 and 6), just above it, and
# between.
OMEGAS = (1.5, 2.0, 2.0 + 1e-6, 2.5, 3.0, 3.0 + 1e-6, 3.5, 4.0, 4.0 + 1e-6,
          5.0, 5.0 + 1e-6, 5.5, 6.0, 6.0 + 1e-6, 7.0, 16.0)


def _constant(value: float, second: bool = True) -> SmoothCoefficient:
    return SmoothCoefficient(fn=lambda x: value + 0.0 * x, deriv=lambda x: 0.0 * x,
                             second=(lambda x: 0.0 * x) if second else None)


def _hs2(omega: float, second: bool = True, **options):
    """Locally-smooth Hs2 with constant coefficients at `omega`, with or
    without f''."""
    return locally_smooth_model(_constant(omega / 2.0, second),
                                _constant(1.0, second), 1.0, 0.5, 1.0,
                                regime="Hs2", **options)


def _regime(build) -> tuple | str:
    """(label, q, q', plan, guaranteed rate) of the model `build()` gives,
    each an exception type where it raises."""
    try:
        model = build().transformed
    except Exception as exc:  # a refused model is a result too
        return type(exc).__name__
    out = [model.regularity, model.q, model.q_prime]
    for read in (plan_exponents, guaranteed_rate):
        try:
            out.append(read(model))
        except Exception as exc:
            out.append(type(exc).__name__)
    return tuple(out)


def _regime_table(uniform_bounds: bool) -> list:
    """`_regime` over OMEGAS, default and explicit q and q', for cir,
    three-halves and Hs2 with and without f'', or for Hs2 with uniform
    bounds."""
    if uniform_bounds:
        builders = {f"hs2-uniform-{second}": lambda w, second=second, **kw: _hs2(
            w, second, uniform_bounds=True, **kw) for second in (True, False)}
    else:
        builders = {
            "cir": lambda w, **kw: cir_model(w / 2.0, 1.0, 1.0, 1.0, **kw),
            "three-halves": lambda w, **kw: three_halves_model(
                (w - 2.0) / 2.0, 1.0, 1.0, 1.0, **kw),
            "hs2-True": lambda w, **kw: _hs2(w, True, **kw),
            "hs2-False": lambda w, **kw: _hs2(w, False, **kw),
        }
    return [(name, w, q, q_prime, _regime(
                lambda: build(w, q=q, q_prime=q_prime)))
            for name, build in builders.items() for w in OMEGAS
            for q in (None, 4.5, 6.0, 9.0, 11.0, 13.0) for q_prime in (None, 4.0)]


def _study(triple, plan, reference, exponents=(2, 3, 4), paths=3000,
           fine_exponent=7, **options):
    return lambda threads: run_convergence_study(
        triple.transformed, triple.lamperti, plan, list(exponents), paths,
        reference, BrownianFabric(11), fine_exponent=fine_exponent,
        threads=threads, **options)


def cases() -> dict:
    """Case id -> function of the thread count giving the value to digest."""
    cir_plan = plan_exponents(CIR.transformed)
    gl_plan = plan_exponents(GL.transformed)
    table = {
        "draws": _draws,
        "implicit-steps": lambda threads: _implicit_steps(),
        "mlmc-spread": lambda threads: mlmc_estimate(SPREAD, BrownianFabric(3),
                                                     threads=threads),
        "mlmc-spread-rho-0.9": lambda threads: mlmc_estimate(
            dataclasses.replace(SPREAD, correlation=0.9, max_level=2, epsilon=3e-4),
            BrownianFabric(4), threads=threads),
        "mlmc-zcb": lambda threads: mlmc_estimate(ZCB, BrownianFabric(3),
                                                  threads=threads),
        "mlmc-zcb-ait-sahalia": lambda threads: mlmc_estimate(
            dataclasses.replace(ZCB, models=(AIT,), epsilon=1e-2, max_level=2,
                                pilot_paths=300), BrownianFabric(3), threads=threads),
        "gl-exact": lambda threads: gl_exact_price(GL, BrownianFabric(3), paths=5000,
                                                   fine_exponent=6, threads=threads),
        "gl-exact-sigma-0": lambda threads: gl_exact_price(
            ginzburg_landau_model(0.5, 0.0, 1.0), BrownianFabric(3), paths=10,
            fine_exponent=8, threads=threads),
        "study-closed-form": _study(GL, gl_plan, "closed-form"),
        "study-closed-form-y-classical": _study(GL, gl_plan, "closed-form",
                                                space="y", variant="classical"),
        "study-implicit-fine-grid": _study(CIR, cir_plan, "implicit-fine-grid"),
        "study-implicit-fine-grid-tilde": _study(CIR, cir_plan, "implicit-fine-grid",
                                                 readout="tilde"),
        "study-implicit-reference": _study(CIR, cir_plan, "implicit-fine-grid",
                                           variant="implicit-reference"),
        "study-modified-scheme-fine-grid": _study(
            AIT, manual_plan(AIT.transformed, k=0.25, k_prime=0.125),
            "modified-scheme-fine-grid", exponents=(2, 3), fine_exponent=6),
        "study-two-blocks": _study(CIR, cir_plan, "implicit-fine-grid",
                                   exponents=(2, 3), paths=BLOCK_WIDTH + 50,
                                   fine_exponent=5),
        # The projected step's other clamp shapes: no clamp at all, and an
        # upper bound only.
        "study-three-halves-y": _study(THREE_HALVES, plan_exponents(THREE_HALVES.transformed),
                                       "modified-scheme-fine-grid", exponents=(2, 3),
                                       paths=2000, fine_exponent=6, space="y"),
        "study-classical-plan": _study(CIR, classical_plan(), "implicit-fine-grid",
                                       variant="classical"),
        "study-ait-sahalia-upper-only": _study(
            AIT, manual_plan(AIT.transformed, k_prime=0.125),
            "modified-scheme-fine-grid", exponents=(2, 3), fine_exponent=6),
    }
    table["regime-table"] = lambda threads: _regime_table(False)
    table["regime-table-hs2-uniform"] = lambda threads: _regime_table(True)
    # Hs2 at omega 3.5 plans Hy1 without uniform bounds and Hy2 with them.
    for name, uniform in (("study-hs2-3.5", False), ("study-hs2-uniform-3.5", True)):
        triple = _hs2(3.5, uniform_bounds=uniform)
        table[name] = _study(triple, plan_exponents(triple.transformed),
                             "modified-scheme-fine-grid", paths=2000,
                             fine_exponent=6)
    for payoff, problem in (("spread", SPREAD_PROBLEM), ("zcb", ZCB_PROBLEM)):
        for exponent in (4, 8):
            table[f"implicit-{payoff}-{exponent}"] = (
                lambda threads, problem=problem, exponent=exponent: implicit_price(
                    problem, BrownianFabric(7), paths=BLOCK_WIDTH + 50,
                    fine_exponent=exponent, threads=threads))
    table["implicit-zcb-edge-6"] = lambda threads: implicit_price(
        Problem(models=(EDGE,), payoff="zcb", horizon=1.0), BrownianFabric(7),
        paths=BLOCK_WIDTH + 50, fine_exponent=6, threads=threads)
    for config in (SPREAD, ZCB):
        for level, path in ((0, 0), (2, 5000), (3, 4099)):
            table[f"level-sample-{config.payoff}-{level}-{path}"] = (
                lambda threads, config=config, level=level, path=path:
                level_pair(config, BrownianFabric(3), level, path))
    for name, (command, text) in CLI_CASES.items():
        table[name] = lambda threads, command=command, text=text: _cli(
            command, text, threads)
    table["cli-shared-file"] = lambda threads: b"\0".join(
        _cli(command, SHARED_YAML, threads) for command in ("convergence", "mlmc", "price"))
    return table


def _bytes(value) -> bytes:
    """What a case's digest is taken of: array bytes (with dtype and shape),
    raw bytes, or the `repr` of anything else."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype} {value.shape} ".encode() + value.tobytes()
    if isinstance(value, (list, tuple)) and any(isinstance(v, np.ndarray)
                                                for v in value):
        return b"\0".join(_bytes(v) for v in value)
    if isinstance(value, bytes):
        return value
    return repr(value).encode()


def digests(threads: int) -> dict[str, str]:
    """Case id -> SHA-256 of its result at `threads`, or "error:<type>"."""
    out = {}
    for name, case in cases().items():
        try:
            out[name] = hashlib.sha256(_bytes(case(threads))).hexdigest()
        except Exception as exc:  # a case that raises is a result too
            print(f"{name}: {exc!r}", file=sys.stderr)
            out[name] = f"error:{type(exc).__name__}"
    return out


def _read(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return dict(line.split() for line in handle if line.strip())


def compare(base: str, head: str, allowed: str) -> int:
    """Print and count the case ids whose digests differ between two corpus
    outputs, other than those listed in `allowed` (one id a line)."""
    old, new = _read(base), _read(head)
    with open(allowed, encoding="utf-8") as handle:
        listed = {line.strip() for line in handle if line.strip()}
    changed = sorted(name for name in old.keys() | new.keys()
                     if old.get(name) != new.get(name))
    for name in changed:
        print(f"{name}: {old.get(name)} -> {new.get(name)}"
              f"{' (listed)' if name in listed else ''}")
    return len(set(changed) - listed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--compare", nargs=3, metavar=("BASE", "HEAD", "ALLOWED"),
                        help="compare two corpus outputs instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    for name, digest in digests(args.threads).items():
        print(name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
