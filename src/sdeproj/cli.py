"""Config-driven command line.

Three commands, each reading one YAML experiment file: `convergence` fits a
strong rate and writes convergence.csv/.json, `mlmc` prices a payoff at each
target accuracy and writes mlmc_<eps>.csv/.json, `price` prints a single
value (closed form, exact-solution Monte Carlo, or the implicit-scheme
benchmark).  Exit codes: 2 config parse, 3 model or plan construction,
4 path budget exceeded.  All randomness flows from the config seed, so a
rerun with the same file and seed reproduces every output file bytewise.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os

import click
import numpy as np

from . import SPEC_VERSION
from .brownian import BLOCK_WIDTH, BrownianFabric
from .config import ExperimentConfig, load_config
from .convergence import run_convergence_study
from .errors import BudgetExceeded, ConfigError, SdeProjError
from .mlmc import MlmcConfig, implicit_price, mlmc_estimate
from .reference import cir_zcb_closed_form, ginzburg_landau_exact

_Z95 = 1.959963984540054


def _fmt(value) -> str:
    """One CSV cell; floats use repr (shortest round-trip form)."""
    return repr(value) if isinstance(value, float) else str(value)


def _write_rows(path: str, header: tuple[str, ...], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _load(config_path: str, out: str | None, seed: int | None,
          threads: int | None) -> ExperimentConfig:
    cfg = load_config(config_path)
    updates = {}
    if out is not None:
        updates["out"] = out
    if seed is not None:
        updates["seed"] = seed
    if threads is not None:
        updates["threads"] = threads
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _run(body) -> None:
    try:
        code = body()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        code = 2
    except BudgetExceeded as exc:
        click.echo(f"budget error: {exc}", err=True)
        code = 4
    except SdeProjError as exc:
        click.echo(f"error: {exc}", err=True)
        code = 3
    raise SystemExit(code)


def _options(fn):
    fn = click.option("--threads", type=click.IntRange(0), default=None,
                      help="Worker cap, 0 = all cores; never affects results.")(fn)
    fn = click.option("--seed", type=click.IntRange(0, 2 ** 64 - 1), default=None,
                      help="Master seed, overrides the config value.")(fn)
    fn = click.option("--out", type=click.Path(file_okay=False), default=None,
                      help="Output directory, overrides the config value.")(fn)
    fn = click.argument("config", type=click.Path(dir_okay=False))(fn)
    return fn


@click.group()
def main():
    """Strong-rate studies and multilevel pricing for projected Euler schemes."""


@main.command()
@_options
def convergence(config, out, seed, threads):
    """Fit a strong convergence rate and write convergence.csv/.json."""

    def body():
        cfg = _load(config, out, seed, threads)
        if cfg.study is None:
            raise ConfigError("convergence command needs a study block", "study")
        triple = cfg.model.build()
        plan = cfg.scheme.build_plan(triple)
        fabric = BrownianFabric(cfg.seed)
        report = run_convergence_study(
            triple.transformed, triple.lamperti, plan, cfg.study.exponents,
            cfg.study.paths, cfg.study.reference, fabric,
            horizon=cfg.study.horizon, fine_exponent=cfg.study.fine_exponent,
            space=cfg.study.space, readout=cfg.scheme.clamp,
            variant=cfg.scheme.variant, seed=cfg.seed)

        os.makedirs(cfg.out, exist_ok=True)
        _write_rows(os.path.join(cfg.out, "convergence.csv"),
                    ("N", "steps", "error", "M"),
                    [(r.exponent, r.steps, r.error, r.sample_count)
                     for r in report.records])
        _write_json(os.path.join(cfg.out, "convergence.json"), {
            "spec_version": SPEC_VERSION,
            "fit": {"rate": report.rate, "intercept": report.intercept,
                    "r_squared": report.r_squared},
            "records": [dataclasses.asdict(r) for r in report.records],
            "plan": report.metadata["plan"],
            "seed": report.seed,
            "model": cfg.model.to_mapping(),
            "metadata": report.metadata,
            "config": cfg.to_mapping(),
        })
        if report.rate is None:
            click.echo("rate unavailable")
        else:
            click.echo(f"rate {report.rate!r}")
            click.echo(f"r_squared {report.r_squared!r}")
        return 0 if report.metadata["fittable_records"] > 0 else 1

    _run(body)


@main.command()
@_options
def mlmc(config, out, seed, threads):
    """Run the multilevel estimator per target accuracy; write mlmc_<eps> files."""

    def body():
        cfg = _load(config, out, seed, threads)
        if cfg.mlmc is None:
            raise ConfigError("mlmc command needs an mlmc block", "mlmc")
        sec = cfg.mlmc
        triples = [cfg.model.build()]
        if sec.payoff == "spread":
            triples.append(cfg.model2.build())
        k = cfg.scheme.k if cfg.scheme.k is not None else 0.25
        scale_lo = cfg.scheme.scale_lo if cfg.scheme.scale_lo is not None else 0.01
        fabric = BrownianFabric(cfg.seed)
        os.makedirs(cfg.out, exist_ok=True)
        click.echo("epsilon estimator std_error rmse savings")
        for eps in sec.epsilons:
            run_config = MlmcConfig(
                models=tuple(triples), payoff=sec.payoff, horizon=sec.horizon,
                epsilon=eps, refinement=sec.refinement, max_level=sec.max_level,
                pilot_paths=sec.pilot_paths, path_ceiling=sec.path_ceiling,
                strike=sec.strike, correlation=sec.correlation, k=k,
                scale_lo=scale_lo)
            report = mlmc_estimate(run_config, fabric)
            tag = format(eps, "g")
            _write_rows(os.path.join(cfg.out, f"mlmc_{tag}.csv"),
                        ("l", "h_l", "N_l", "mean_diff", "V_l", "cost"),
                        [(lv.level, lv.h, lv.paths, lv.mean_diff, lv.var_diff,
                          lv.cost) for lv in report.levels])
            _write_json(os.path.join(cfg.out, f"mlmc_{tag}.json"), {
                "spec_version": SPEC_VERSION,
                "epsilon": report.epsilon,
                "estimator": report.estimator,
                "std_error": report.std_error,
                "bias_proxy": report.bias_proxy,
                "rmse_estimate": report.rmse_estimate,
                "cost_mlmc": report.cost_mlmc,
                "cost_std": report.cost_std,
                "savings": report.savings,
                "seed": report.seed,
                "levels": [dataclasses.asdict(lv) for lv in report.levels],
                "metadata": report.metadata,
                "config": cfg.to_mapping(),
            })
            click.echo(f"{tag} {report.estimator!r} {report.std_error!r} "
                       f"{report.rmse_estimate!r} {report.savings!r}")
        return 0

    _run(body)


def _gl_exact_price(cfg: ExperimentConfig) -> tuple[float, float]:
    triple = cfg.model.build()
    meta = triple.transformed.meta
    lam, sigma, x0 = meta["lam"], meta["sigma"], meta["x0"]
    pr = cfg.price
    n = 1 << pr.fine_exponent
    h = pr.horizon / n
    times = np.linspace(0.0, pr.horizon, n + 1)
    if sigma == 0.0:
        value = ginzburg_landau_exact(lam, 0.0, x0, times,
                                      np.zeros((1, n + 1)))[0, -1]
        return float(value), 0.0
    fabric = BrownianFabric(cfg.seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < pr.paths:
        block, row_lo = divmod(done, BLOCK_WIDTH)
        row_hi = min(BLOCK_WIDTH, row_lo + (pr.paths - done))
        # w stays row-major: np.dot below then reads a strided terminal
        # column, and BLAS sums strided and contiguous vectors in different
        # orders, so a column-major w would move half_width's last bits.
        w = np.zeros((row_hi - row_lo, n + 1))
        np.cumsum(fabric.block_increments(pr.fine_exponent, block, n, h,
                                          rows=row_hi)[row_lo:],
                  axis=1, out=w[:, 1:])
        values = ginzburg_landau_exact(lam, sigma, x0, times, w)[:, -1]
        # Release this block before the next one is drawn.
        del w
        total += float(np.sum(values))
        total_sq += float(np.dot(values, values))
        done += row_hi - row_lo
    mean = total / pr.paths
    var = max(total_sq / pr.paths - mean * mean, 0.0)
    return mean, _Z95 * math.sqrt(var / pr.paths)


@main.command()
@_options
def price(config, out, seed, threads):
    """Print one price (and a 95% half-width for Monte Carlo modes)."""

    def body():
        cfg = _load(config, out, seed, threads)
        if cfg.price is None:
            raise ConfigError("price command needs a price block", "price")
        pr = cfg.price
        if pr.mode == "zcb-closed-form":
            p = dict(cfg.model.params)
            value = cir_zcb_closed_form(p["kappa"], p["theta"], p["xi"],
                                        p["x0"], pr.horizon)
            half = None
        elif pr.mode == "gl-exact":
            value, half = _gl_exact_price(cfg)
        else:
            run_config = MlmcConfig(
                models=(cfg.model.build(), cfg.model2.build()), payoff="spread",
                horizon=pr.horizon, epsilon=1.0, strike=pr.strike,
                correlation=pr.correlation)
            value, se = implicit_price(run_config, BrownianFabric(cfg.seed),
                                       paths=pr.paths,
                                       fine_exponent=pr.fine_exponent)
            half = _Z95 * se
        os.makedirs(cfg.out, exist_ok=True)
        _write_json(os.path.join(cfg.out, "price.json"), {
            "spec_version": SPEC_VERSION,
            "mode": pr.mode,
            "price": value,
            "half_width": half,
            "seed": cfg.seed,
            "config": cfg.to_mapping(),
        })
        click.echo(f"price {value!r}")
        if half is not None:
            click.echo(f"half_width {half!r}")
        return 0

    _run(body)


if __name__ == "__main__":
    main()
