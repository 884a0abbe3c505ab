"""End-to-end acceptance checks, one verdict line per criterion.

Run with `pytest -rA tests/test_acceptance.py` to see every verdict; each
test prints "[criterion N] PASS" or "[criterion N] FAIL" and the FAIL case
also fails the test.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from sdeproj.brownian import BrownianFabric, correlate, couple_levels
from sdeproj.cli import main as cli_main
from sdeproj.convergence import fit_rate, run_convergence_study
from sdeproj.errors import DomainError, RateUnavailable
from sdeproj.mlmc import MlmcConfig, implicit_price, mlmc_estimate
from sdeproj.models import (RateTable, SmoothCoefficient, ait_sahalia_model,
                            cir_model, ginzburg_landau_model, guaranteed_rate,
                            locally_smooth_model, three_halves_model)
from sdeproj.projection import (ProjectionPlan, manual_plan, plan_exponents,
                                project)
from sdeproj.reference import (ImplicitCirParams, cir_zcb_closed_form,
                               implicit_cir_step)

Z95 = 1.959963984540054
SPREAD_RHO0 = 0.00310063
SPREAD_SE = 0.00000267 / Z95
SPREAD_RHO_NEG = 0.003711

EX51_MODELS = (cir_model(1.0, 0.06, 0.04, 0.05),
               cir_model(0.8, 0.05, 0.016, 0.06))


@contextmanager
def verdict(criterion):
    try:
        yield
    except BaseException:
        print(f"[criterion {criterion}] FAIL")
        raise
    print(f"[criterion {criterion}] PASS")


def const_coeff(value):
    return SmoothCoefficient(fn=lambda x: value + 0.0 * x,
                             deriv=lambda x: 0.0 * x,
                             second=lambda x: 0.0 * x)


def test_criterion_1_cir_strong_rate():
    with verdict(1):
        start = time.monotonic()
        for omega in (3.5, 4.0):
            triple = cir_model(0.125 * omega, 1.0, 0.5, 1.0)
            plan = manual_plan(triple.transformed, k=0.25)
            report = run_convergence_study(
                triple.transformed, triple.lamperti, plan, range(3, 10),
                10 ** 4, "implicit-fine-grid", BrownianFabric(42),
                fine_exponent=12)
            assert report.rate >= 0.45
            assert report.r_squared >= 0.95
        assert time.monotonic() - start <= 120.0


def test_criterion_2_gl_rate_band():
    with verdict(2):
        start = time.monotonic()
        triple = ginzburg_landau_model(0.5, 1.0, 1.0)
        plan = plan_exponents(triple.transformed)
        report = run_convergence_study(
            triple.transformed, triple.lamperti, plan, range(4, 11), 10 ** 4,
            "closed-form", BrownianFabric(42), fine_exponent=12)
        assert 0.40 <= report.rate <= 0.65
        assert time.monotonic() - start <= 60.0


def test_criterion_3_explosion_and_taming():
    with verdict(3):
        hot = ginzburg_landau_model(0.0, 7.0, 1.0)
        classical = ProjectionPlan(alpha=hot.transformed.alpha, beta=0.0,
                                   k=None, k_prime=None, regime="classical")
        report = run_convergence_study(
            hot.transformed, hot.lamperti, classical, range(3, 11), 10 ** 4,
            "closed-form", BrownianFabric(42), fine_exponent=12, horizon=3.0,
            variant="classical")
        assert sum(r.diverged for r in report.records) > 0
        assert report.metadata["fittable_records"] < len(report.records)

        plan = manual_plan(hot.transformed, k_prime=0.25)
        tamed = run_convergence_study(
            hot.transformed, hot.lamperti, plan, range(3, 11), 10 ** 4,
            "closed-form", BrownianFabric(42), fine_exponent=12, horizon=3.0)
        assert all(r.diverged == 0 for r in tamed.records)
        # The coarsest resolution still sits on the noise plateau and the
        # finest touches the reference grid; fit the interior window.
        window = tamed.records[1:7]
        rate, _, _ = fit_rate([r.steps for r in window],
                              [r.error for r in window])
        assert 0.25 <= rate <= 0.60


def test_criterion_4_ait_sahalia_empirical_rate():
    with verdict(4):
        triple = ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0)
        plan = manual_plan(triple.transformed, k=0.25, k_prime=0.125)
        report = run_convergence_study(
            triple.transformed, triple.lamperti, plan, range(3, 10), 10 ** 4,
            "modified-scheme-fine-grid", BrownianFabric(42), fine_exponent=12)
        assert report.rate >= 0.9


def test_criterion_5_zcb_rmse_and_savings():
    with verdict(5):
        start = time.monotonic()
        model = cir_model(2.0, 1.0, 0.5, 1.0)
        closed = cir_zcb_closed_form(2.0, 1.0, 0.5, 1.0, 1.0)
        for eps in (1e-3, 5e-4, 2e-4, 1e-4):
            config = MlmcConfig(models=(model,), payoff="zcb", horizon=1.0,
                                epsilon=eps)
            total_sq = 0.0
            for rep in range(30):
                report = mlmc_estimate(config, BrownianFabric(100 + rep))
                total_sq += (report.estimator - closed) ** 2
            assert math.sqrt(total_sq / 30) <= eps
        config = MlmcConfig(models=(model,), payoff="zcb", horizon=1.0,
                            epsilon=5e-5)
        assert mlmc_estimate(config, BrownianFabric(11)).savings >= 10.0
        assert time.monotonic() - start <= 600.0


def test_criterion_6_spread_price_match():
    with verdict(6):
        config = MlmcConfig(models=EX51_MODELS, payoff="spread", horizon=1.0,
                            epsilon=1e-5, strike=0.001, correlation=0.0,
                            path_ceiling=2 ** 34)
        report = mlmc_estimate(config, BrownianFabric(21))
        tolerance = 3.0 * math.sqrt(report.std_error ** 2 + SPREAD_SE ** 2)
        assert abs(report.estimator - SPREAD_RHO0) <= tolerance
        coarse = MlmcConfig(models=EX51_MODELS, payoff="spread", horizon=1.0,
                            epsilon=5e-5, strike=0.001, correlation=0.0,
                            path_ceiling=2 ** 34)
        assert mlmc_estimate(coarse, BrownianFabric(21)).savings >= 8.0


def test_criterion_7_correlated_spread_reference():
    with verdict(7):
        base = dict(models=EX51_MODELS, payoff="spread", horizon=1.0,
                    strike=0.001, correlation=-0.7, path_ceiling=2 ** 34)
        ref_config = MlmcConfig(epsilon=1.0, **base)
        reference, se_ref = implicit_price(ref_config, BrownianFabric(77),
                                           paths=10 ** 6, fine_exponent=12)
        assert abs(reference - SPREAD_RHO_NEG) \
            <= 3.0 * math.sqrt(se_ref ** 2 + SPREAD_SE ** 2)

        report = mlmc_estimate(MlmcConfig(epsilon=1e-5, **base),
                               BrownianFabric(21))
        combined = 3.0 * math.sqrt(report.std_error ** 2 + se_ref ** 2)
        assert abs(report.estimator - reference) <= combined
        coarse = mlmc_estimate(MlmcConfig(epsilon=5e-5, **base),
                               BrownianFabric(21))
        assert coarse.savings >= 8.0


def _projection_corpus():
    return (plan_exponents(cir_model(0.5, 1.0, 0.5, 1.0).transformed),
            manual_plan(ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5,
                                          1.0).transformed,
                        k=0.125, k_prime=0.125),
            manual_plan(cir_model(0.5, 1.0, 0.5, 1.0).transformed, k=0.25,
                        scale_lo=0.01, scale_hi=3.0, k_prime=0.5),
            plan_exponents(ginzburg_landau_model(0.5, 1.0, 1.0).transformed),
            ProjectionPlan(alpha=0.0, beta=0.0, k=None, k_prime=None))


def _check_projection_properties(plan, rng, cases):
    for n in rng.integers(1, 2 ** 24, size=10):
        xs = np.sort(rng.uniform(-1e6, 1e6, size=cases))
        out = project(xs, n, plan)
        assert np.array_equal(project(out, int(n), plan), out)  # idempotent
        assert np.all(np.diff(out) >= 0.0)  # monotone
        assert np.all(np.diff(out) <= np.diff(xs))  # 1-Lipschitz
        if plan.symmetric:
            hi = plan.scale_hi * float(n) ** plan.k_prime
            lo = -hi
        else:
            lo = plan.scale_lo * float(n) ** -plan.k \
                if plan.k is not None else -np.inf
            hi = plan.scale_hi * float(n) ** plan.k_prime \
                if plan.k_prime is not None else np.inf
        inside = (xs >= lo) & (xs <= hi)
        assert np.array_equal(out[inside], xs[inside])  # identity on the box
        assert np.all(out[np.isfinite(out)] >= min(lo, np.min(xs)))


def _check_family_moduli():
    rng = np.random.default_rng(2024)
    transformed = [cir_model(0.5, 1.0, 0.5, 1.0).transformed,
                   three_halves_model(1.0, 1.0, 1.0, 1.0).transformed,
                   ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5,
                                     1.0).transformed,
                   locally_smooth_model(const_coeff(1.0), const_coeff(1.0),
                                        1.0, 0.75, 1.0).transformed]
    for t in transformed:
        u = rng.uniform(math.log(1e-3), math.log(1e3), size=(2, 2000))
        x, y = np.exp(u[0]), np.exp(u[1])
        fx, fy = t.f(x), t.f(y)
        d = x - y
        slack = 1e-9 * (1.0 + np.abs(fx) + np.abs(fy)) * np.abs(d) + 1e-15
        assert np.all(d * (fx - fy) <= t.one_sided_k * d * d + slack)
        envelope = (1.0 + x ** t.alpha + y ** t.alpha
                    + x ** -t.beta + y ** -t.beta)
        assert np.all(np.abs(fx - fy)
                      <= t.local_lipschitz_k * envelope * np.abs(d) + slack)
    gl = ginzburg_landau_model(0.5, 1.0, 1.0).transformed
    x = rng.uniform(-50.0, 50.0, 2000)
    y = rng.uniform(-50.0, 50.0, 2000)
    fx, fy = gl.f(x), gl.f(y)
    d = x - y
    slack = 1e-9 * (1.0 + np.abs(fx) + np.abs(fy)) * np.abs(d) + 1e-15
    assert np.all(d * (fx - fy) <= gl.one_sided_k * d * d + slack)
    envelope = 3.0 + x ** 2 + y ** 2
    assert np.all(np.abs(fx - fy)
                  <= gl.local_lipschitz_k * envelope * np.abs(d) + slack)


def _check_implicit_residual():
    params = ImplicitCirParams.from_cir(0.5, 1.0, 0.5, 1.0)
    rng = np.random.default_rng(11)
    y = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=10 ** 4))
    dw = rng.normal(0.0, math.sqrt(1.0 / 64.0), size=y.shape)
    s = implicit_cir_step(y, params, 1.0 / 64.0, dw)
    assert np.all(s > 0.0)
    residual = s - y - (params.a / s + params.b * s) / 64.0 - params.c * dw
    assert np.max(np.abs(residual) / (1.0 + np.abs(s))) <= 1e-10


def _check_roundtrips():
    xs = np.logspace(-3, 3, 201)
    triples = [cir_model(0.5, 1.0, 0.5, 1.0),
               three_halves_model(1.0, 1.0, 1.0, 1.0),
               ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0),
               ginzburg_landau_model(0.5, 1.0, 1.0),
               locally_smooth_model(const_coeff(1.0), const_coeff(1.0),
                                    1.0, 0.75, 1.0)]
    for triple in triples:
        lam = triple.lamperti
        np.testing.assert_allclose(lam.inverse(lam.forward(xs)), xs,
                                   rtol=1e-12)


def _check_coupling_identities():
    fabric = BrownianFabric(3)
    # Path 0's row of each factor's level-0 block, as increments of step 2^-6.
    w, w_perp = (fabric.block_normals(0, 0, 64, factor=f, rows=1)[0]
                 * math.sqrt(0.015625) for f in (0, 1))
    assert np.array_equal(couple_levels(w, 1), w)
    assert np.array_equal(couple_levels(w, 4), w.reshape(16, 4).sum(axis=1))
    assert np.array_equal(correlate(w, w_perp, 1.0), w)
    assert np.array_equal(correlate(w, w_perp, 0.0), w_perp)
    assert np.array_equal(correlate(w, w_perp, -1.0), -w)


def _check_hp_enforcement():
    with pytest.raises(DomainError):
        ProjectionPlan(alpha=0.0, beta=2.0, k=0.51, k_prime=None)
    with pytest.raises(DomainError):
        ProjectionPlan(alpha=4.0, beta=0.0, k=None, k_prime=0.126)
    for plan in _projection_corpus():
        if plan.k is not None:
            assert 2.0 * plan.beta * plan.k <= 1.0 + 1e-9
        if plan.k_prime is not None:
            assert 2.0 * plan.alpha * plan.k_prime <= 1.0 + 1e-9


def _check_cli_determinism(tmp_path):
    runner = CliRunner()
    configs = {
        "conv.yaml": {
            "model": {"family": "cir",
                      "params": {"kappa": 0.5, "theta": 1.0, "xi": 0.5,
                                 "x0": 1.0}},
            "study": {"exponents": [3, 4], "reference": "implicit-fine-grid",
                      "paths": 200, "fine_exponent": 8},
            "seed": 3},
        "mlmc.yaml": {
            "model": {"family": "cir",
                      "params": {"kappa": 2.0, "theta": 1.0, "xi": 0.5,
                                 "x0": 1.0}},
            "mlmc": {"payoff": "zcb", "epsilons": [1e-2], "max_level": 2,
                     "pilot_paths": 100},
            "seed": 7},
        "price.yaml": {
            "model": {"family": "cir",
                      "params": {"kappa": 1.0, "theta": 0.06, "xi": 0.04,
                                 "x0": 0.05}},
            "model2": {"family": "cir",
                       "params": {"kappa": 0.8, "theta": 0.05, "xi": 0.016,
                                  "x0": 0.06}},
            "price": {"mode": "spread-mc", "strike": 0.001, "paths": 64,
                      "fine_exponent": 5},
            "seed": 9},
    }
    for name, mapping in configs.items():
        command = name.split(".")[0].replace("conv", "convergence")
        out = tmp_path / f"{command}_out"
        mapping["out"] = str(out)
        cfg = tmp_path / name
        cfg.write_text(yaml.safe_dump(mapping), encoding="utf-8")
        assert runner.invoke(cli_main, [command, str(cfg)]).exit_code == 0
        snapshots = {p.name: p.read_bytes() for p in out.iterdir()}
        assert snapshots
        for p in out.iterdir():
            p.unlink()
        assert runner.invoke(cli_main, [command, str(cfg)]).exit_code == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == snapshots


def test_criterion_8_property_and_determinism_suite(tmp_path):
    with verdict(8):
        start = time.monotonic()
        rng = np.random.default_rng(0)
        for plan in _projection_corpus():
            _check_projection_properties(plan, rng, cases=200)
        _check_family_moduli()
        _check_hp_enforcement()
        _check_implicit_residual()
        _check_roundtrips()
        _check_coupling_identities()
        _check_cli_determinism(tmp_path)
        assert time.monotonic() - start <= 60.0


def test_criterion_9_rate_table_breakpoints():
    with verdict(9):
        builders = {
            "cir": lambda w: cir_model(w / 2.0, 1.0, 1.0, 1.0),
            "three-halves": lambda w: three_halves_model((w - 2.0) / 2.0, 1.0,
                                                         1.0, 1.0),
        }
        with pytest.raises(RateUnavailable):
            guaranteed_rate(builders["cir"](2.0).transformed)
        with pytest.raises(DomainError):
            builders["three-halves"](2.0)  # omega = 2 needs c1 = 0
        for family, build in builders.items():
            for w in (2.0 + 1e-6, 3.0):
                table = guaranteed_rate(build(w).transformed)
                interval = (1.0 / 6.0, 0.5 - 1.0 / (w + 1.0))
                assert table.y_rate is None
                assert table.y_interval == interval
                if family == "cir":
                    assert table.x_interval == interval
                else:
                    assert table.x_rate is None and table.x_interval is None
            for w in (3.0 + 1e-6, 5.0):
                table = guaranteed_rate(build(w).transformed)
                assert table.y_rate == 0.5
                assert table.x_rate == (0.5 if family == "cir" else 0.25)
            table = guaranteed_rate(build(5.0 + 1e-6).transformed)
            assert (table.y_rate, table.x_rate) == (1.0, 1.0)

        with pytest.raises(RateUnavailable):
            guaranteed_rate(ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0,
                                              1.5, 1.0).transformed)
        table = guaranteed_rate(ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0,
                                                  3.0, 1.5, 1.0).transformed)
        assert table == RateTable(1.0, None, 1.0, None, source=table.source)

        def hs2(w, **kw):
            return locally_smooth_model(const_coeff(w / 2.0), const_coeff(1.0),
                                        1.0, 0.5, 1.0, regime="Hs2",
                                        **kw).transformed

        with pytest.raises(RateUnavailable):
            guaranteed_rate(hs2(3.0))
        for w in (3.0 + 1e-6, 4.0):
            table = guaranteed_rate(hs2(w))
            interval = (1.0 / 6.0, 0.5 - 1.0 / w)
            assert table.y_interval == interval
            assert table.x_interval == interval
        for w in (4.0 + 1e-6, 6.0):
            assert guaranteed_rate(hs2(w)).y_rate == 0.5
        assert guaranteed_rate(hs2(6.0 + 1e-6)).y_rate == 1.0

        with pytest.raises(RateUnavailable):
            guaranteed_rate(hs2(3.0, uniform_bounds=True))
        for w in (3.0 + 1e-6, 5.0):
            table = guaranteed_rate(hs2(w, uniform_bounds=True))
            assert (table.y_rate, table.x_rate) == (0.5, 0.5)
        table = guaranteed_rate(hs2(5.0 + 1e-6, uniform_bounds=True))
        assert (table.y_rate, table.x_rate) == (1.0, 1.0)

        smooth = locally_smooth_model(const_coeff(1.0), const_coeff(1.0),
                                      1.0, 0.75, 1.0)
        table = guaranteed_rate(smooth.transformed)
        assert table == RateTable(1.0, None, None, None, source=table.source)
