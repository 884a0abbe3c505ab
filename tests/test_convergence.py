import threading

import numpy as np
import pytest

from sdeproj import convergence, workers
from sdeproj.brownian import BLOCK_WIDTH, BrownianFabric
from sdeproj.convergence import VALUE_CAP, fit_rate, run_convergence_study
from sdeproj.errors import DomainError, MissingThreshold
from sdeproj.models import cir_model, ginzburg_landau_model
from sdeproj.projection import classical_plan, manual_plan, plan_exponents


def test_fit_rate_exact_halving():
    rate, intercept, r2 = fit_rate([2, 4, 8], [0.5, 0.25, 0.125])
    assert rate == pytest.approx(1.0)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert r2 == 1.0


def test_fit_rate_constant_errors():
    # Zero spread in the response: slope 0 and the fit is declared perfect.
    rate, _, r2 = fit_rate([2, 4, 8], [0.25, 0.25, 0.25])
    assert rate == pytest.approx(0.0, abs=1e-12)
    assert r2 == 1.0


def test_fit_rate_scale_invariance():
    steps = [4, 8, 16, 32]
    errors = np.array([0.31, 0.17, 0.088, 0.046])
    rate, intercept, r2 = fit_rate(steps, errors)
    rate_s, intercept_s, r2_s = fit_rate(steps, 64.0 * errors)
    assert rate_s == pytest.approx(rate, rel=1e-12)
    assert intercept_s == pytest.approx(intercept + 6.0, rel=1e-12)
    assert r2_s == pytest.approx(r2, rel=1e-12)
    assert 0.0 <= r2 <= 1.0


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([2], [0.5])
    with pytest.raises(ValueError):
        fit_rate([2, 4], [0.5, 0.0])
    with pytest.raises(ValueError):
        fit_rate([2, 4], [0.5, -0.1])
    with pytest.raises(ValueError):
        fit_rate([2, 4], [0.5, float("nan")])
    with pytest.raises(ValueError):
        fit_rate([4, 4], [0.5, 0.25])
    with pytest.raises(ValueError):
        fit_rate([2, 4, 8], [0.5, 0.25])


def _gl_study(paths):
    gl = ginzburg_landau_model(0.5, 1.0, 1.0)
    plan = plan_exponents(gl.transformed)
    return run_convergence_study(gl.transformed, gl.lamperti, plan,
                                 range(3, 8), paths, "closed-form",
                                 BrownianFabric(5), fine_exponent=10)


def test_gl_study_rate_band():
    report = _gl_study(1000)
    assert 0.55 < report.rate < 0.9
    assert report.r_squared > 0.95
    assert [r.steps for r in report.records] == [8, 16, 32, 64, 128]
    assert all(r.sample_count == 1000 for r in report.records)
    assert all(r.diverged == 0 for r in report.records)


def test_gl_study_stable_under_doubling_paths():
    rate_small = _gl_study(1000).rate
    rate_large = _gl_study(2000).rate
    assert abs(rate_large - rate_small) < 0.1


def test_classical_variant_floods_with_caps():
    hot = ginzburg_landau_model(0.0, 7.0, 1.0)
    report = run_convergence_study(hot.transformed, hot.lamperti,
                                   classical_plan(), [3, 4, 5], 128,
                                   "closed-form", BrownianFabric(5),
                                   fine_exponent=10, horizon=3.0,
                                   variant="classical")
    assert [r.diverged for r in report.records] == [128, 128, 128]
    # Capped paths differ from an order-one reference, so the recorded
    # error sits just below the cap.
    assert all(0.99 * VALUE_CAP < r.error <= VALUE_CAP for r in report.records)
    assert report.metadata["fittable_records"] == 0
    assert report.rate is None and report.r_squared is None


def test_modified_variant_tames_the_same_model():
    hot = ginzburg_landau_model(0.0, 7.0, 1.0)
    plan = manual_plan(hot.transformed, k_prime=0.25)
    report = run_convergence_study(hot.transformed, hot.lamperti, plan,
                                   [3, 4, 5], 128, "closed-form",
                                   BrownianFabric(5), fine_exponent=10,
                                   horizon=3.0)
    assert all(r.diverged == 0 for r in report.records)
    assert report.rate is not None


def test_cir_strong_error_fixture():
    # Frozen regression value for the full pipeline on one resolution.
    cir = cir_model(0.5, 1.0, 0.5, 1.0)
    plan = plan_exponents(cir.transformed)
    report = run_convergence_study(cir.transformed, cir.lamperti, plan,
                                   [6], 10 ** 4, "implicit-fine-grid",
                                   BrownianFabric(0), fine_exponent=12)
    assert report.records[0].error == 0.0011745306860314838
    assert report.rate is None
    assert report.metadata["fittable_records"] == 1


def test_implicit_reference_variant():
    cir = cir_model(0.5, 1.0, 0.5, 1.0)
    plan = plan_exponents(cir.transformed)
    report = run_convergence_study(cir.transformed, cir.lamperti, plan,
                                   [3, 4, 5, 6], 2000, "implicit-fine-grid",
                                   BrownianFabric(9), fine_exponent=10,
                                   variant="implicit-reference")
    errors = [r.error for r in report.records]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert report.rate > 0.7



@pytest.mark.parametrize("variant", ["modified", "implicit-reference"])
def test_chained_coupling_gives_the_report_of_one_coupling_per_resolution(
        variant, monkeypatch):
    cir = cir_model(0.5, 1.0, 0.5, 1.0)
    plan = plan_exponents(cir.transformed)
    calls = []
    couple_levels = convergence.couple_levels

    def counted(fine, m):
        calls.append(m)
        return couple_levels(fine, m)

    def study():
        return run_convergence_study(cir.transformed, cir.lamperti, plan,
                                     [3, 5, 9], BLOCK_WIDTH + 100,
                                     "implicit-fine-grid", BrownianFabric(17),
                                     fine_exponent=10, variant=variant)

    monkeypatch.setattr(convergence, "couple_levels", counted)
    chained = study()
    assert calls == [2, 2]   # the finest grid only, once per block
    monkeypatch.setattr(convergence, "extend_coupling",
                        lambda prev, fine, m_prev, m: counted(fine, m))
    calls.clear()
    assert study() == chained
    assert calls == [2, 32, 128] * 2


def _slab_study(threads):
    """A study of two blocks of 128-step rows: two row slabs."""
    cir = cir_model(0.5, 1.0, 0.5, 1.0)
    return run_convergence_study(cir.transformed, cir.lamperti,
                                 plan_exponents(cir.transformed), [3, 4, 6],
                                 BLOCK_WIDTH + 100, "implicit-fine-grid",
                                 BrownianFabric(23), fine_exponent=7,
                                 threads=threads)


def test_slab_grids_are_built_on_a_pool_thread_only_with_a_team(monkeypatch):
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    seen = []

    def recorded(real):
        def call(*args):
            seen.append(threading.current_thread())
            return real(*args)
        return call

    monkeypatch.setattr(convergence, "couple_levels",
                        recorded(convergence.couple_levels))
    monkeypatch.setattr(convergence, "extend_coupling",
                        recorded(convergence.extend_coupling))
    alone = _slab_study(1)
    assert seen == [threading.current_thread()] * 6  # 3 grids, 2 slabs
    seen.clear()
    assert _slab_study(2) == alone
    assert len(seen) == 6
    assert threading.current_thread() not in seen


@pytest.mark.parametrize("threads", [1, 2])
def test_an_error_in_the_coupling_chain_leaves_the_study_unchanged(
        threads, monkeypatch):
    monkeypatch.setattr(workers, "available_cores", lambda: 4)
    failure = RuntimeError("chain failed")

    def fail(prev, fine, m_prev, m):
        raise failure

    monkeypatch.setattr(convergence, "extend_coupling", fail)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        _slab_study(threads)
    assert raised.value is failure
    assert threading.active_count() == before


def test_spaces_give_distinct_errors():
    cir = cir_model(0.5, 1.0, 0.5, 1.0)
    plan = plan_exponents(cir.transformed)
    common = dict(fine_exponent=10)
    rep_x = run_convergence_study(cir.transformed, cir.lamperti, plan, [4, 6],
                                  500, "implicit-fine-grid", BrownianFabric(9),
                                  space="x", **common)
    rep_y = run_convergence_study(cir.transformed, cir.lamperti, plan, [4, 6],
                                  500, "implicit-fine-grid", BrownianFabric(9),
                                  space="y", **common)
    for rx, ry in zip(rep_x.records, rep_y.records):
        assert rx.error != ry.error
    assert rep_x.metadata["space"] == "x"
    assert rep_y.metadata["space"] == "y"


def test_study_is_deterministic():
    first = _gl_study(500)
    second = _gl_study(500)
    assert [r.error for r in first.records] == [r.error for r in second.records]
    assert first.rate == second.rate


def test_metadata_and_seed():
    cir = cir_model(0.5, 1.0, 0.5, 1.0)
    plan = plan_exponents(cir.transformed)
    args = (cir.transformed, cir.lamperti, plan, [4, 6], 500,
            "implicit-fine-grid", BrownianFabric(9))
    report = run_convergence_study(*args, fine_exponent=10)
    assert report.seed == 9
    assert report.metadata["family"] == "cir"
    assert report.metadata["variant"] == "modified"
    assert report.metadata["reference"] == "implicit-fine-grid"
    assert report.metadata["paths"] == 500
    assert report.metadata["plan"] == {"k": 0.25, "k_prime": None,
                                       "scale_lo": 1.0, "scale_hi": 1.0,
                                       "rate": 0.5, "regime": "Hy2"}


def test_study_validation():
    cir = cir_model(0.5, 1.0, 0.5, 1.0)
    gl = ginzburg_landau_model(0.5, 1.0, 1.0)
    cplan = plan_exponents(cir.transformed)
    gplan = plan_exponents(gl.transformed)
    fabric = BrownianFabric(0)

    def cir_study(**kw):
        base = dict(exponents=[3, 4], paths=8, reference="implicit-fine-grid",
                    fine_exponent=8)
        base.update(kw)
        return run_convergence_study(cir.transformed, cir.lamperti, cplan,
                                     base.pop("exponents"), base.pop("paths"),
                                     base.pop("reference"), fabric, **base)

    with pytest.raises(DomainError):
        cir_study(reference="mystery")
    with pytest.raises(DomainError):
        cir_study(variant="magic")
    with pytest.raises(DomainError):
        cir_study(space="z")
    with pytest.raises(DomainError):
        cir_study(exponents=[])
    with pytest.raises(DomainError):
        cir_study(exponents=[4, 3])
    with pytest.raises(DomainError):
        cir_study(exponents=[3, 3])
    with pytest.raises(DomainError):
        cir_study(exponents=[0, 3])
    with pytest.raises(DomainError):
        cir_study(exponents=[3, 8])
    with pytest.raises(DomainError):
        cir_study(paths=0)
    with pytest.raises(DomainError):
        cir_study(reference="closed-form")
    with pytest.raises(DomainError):
        run_convergence_study(gl.transformed, gl.lamperti, gplan, [3, 4], 8,
                              "implicit-fine-grid", fabric, fine_exponent=8)


@pytest.mark.parametrize("readout", ["tilde", "check", "double"])
def test_a_readout_the_plan_cannot_serve_is_refused_before_any_draw(readout,
                                                                    monkeypatch):
    # A manual plan has neither read-out threshold.
    cir = cir_model(0.375, 1.0, 0.5, 1.0)
    plan = manual_plan(cir.transformed, k=0.25, k_prime=0.25)

    def refuse(*args, **kwargs):
        raise AssertionError("paths were drawn")

    monkeypatch.setattr(convergence, "fold", refuse)
    with pytest.raises(MissingThreshold) as caught:
        run_convergence_study(cir.transformed, cir.lamperti, plan, [3, 4], 2000,
                              "implicit-fine-grid", BrownianFabric(0),
                              fine_exponent=7, readout=readout)
    assert caught.value.field == "readout"
