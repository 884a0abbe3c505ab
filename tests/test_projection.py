from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdeproj import config, projection
from sdeproj.brownian import BrownianFabric
from sdeproj.errors import (DomainError, MissingThreshold, PlanInfeasible,
                            RateUnavailable)
from sdeproj.models import (LampertiMap, SmoothCoefficient, TransformedModel,
                            ait_sahalia_model, cir_model,
                            ginzburg_landau_model, guaranteed_rate,
                            locally_smooth_model, three_halves_model)
from sdeproj.projection import (ProjectionPlan, _advance, _evolve,
                                clamp_variant, classical_plan, diffusion_bar,
                                evolve_terminal, manual_plan, plan_exponents,
                                project)

from oracles import lipschitz_bound, path_increments, projected_path


def synthetic_model(**overrides):
    base = dict(name="synthetic", f=lambda y: -y, gamma=None, gamma_const=1.0,
                f_prime=None, f_double_prime=None, one_sided_k=0.0,
                local_lipschitz_k=1.0, alpha=0.0, beta=0.0, q=4.0,
                q_prime=4.0, regularity="Hy2", y0=1.0)
    base.update(overrides)
    return TransformedModel(**base)


def test_project_box_example():
    plan = ProjectionPlan(alpha=2.0, beta=2.0, k=0.25, k_prime=0.25)
    assert project(5.0, 16, plan) == 2.0
    assert project(0.1, 16, plan) == 0.5
    assert project(1.3, 16, plan) == 1.3
    assert project(-4.0, 16, plan) == 0.5


def test_project_classical_is_identity():
    plan = classical_plan()
    for y in (-3.0, -0.0, 0.0, 7.5, 1e12):
        assert project(y, 64, plan) == y
    assert plan.regime == "classical"
    assert plan.k is None and plan.k_prime is None


def test_project_symmetric_box():
    plan = ProjectionPlan(alpha=2.0, beta=0.0, k=None, k_prime=0.25,
                          symmetric=True)
    assert project(5.0, 16, plan) == 2.0
    assert project(-5.0, 16, plan) == -2.0
    assert project(1.5, 16, plan) == 1.5
    assert project(-1.5, 16, plan) == -1.5


_PLANS = (
    ProjectionPlan(alpha=2.0, beta=2.0, k=0.25, k_prime=0.25),
    ProjectionPlan(alpha=0.0, beta=2.0, k=0.25, k_prime=None),
    ProjectionPlan(alpha=2.0, beta=0.0, k=None, k_prime=0.25),
    ProjectionPlan(alpha=2.0, beta=0.0, k=None, k_prime=0.25, symmetric=True),
    classical_plan(),
)


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
       st.integers(1, 2 ** 24), st.sampled_from(_PLANS))
def test_project_is_monotone_lipschitz_idempotent(y1, y2, n, plan):
    p1, p2 = project(y1, n, plan), project(y2, n, plan)
    assert project(p1, n, plan) == p1
    if y1 <= y2:
        assert p1 <= p2
    assert abs(p1 - p2) <= abs(y1 - y2)
    if plan.symmetric:
        lo = -plan.scale_hi * float(n) ** plan.k_prime
        hi = plan.scale_hi * float(n) ** plan.k_prime
    else:
        lo = (plan.scale_lo * float(n) ** -plan.k
              if plan.k is not None else -math.inf)
        hi = (plan.scale_hi * float(n) ** plan.k_prime
              if plan.k_prime is not None else math.inf)
    if lo <= y1 <= hi:
        assert p1 == y1
    assert lo <= p1 <= hi or (math.isinf(lo) and math.isinf(hi))


def test_plan_validation():
    with pytest.raises(DomainError):
        ProjectionPlan(alpha=0.0, beta=2.0, k=0.3, k_prime=None)
    with pytest.raises(DomainError):
        ProjectionPlan(alpha=2.0, beta=0.0, k=None, k_prime=0.3)
    ProjectionPlan(alpha=2.0, beta=2.0, k=0.25, k_prime=0.25)
    with pytest.raises(DomainError):
        ProjectionPlan(alpha=0.0, beta=0.0, k=0.0, k_prime=None)
    with pytest.raises(DomainError):
        ProjectionPlan(alpha=0.0, beta=0.0, k=None, k_prime=-0.1)
    with pytest.raises(DomainError):
        ProjectionPlan(alpha=0.0, beta=0.0, k=0.1, k_prime=None, scale_lo=0.0)
    with pytest.raises(DomainError):
        ProjectionPlan(alpha=0.0, beta=0.0, k=None, k_prime=None, rate=0.0)
    with pytest.raises(DomainError):
        ProjectionPlan(alpha=0.0, beta=0.0, k=None, k_prime=None,
                       eta_exponent=0.0)
    with pytest.raises(DomainError):
        ProjectionPlan(alpha=0.0, beta=0.0, k=None, k_prime=None,
                       zeta_exponent=0.1)
    with pytest.raises(DomainError):
        ProjectionPlan(alpha=2.0, beta=0.0, k=None, k_prime=None,
                       symmetric=True)
    with pytest.raises(DomainError):
        ProjectionPlan(alpha=2.0, beta=2.0, k=0.25, k_prime=0.25,
                       symmetric=True)
    with pytest.raises(DomainError):
        ProjectionPlan(alpha=-1.0, beta=0.0, k=None, k_prime=None)


def test_plan_exponents_hy2_square_root():
    t = cir_model(0.5, 1.0, 0.5, 1.0, q=6.0).transformed
    plan = plan_exponents(t)
    assert plan.regime == "Hy2"
    assert plan.k == 0.25
    assert plan.k_prime is None
    assert plan.rate == 0.5
    assert plan.eta_exponent == 2.0 * 0.5 / 6.0
    assert plan.zeta_exponent is None
    assert plan.symmetric is False
    h = 2.0 ** -8
    eta = clamp_variant(0.0, "tilde", plan, h)
    assert eta == h ** plan.eta_exponent
    assert eta == pytest.approx(2.0 ** (-8.0 / 6.0), rel=1e-15)


def test_plan_exponents_hy1_rate():
    eps = 1e-6
    t = cir_model(0.375, 1.0, 0.5, 1.0, q=4.0 + eps).transformed
    plan = plan_exponents(t)
    assert plan.regime == "Hy1"
    assert plan.k == 1.0 / (4.0 + eps + 2.0)
    assert plan.rate == 0.5 - 2.0 / (4.0 + eps + 2.0)
    assert 1.0 / 6.0 < plan.rate < 1.0 / 6.0 + 1e-6
    t = cir_model(0.375, 1.0, 0.5, 1.0).transformed
    plan = plan_exponents(t)
    assert plan.k == 1.0 / 7.0
    assert plan.rate == 0.5 - 2.0 / 7.0


def test_plan_exponents_unit_rate_regime():
    t = ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.5, 1.0).transformed
    plan = plan_exponents(t)
    assert plan.regime == "Hy2-const-diffusion"
    assert plan.rate == 1.0
    assert plan.k == 1.0 / 8.0
    assert plan.k_prime == 1.0 / 8.0
    assert plan.eta_exponent == 2.0 / 23.0
    assert plan.zeta_exponent == -2.0 / 25.0


def test_plan_exponents_drops_absent_sides():
    t = synthetic_model()
    plan = plan_exponents(t)
    assert plan.k is None and plan.k_prime is None
    assert plan.rate == 0.5
    assert plan.eta_exponent is None and plan.zeta_exponent is None
    assert project(-7.0, 32, plan) == -7.0


def test_plan_exponents_full_line_is_symmetric():
    plan = plan_exponents(ginzburg_landau_model(0.5, 1.0, 1.0).transformed)
    assert plan.symmetric is True
    assert plan.k is None
    assert plan.k_prime == 0.25
    assert plan.rate == 0.5
    assert plan.eta_exponent is None
    assert plan.zeta_exponent == -2.0 * 0.5 / 13.0


def test_plan_exponents_errors():
    no_regime = ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5,
                                  1.0).transformed
    with pytest.raises(PlanInfeasible):
        plan_exponents(no_regime)
    # Below the unit-rate thresholds, as Hs1 with a small explicit q can be.
    cube = synthetic_model(beta=2.0, q=9.0, q_prime=30.0,
                           f_prime=lambda y: 0.0 * y,
                           f_double_prime=lambda y: 0.0 * y,
                           regularity="Hy2-const-diffusion")
    with pytest.raises(PlanInfeasible):
        plan_exponents(cube)
    # A label whose q would give a nonpositive rate cannot be built, so the
    # plan is only ever asked for positive rates.
    with pytest.raises(DomainError):
        synthetic_model(beta=2.0, q=2.0, q_prime=30.0, regularity="Hy1")


def _constant(value, second=True):
    return SmoothCoefficient(fn=lambda x: value + 0.0 * x,
                             deriv=lambda x: 0.0 * x,
                             second=(lambda x: 0.0 * x) if second else None)


# Each family's omega bands (shifted by one for Hs2), each built at omega w.
_BAND_FAMILIES = {
    "cir": ((2.0, 3.0, 5.0), lambda w: cir_model(w / 2.0, 1.0, 1.0, 1.0)),
    "three-halves": ((2.0, 3.0, 5.0), lambda w: three_halves_model(
        (w - 2.0) / 2.0, 1.0, 1.0, 1.0)),
    "Hs2": ((3.0, 4.0, 6.0), lambda w: locally_smooth_model(
        _constant(w / 2.0), _constant(1.0), 1.0, 0.5, 1.0, regime="Hs2")),
    "Hs2-uniform": ((3.0, 5.0), lambda w: locally_smooth_model(
        _constant(w / 2.0), _constant(1.0), 1.0, 0.5, 1.0, regime="Hs2",
        uniform_bounds=True)),
}


def _plan_meets_stated_rate(model):
    rate, table = plan_exponents(model).rate, guaranteed_rate(model)
    if table.y_rate is not None:
        return rate == table.y_rate
    lo, hi = table.y_interval
    return lo < rate < hi


@pytest.mark.parametrize("family", sorted(_BAND_FAMILIES))
def test_plan_rate_meets_the_stated_rate_in_every_band(family):
    edges, build = _BAND_FAMILIES[family]
    # Just above each band's lower edge and at its upper edge (the top
    # band's at its lower edge + 11), and the omegas 3.5 and 5.5.
    points = [w for low, high in zip(edges, edges[1:] + (edges[-1] + 11.0,))
              for w in (low + 1e-6, high)] + [3.5, 5.5]
    for w in points:
        model = build(w).transformed
        assert model.meta["omega"] == w
        assert _plan_meets_stated_rate(model), (family, w)
    if family == "three-halves":
        return  # omega = 2 + 2*c1/c3^2 lies above the first edge for c1 > 0
    # Below the first band the model claims no regime and no rate.
    model = build(edges[0]).transformed
    assert model.regularity is None
    with pytest.raises(PlanInfeasible):
        plan_exponents(model)
    with pytest.raises(RateUnavailable):
        guaranteed_rate(model)


def test_plans_that_fall_short_of_the_stated_rate_are_named():
    # Without f'' the unit-rate row is demoted to Hy2, which plans 0.5
    # against the stated 1.0: Hs1, and Hs2 in its top band.
    rough = [_constant(value, second=False) for value in (1.0, 3.5, 2.75)]
    short = [locally_smooth_model(rough[0], rough[0], 1.0, 0.75, 1.0),
             locally_smooth_model(rough[1], rough[0], 1.0, 0.5, 1.0,
                                  regime="Hs2"),
             locally_smooth_model(rough[2], rough[0], 1.0, 0.5, 1.0,
                                  regime="Hs2", uniform_bounds=True),
             # The diffusion sigma*x is not constant, so ginzburg-landau
             # plans Hy2 while its stated rate is 1.0.
             ginzburg_landau_model(0.5, 1.0, 1.0)]
    for triple in short:
        model = triple.transformed
        assert model.regularity == "Hy2"
        assert plan_exponents(model).rate == 0.5
        assert guaranteed_rate(model).y_rate == 1.0


def test_manual_plan_thresholds():
    t = cir_model(0.5, 1.0, 0.5, 1.0, q=6.0).transformed
    plan = manual_plan(t, k=0.25, rate=0.5)
    assert plan.regime == "manual"
    assert plan.eta_exponent == 2.0 * 0.5 / 6.0
    assert plan.zeta_exponent is None
    plan = manual_plan(t, k=0.25)
    assert plan.rate is None
    assert plan.eta_exponent is None
    gl = ginzburg_landau_model(0.5, 1.0, 1.0).transformed
    plan = manual_plan(gl, k_prime=0.25, rate=0.5)
    assert plan.symmetric is True
    assert plan.zeta_exponent == -2.0 * 0.5 / (15.0 - 2.0)
    assert plan.eta_exponent is None


@pytest.mark.parametrize("build", [
    lambda: ait_sahalia_model(1, 1, 1, 1, 1, 2, 1.5, 1, q_prime=2.0),
    lambda: locally_smooth_model(_constant(1.25), _constant(1.0), 1.0, 0.5, 1.0,
                                 regime="Hs2", q_prime=2.0),
], ids=["ait-sahalia", "hs2-omega-2.5"])
def test_upper_moment_exponent_of_two_is_refused_by_the_model(build):
    # Neither claims a regime, so both used to build, and then
    # `manual_plan(..., k_prime=0.1, rate=0.5)` divided by q' - 2 = 0.
    with pytest.raises(DomainError, match="q' must exceed 2"):
        build()


def test_lipschitz_bound_values():
    t = synthetic_model(beta=2.0, local_lipschitz_k=1.0, regularity=None)
    plan = ProjectionPlan(alpha=0.0, beta=2.0, k=0.25, k_prime=None)
    assert lipschitz_bound(t, 16, plan) == 10.0
    cir = cir_model(0.5, 1.0, 0.5, 1.0).transformed
    assert lipschitz_bound(cir, 16, plan) == 2.5
    with pytest.raises(DomainError):
        lipschitz_bound(t, 0, plan)
    with pytest.raises(DomainError):
        lipschitz_bound(t, 16, classical_plan())
    gl = ginzburg_landau_model(0.5, 1.0, 1.0).transformed
    with pytest.raises(DomainError):
        lipschitz_bound(gl, 16, classical_plan())


def test_lipschitz_bound_times_step_stays_bounded():
    t = synthetic_model(beta=2.0, local_lipschitz_k=1.0, regularity=None)
    plan = ProjectionPlan(alpha=0.0, beta=2.0, k=0.25, k_prime=None)
    values = [lipschitz_bound(t, n, plan) ** 2 / n
              for n in (2 ** e for e in range(1, 15))]
    assert all(v <= 16.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_projected_drift_is_globally_lipschitz():
    cir = cir_model(0.5, 1.0, 0.5, 1.0).transformed
    plan = ProjectionPlan(alpha=0.0, beta=2.0, k=0.25, k_prime=None)
    n = 16

    def f_n(y):
        return cir.f(project(y, n, plan))

    bound = lipschitz_bound(cir, n, plan)
    rng = np.random.default_rng(7)
    x = rng.uniform(-100.0, 100.0, 1000)
    y = rng.uniform(-100.0, 100.0, 1000)
    fx, fy = f_n(x), f_n(y)
    slack = 1e-9 * (1.0 + np.abs(fx) + np.abs(fy)) * np.abs(x - y) + 1e-15
    assert np.all(np.abs(fx - fy) <= bound * np.abs(x - y) + slack)
    lhs = (x - y) * (fx - fy)
    assert np.all(lhs <= cir.one_sided_k * (x - y) ** 2 + slack)


def test_step_example_exact():
    t = cir_model(0.5, 1.0, 0.5, 1.0).transformed
    plan = manual_plan(t, k=0.25)
    assert _advance(1.0, t, plan, 16, 1.0 / 16.0, 0.0) == 0.998046875


def test_step_diffusion_paths():
    cir = cir_model(0.5, 1.0, 0.5, 1.0).transformed
    plan = manual_plan(cir, k=0.25)
    assert diffusion_bar(cir, -4.0, 16, plan) == 0.25
    gl = ginzburg_landau_model(0.5, 2.0, 1.0).transformed
    sym = plan_exponents(gl)
    assert diffusion_bar(gl, 5.0, 16, sym) == 2.0 * project(5.0, 16, sym)
    assert diffusion_bar(gl, -5.0, 16, sym) == -4.0
    raw_gl = manual_plan(gl, k_prime=0.25)
    assert raw_gl.symmetric is True


def test_classical_plan_reduces_to_euler():
    t = cir_model(0.5, 1.0, 0.5, 1.0).transformed
    n, h = 32, 1.0 / 32
    incs = path_increments(BrownianFabric(5), 0, 0, n, h)
    path = projected_path(t, classical_plan(), n, h, incs)
    y = t.y0
    for i in range(n):
        y = y + t.f(y) * h + t.gamma_const * incs[i]
    assert path[-1] == y
    assert path[0] == t.y0


def test_evolve_terminal_matches_simulate_path():
    # One path stepped as floats (`oracles.projected_path`, the loop the
    # package's `simulate_path` was) equals its row of the batch, bit for bit:
    # these drifts round alike for a float and an array because they call
    # no `pow`, whose scalar and SIMD loops may differ in the last bit.
    cir_plan = plan_exponents(cir_model(0.5, 1.0, 0.5, 1.0, q=6.0).transformed)
    ait = ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0).transformed
    gl = ginzburg_landau_model(0.5, 1.0, 1.0).transformed
    n, h = 256, 1.0 / 256
    fabric = BrownianFabric(9)
    incs = np.stack([path_increments(fabric, p, 0, n, h) for p in range(200)])
    for model, plan in [(cir_model(0.5, 1.0, 0.5, 1.0).transformed, cir_plan),
                        (ait, manual_plan(ait, k=0.25, k_prime=0.125)),
                        (gl, plan_exponents(gl))]:
        batch = evolve_terminal(model, plan, n, h, incs)
        assert batch.shape == (200,)
        paths = [projected_path(model, plan, n, h, row)[-1] for row in incs]
        assert np.array_equal(batch, paths), model.name


def _full_length_evolve(model, plan, n, h, increments, integrand=None):
    """`_evolve` as it was before step 0 was computed once: every row holds
    the start value from step 0 on."""
    incs = np.asarray(increments, dtype=float)
    y = np.full(incs.shape[0], model.y0, dtype=float)
    integral = None if integrand is None else np.zeros(incs.shape[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(n):
            if integral is not None:
                integral += integrand(y) * h
            y = _advance(y, model, plan, n, h, incs[:, i])
    return y, integral


def _step_zero_cases():
    """(label, triple, plan) for every family the config admits, an
    ait-sahalia whose 1/(rho - 1) and a2 exponent are not integers (both
    taken by `pow`), and a locally-smooth model (`pow` in f and its
    inverse map)."""
    smooth = SmoothCoefficient(fn=lambda x: 1.0 + 0.0 * x, deriv=lambda x: 0.0 * x,
                               second=lambda x: 0.0 * x)
    triples = {
        "cir": cir_model(2.0, 1.0, 0.5, 1.0),
        "three-halves": three_halves_model(1.0, 1.0, 1.0, 1.0),
        "ait-sahalia": ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0),
        "ait-sahalia-non-integral": ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0,
                                                      2.5, 1.7, 0.8),
        "ginzburg-landau": ginzburg_landau_model(0.5, 1.0, 1.0),
        "locally-smooth": locally_smooth_model(smooth, smooth, 1.0, 0.75, 1.0),
    }
    assert set(config._FAMILIES) <= set(triples)
    assert not (1.0 / (1.7 - 1.0)).is_integer()
    plans = {"cir": manual_plan(triples["cir"].transformed, k=0.25, scale_lo=0.01),
             "ait-sahalia": manual_plan(triples["ait-sahalia"].transformed,
                                        k=0.25, k_prime=0.125)}
    return [(label, triple, plans.get(label) or plan_exponents(triple.transformed))
            for label, triple in triples.items()]


@pytest.mark.parametrize("label, triple, plan", _step_zero_cases(),
                         ids=[case[0] for case in _step_zero_cases()])
def test_step_zero_from_y0_keeps_the_bits_of_full_length_rows(label, triple, plan):
    # Step 0 is computed on one element and broadcast; the old loop computed
    # it on every row.  Both must give the same bits, with and without an
    # integrand, at any row count and number of steps.
    model = triple.transformed
    rng = np.random.default_rng(31)

    def rate(y):
        return triple.lamperti.inverse(np.maximum(y, 0.0))

    for n in (1, 2, 5):
        h = 1.0 / n
        for rows in (1, 7, 4096, 1 << 17):
            incs = np.asfortranarray(rng.standard_normal((rows, n)) * math.sqrt(h))
            for integrand in (None, rate):
                y, integral = _evolve(model, plan, n, h, incs, integrand)
                old_y, old_integral = _full_length_evolve(model, plan, n, h, incs,
                                                          integrand)
                assert y.shape == (rows,)
                np.testing.assert_array_equal(y, old_y, err_msg=f"{label} n={n}")
                if integrand is None:
                    assert integral is None
                else:
                    assert integral.shape == (rows,)
                    np.testing.assert_array_equal(integral, old_integral)
    assert _evolve(model, plan, 0, 1.0, np.empty((3, 0)))[0].shape == (3,)


# Every clamp shape the in-place step meets: none, lower only, upper only,
# both (also crossed, lo > hi), symmetric, and a lower bound that
# underflows to +0.0 from n = 2 on, which the clip does not take.  The
# stepper reads only k, k', the scales and `symmetric`.
_CLAMPS = {
    "classical": classical_plan(),
    "lower": ProjectionPlan(alpha=0.0, beta=0.0, k=0.25, k_prime=None, scale_lo=0.5),
    "upper": ProjectionPlan(alpha=0.0, beta=0.0, k=None, k_prime=0.125, scale_hi=2.0),
    "both": ProjectionPlan(alpha=0.0, beta=0.0, k=0.25, k_prime=0.125),
    "crossed": ProjectionPlan(alpha=0.0, beta=0.0, k=0.25, k_prime=0.125,
                              scale_lo=4.0, scale_hi=0.5),
    "symmetric": ProjectionPlan(alpha=0.0, beta=0.0, k=None, k_prime=0.25,
                                symmetric=True),
    "zero-lower": ProjectionPlan(alpha=0.0, beta=0.0, k=1.0, k_prime=0.125,
                                 scale_lo=5e-324),
}
_EDGES = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                   1.0, -1.0, 0.25, 3.0, 1e300, -1e300])


def _in_place_cases():
    """(label, triple) for every family of `_step_zero_cases`, and a model of
    one's own whose drift and state-dependent diffusion take one argument,
    so they allocate inside the in-place step."""
    own = synthetic_model(f=lambda y: y - y * y * y, gamma=lambda y: 0.5 * y,
                          gamma_const=None)
    identity = LampertiMap(forward=lambda x: x, inverse=lambda y: y)
    return [case[:2] for case in _step_zero_cases()] + [
        ("own-coefficients", SimpleNamespace(transformed=own, lamperti=identity))]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("label, triple", _in_place_cases(),
                         ids=[case[0] for case in _in_place_cases()])
def test_in_place_step_keeps_the_bits_of_the_allocating_step(label, triple):
    # From its second step on `_evolve` steps in place; it must give the
    # bits of the allocating `_advance` looped over full-length rows, under
    # every clamp shape, from start values and through increments that make
    # +-0.0, NaN, +-inf and 5e-324 states.
    rng = np.random.default_rng(17)

    def rate(y):
        return triple.lamperti.inverse(np.maximum(y, 0.0))

    for clamp, plan in _CLAMPS.items():
        for y0 in (triple.transformed.y0, 0.0, -0.0, 5e-324):
            model = dataclasses.replace(triple.transformed, y0=y0)
            for n in (0, 1, 2, 5):
                h = 1.0 / max(n, 1)
                for rows in (1, 7, 4096):
                    incs = np.asfortranarray(rng.standard_normal((rows, n)) * math.sqrt(h))
                    for j, edge in enumerate(_EDGES if n else ()):
                        incs[(5 * j + 1) % rows, j % n] = edge
                    for integrand in (None, rate):
                        y, integral = _evolve(model, plan, n, h, incs, integrand)
                        old_y, old_integral = _full_length_evolve(model, plan, n, h,
                                                                  incs, integrand)
                        where = f"{label} {clamp} y0={y0} n={n} rows={rows}"
                        assert np.array_equal(_bits(y), _bits(old_y)), where
                        if integrand is not None:
                            assert np.array_equal(_bits(integral), _bits(old_integral)), where

    # One step on a state row of edge values, also into its own row.
    model = triple.transformed
    states = np.tile(_EDGES, 3)
    dw = np.concatenate([_EDGES, 0.5 * _EDGES[::-1], rng.standard_normal(len(_EDGES))])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for clamp, plan in _CLAMPS.items():
            for n in (2, 5):
                expected = _bits(_advance(states, model, plan, n, 1.0 / n, dw))
                rows = projection._rows(model, plan, n, 1.0 / n, len(states))
                got = _advance(states, model, plan, n, 1.0 / n, dw, rows=rows)
                assert got is rows.y
                assert np.array_equal(_bits(got), expected), f"{label} {clamp} n={n}"
                rows.y[:] = states
                got = _advance(rows.y, model, plan, n, 1.0 / n, dw, rows=rows)
                assert np.array_equal(_bits(got), expected), f"{label} {clamp} n={n}"


def test_zero_diffusion_ignores_increment_signs():
    gl = ginzburg_landau_model(0.5, 0.0, 1.0).transformed
    plan = plan_exponents(gl)
    n, h = 32, 1.0 / 32
    incs = path_increments(BrownianFabric(13), 0, 0, n, h)
    a = projected_path(gl, plan, n, h, incs)
    b = projected_path(gl, plan, n, h, -incs)
    c = projected_path(gl, plan, n, h, np.zeros(n))
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_symmetric_scheme_is_odd_in_state_and_noise():
    gl = ginzburg_landau_model(0.5, 1.0, 1.0).transformed
    plan = plan_exponents(gl)
    rng = np.random.default_rng(3)
    for y, dw in zip(rng.uniform(-5.0, 5.0, 64), rng.normal(0.0, 0.1, 64)):
        assert _advance(-y, gl, plan, 16, 0.03125, dw) \
            == -_advance(y, gl, plan, 16, 0.03125, dw)


def test_clamp_variants():
    cir_plan = plan_exponents(cir_model(0.5, 1.0, 0.5, 1.0, q=6.0).transformed)
    gl_plan = plan_exponents(ginzburg_landau_model(0.5, 1.0, 1.0).transformed)
    h = 2.0 ** -8
    assert clamp_variant(-1.5, "raw", cir_plan, h) == -1.5
    assert clamp_variant(-1.5, "bar", cir_plan, h) == 0.0
    assert clamp_variant(2.5, "bar", cir_plan, h) == 2.5
    eta = h ** cir_plan.eta_exponent
    assert clamp_variant(0.0, "tilde", cir_plan, h) == eta
    assert clamp_variant(1.0, "tilde", cir_plan, h) == 1.0
    zeta = h ** gl_plan.zeta_exponent
    assert zeta > 1.0
    assert clamp_variant(zeta + 1.0, "check", gl_plan, h) == zeta
    assert clamp_variant(0.5, "check", gl_plan, h) == 0.5
    for variant in ("check", "double"):
        with pytest.raises(MissingThreshold):
            clamp_variant(1.0, variant, cir_plan, h)
    for variant in ("tilde", "double"):
        with pytest.raises(MissingThreshold):
            clamp_variant(1.0, variant, gl_plan, h)
    with pytest.raises(ValueError):
        clamp_variant(1.0, "hat", cir_plan, h)


def test_clamp_double_applies_both_sides():
    t = ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.5, 1.0).transformed
    plan = plan_exponents(t)
    h = 2.0 ** -10
    eta, zeta = h ** plan.eta_exponent, h ** plan.zeta_exponent
    assert clamp_variant(0.0, "double", plan, h) == eta
    assert clamp_variant(2.0 * zeta, "double", plan, h) == zeta
    assert clamp_variant(1.0, "double", plan, h) == 1.0


def test_simulate_path_reports_divergence_node():
    # A cubic drift overflows within ten steps; the batch stepper lets the
    # inf/NaN through on every row for its caller to flag.
    cube = synthetic_model(f=lambda y: y * y * y, regularity=None,
                           one_sided_k=100.0, y0=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        terminal = evolve_terminal(cube, classical_plan(), 10, 10.0,
                                   np.zeros((3, 10)))
    assert terminal.shape == (3,)
    assert not np.isfinite(terminal).any()
