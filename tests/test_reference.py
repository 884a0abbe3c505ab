from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest

from sdeproj import blocks, convergence, reference
from sdeproj.brownian import BLOCK_WIDTH, BrownianFabric
from sdeproj.errors import DomainError
from sdeproj.mlmc import MlmcConfig, implicit_price
from sdeproj.models import cir_model
from sdeproj.projection import plan_exponents
from sdeproj.reference import (ImplicitCirParams, cir_zcb_closed_form,
                               ginzburg_landau_exact, ginzburg_landau_terminal,
                               implicit_cir_path,
                               implicit_cir_step, implicit_cir_terminal,
                               running_sum)


def test_params_validation():
    ImplicitCirParams(a=0.0, b=0.0, c=1.0, y0=1.0)
    with pytest.raises(DomainError):
        ImplicitCirParams(a=-0.1, b=0.0, c=1.0, y0=1.0)
    with pytest.raises(DomainError):
        ImplicitCirParams(a=1.0, b=0.1, c=1.0, y0=1.0)
    with pytest.raises(DomainError):
        ImplicitCirParams(a=1.0, b=0.0, c=0.0, y0=1.0)
    with pytest.raises(DomainError):
        ImplicitCirParams(a=1.0, b=0.0, c=1.0, y0=0.0)


def test_from_cir_matches_transform():
    p = ImplicitCirParams.from_cir(0.5, 1.0, 0.5, 1.0)
    assert (p.a, p.b, p.c, p.y0) == (0.21875, -0.25, 0.25, 1.0)
    # xi^2 = 4 kappa theta sits exactly on the boundary a = 0
    assert ImplicitCirParams.from_cir(1.0, 1.0, 2.0, 1.0).a == 0.0
    with pytest.raises(DomainError):
        ImplicitCirParams.from_cir(1.0, 1.0, 2.1, 1.0)
    with pytest.raises(DomainError):
        ImplicitCirParams.from_cir(0.0, 1.0, 0.5, 1.0)


def test_step_linear_reduction_at_a_zero():
    p = ImplicitCirParams(a=0.0, b=-0.25, c=0.5, y0=1.0)
    h = 0.125
    ys = np.array([0.3, 1.0, 2.5])
    dws = np.array([0.2, -0.5, 0.0])
    out = implicit_cir_step(ys, p, h, dws)
    np.testing.assert_array_equal(out, (ys + p.c * dws) / (1.0 - p.b * h))
    # y + c dw < 0 collapses to the boundary
    assert implicit_cir_step(0.1, p, h, -10.0) == 0.0


def test_step_matches_quadratic_root_formula():
    p = ImplicitCirParams.from_cir(0.5, 1.0, 0.5, 1.0)
    h = 2.0 ** -12
    denom = 1.0 - p.b * h
    s = 1.0 / (2.0 * denom)
    t = p.a * h / denom
    assert implicit_cir_step(1.0, p, h, 0.0) == s + np.sqrt(s * s + t)
    with pytest.raises(DomainError):
        implicit_cir_step(1.0, p, 0.0, 0.0)


def test_step_residual_and_positivity():
    p = ImplicitCirParams.from_cir(0.5, 1.0, 0.5, 1.0)
    h = 1.0 / 64.0
    rng = np.random.default_rng(11)
    y = np.exp(rng.uniform(math.log(1e-3), math.log(1e2), 10 ** 4))
    dw = rng.normal(0.0, math.sqrt(h), 10 ** 4)
    out = implicit_cir_step(y, p, h, dw)
    assert np.all(out > 0.0)
    assert np.all(np.isfinite(out))
    residual = out - y - (p.a / out + p.b * out) * h - p.c * dw
    assert np.max(np.abs(residual) / (1.0 + np.abs(out))) <= 1e-10



def _where_step(y, params, h, dw):
    """The step as it was written before: both branches of an np.where."""
    if h <= 0:
        raise DomainError("h must be positive")
    denom = 1.0 - params.b * h
    s = (y + params.c * dw) / (2.0 * denom)
    t = params.a * h / denom
    root = np.sqrt(s * s + t)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(s >= 0.0, s + root, t / (root - s))


def _outcome(step, *args):
    """(shape, bytes, warnings) of one call, for a bit-level comparison."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = np.asarray(step(*args))
    return out.shape, out.tobytes(), [(w.category, str(w.message)) for w in caught]


# s > 0, s = 0 (0.5 + 0.25 * -2.0 and 0.5 + 0.5 * -1.0, also -0.0 + -0.0),
# s < 0, subnormal and huge values, NaN and +-inf in both inputs.
_YS = [0.3, 1.0, 0.5, 0.0, -0.0, -0.2, 5e-324, -5e-324, 1e300, -1e300,
       math.nan, math.inf, -math.inf]
_DWS = [0.2, -0.5, -2.0, -1.0, 0.0, -0.0, -40.0, math.nan, math.inf, -math.inf]
_PARAMS = [ImplicitCirParams.from_cir(0.5, 1.0, 0.5, 1.0),
           ImplicitCirParams(a=0.0, b=-0.25, c=0.5, y0=1.0),   # t = 0
           ImplicitCirParams(a=0.0, b=0.0, c=0.25, y0=1.0)]


@pytest.mark.parametrize("params", _PARAMS)
def test_step_has_the_bits_of_the_where_formula(params):
    h = 0.125
    y, dw = (np.array(v) for v in zip(*itertools.product(_YS, _DWS)))
    assert _outcome(implicit_cir_step, y, params, h, dw) \
        == _outcome(_where_step, y, params, h, dw)
    # Only rows with s >= 0, so the step never reaches the safe form.
    with np.errstate(invalid="ignore"):
        pos = (y + params.c * dw) / (2.0 * (1.0 - params.b * h)) >= 0.0
    assert _outcome(implicit_cir_step, y[pos], params, h, dw[pos]) \
        == _outcome(_where_step, y[pos], params, h, dw[pos])
    # Scalars and 0-d arrays, as implicit_cir_path passes them.
    for yi, dwi in itertools.product(_YS, _DWS):
        for args in ((yi, dwi), (np.float64(yi), np.float64(dwi)),
                     (np.array(yi), np.array(dwi))):
            assert _outcome(implicit_cir_step, args[0], params, h, args[1]) \
                == _outcome(_where_step, args[0], params, h, args[1])


def test_step_bits_on_strided_and_contiguous_columns():
    params = ImplicitCirParams.from_cir(0.5, 1.0, 0.5, 1.0)
    h = 1.0 / 8.0
    # Coarse steps from a low start, so some rows go below s = 0 on the way.
    dw = blocks.Stream(BrownianFabric(23), 3, 8, h).draw([(0, 0, 500)])[0] * 6.0
    for block in (dw, np.ascontiguousarray(dw)):
        new = old = np.full(block.shape[0], 0.05)
        for i in range(block.shape[1]):
            column = block[:, i]
            assert column.flags.c_contiguous == block.flags.f_contiguous
            assert np.any((old + params.c * column) < 0.0)
            new = implicit_cir_step(new, params, h, column)
            old = _where_step(old, params, h, column)
            assert new.tobytes() == old.tobytes()
        whole = np.full(block.shape, 0.05)
        assert _outcome(implicit_cir_step, whole, params, h, block) \
            == _outcome(_where_step, whole, params, h, block)
    path = implicit_cir_path(params, h, dw[7])
    reference_path = np.array([params.y0] + [0.0] * dw.shape[1])
    y = params.y0
    for i in range(dw.shape[1]):
        y = _where_step(y, params, h, dw[7, i])
        reference_path[i + 1] = y
    assert path.tobytes() == reference_path.tobytes()


def test_implicit_users_give_the_where_formula_reports(monkeypatch):
    spread = MlmcConfig(models=(cir_model(1.0, 0.06, 0.04, 0.05),
                                cir_model(0.8, 0.05, 0.016, 0.06)),
                        payoff="spread", horizon=1.0, epsilon=1e-4,
                        strike=0.001, correlation=-0.7)
    zcb = MlmcConfig(models=(cir_model(2.0, 1.0, 0.5, 1.0),), payoff="zcb",
                     horizon=1.0, epsilon=1e-3)
    cir = cir_model(0.5, 1.0, 0.5, 1.0)
    plan = plan_exponents(cir.transformed)

    def run():
        return (
            implicit_price(spread, BrownianFabric(3), paths=BLOCK_WIDTH + 50,
                           fine_exponent=6, threads=2),
            implicit_price(zcb, BrownianFabric(3), paths=600, fine_exponent=6),
            convergence.run_convergence_study(
                cir.transformed, cir.lamperti, plan, [2, 4], 700,
                "implicit-fine-grid", BrownianFabric(3), fine_exponent=7,
                variant="implicit-reference"))

    lean = run()
    monkeypatch.setattr(reference, "implicit_cir_step", _where_step)
    monkeypatch.setattr(convergence, "implicit_cir_step", _where_step)
    assert run() == lean


def test_path_and_terminal_agree():
    p = ImplicitCirParams.from_cir(0.5, 1.0, 0.5, 1.0)
    h = 1.0 / 32.0
    (incs,) = blocks.Stream(BrownianFabric(19), 5, 32, h).draw([(0, 0, 8)])
    terminal = implicit_cir_terminal(p, h, incs)
    for j in range(8):
        path = implicit_cir_path(p, h, incs[j])
        assert path.shape == (33,)
        assert path[0] == p.y0
        assert terminal[j] == path[-1]
    y = p.y0
    for i in range(32):
        y = implicit_cir_step(y, p, h, incs[0, i])
    assert y == terminal[0]
    with pytest.raises(ValueError):
        implicit_cir_path(p, h, incs)


def test_gl_exact_zero_parameters():
    times = np.linspace(0.0, 1.0, 17)
    w = np.zeros(17)
    out = ginzburg_landau_exact(0.0, 0.0, 2.0, times, w)
    assert out[0] == 2.0
    np.testing.assert_allclose(out, 2.0 / np.sqrt(1.0 + 8.0 * times),
                               rtol=1e-13)


def test_gl_exact_deterministic_convergence():
    lam, x0 = 0.5, 1.0
    closed = math.exp(0.5) / math.sqrt(2.0 * math.e - 1.0)
    errors = []
    for exp in (10, 11, 12):
        n = 2 ** exp
        times = np.linspace(0.0, 1.0, n + 1)
        out = ginzburg_landau_exact(lam, 0.0, x0, times, np.zeros(n + 1))
        errors.append(abs(float(out[-1]) - closed))
    big = ginzburg_landau_exact(lam, 0.0, x0, np.linspace(0.0, 1.0, 2 ** 16 + 1),
                                np.zeros(2 ** 16 + 1))
    assert abs(float(big[-1]) - closed) <= 2e-5
    # left Riemann sum converges at first order: halving h halves the error
    for a, b in zip(errors, errors[1:]):
        assert 1.8 < a / b < 2.2


def test_gl_exact_validation():
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(DomainError):
        ginzburg_landau_exact(0.0, 0.0, 0.0, times, np.zeros(5))
    with pytest.raises(ValueError):
        ginzburg_landau_exact(0.0, 0.0, 1.0, times, np.zeros(6))


def test_gl_exact_batch_shape():
    times = np.linspace(0.0, 1.0, 9)
    w = np.zeros((3, 9))
    w[1, 1:] = 0.5
    w[2, 1:] = -0.5
    out = ginzburg_landau_exact(0.1, 0.3, 1.0, times, w)
    assert out.shape == (3, 9)
    assert np.all(out > 0.0)
    assert out[1, -1] != out[2, -1]


def test_zcb_frozen_value():
    assert cir_zcb_closed_form(2.0, 1.0, 0.5, 1.0, 1.0) == 0.3721963545473621


def test_zcb_zero_horizon_and_validation():
    assert cir_zcb_closed_form(2.0, 1.0, 0.5, 1.0, 0.0) == 1.0
    assert cir_zcb_closed_form(2.0, 1.0, 0.5, 0.0, 1.0) > 0.0
    with pytest.raises(DomainError):
        cir_zcb_closed_form(0.0, 1.0, 0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        cir_zcb_closed_form(2.0, 1.0, 0.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        cir_zcb_closed_form(2.0, 1.0, 0.5, 1.0, -1.0)


def test_zcb_near_deterministic_limit():
    # As xi -> 0 the price approaches the deterministic-rate bond at O(xi^2).
    kappa, theta, v0, horizon = 2.0, 1.0, 0.7, 1.0
    integral = theta * horizon + (v0 - theta) * (1.0 - math.exp(-kappa * horizon)) / kappa
    ode_price = math.exp(-integral)
    errors = [abs(cir_zcb_closed_form(kappa, theta, xi, v0, horizon) - ode_price)
              for xi in (1e-1, 1e-2, 1e-3)]
    assert errors[-1] < 1e-7 * ode_price
    for a, b in zip(errors, errors[1:]):
        assert 90.0 < a / b < 110.0


def test_zcb_monotonicity():
    base = cir_zcb_closed_form(2.0, 1.0, 0.5, 1.0, 1.0)
    assert cir_zcb_closed_form(2.0, 1.0, 0.5, 1.5, 1.0) < base
    assert cir_zcb_closed_form(2.0, 1.0, 0.5, 1.0, 2.0) < base
    assert cir_zcb_closed_form(2.0, 1.5, 0.5, 1.0, 1.0) < base


def test_running_sum_matches_cumsum_in_every_layout():
    (incs,) = blocks.Stream(BrownianFabric(61), 3, 33, 0.125).draw([(0, 0, 50)])
    assert incs.flags.f_contiguous
    for terms in (incs, np.ascontiguousarray(incs), incs[7:], incs[0], incs[:1]):
        reference = np.zeros(terms.shape[:-1] + (terms.shape[-1] + 1,))
        np.cumsum(terms, axis=-1, out=reference[..., 1:])
        assert np.array_equal(running_sum(terms), reference)
    assert running_sum(incs).flags.f_contiguous


def test_gl_exact_layout_independent():
    times = np.linspace(0.0, 1.0, 65)
    (incs,) = blocks.Stream(BrownianFabric(67), 4, 64, 1.0 / 64).draw([(0, 0, 40)])
    w = running_sum(incs)
    column_major = ginzburg_landau_exact(0.5, 1.0, 1.0, times, w)
    assert np.array_equal(column_major,
                          ginzburg_landau_exact(0.5, 1.0, 1.0, times,
                                                np.ascontiguousarray(w)))


@pytest.mark.parametrize("lam, sigma, x0, horizon", [
    (0.5, 1.0, 1.0, 1.0),
    (0.0, 7.0, 1.0, 3.0),     # criterion 3's explosive parameters
    (-0.3, 0.2, 2.0, 1.5),
])
def test_gl_terminal_matches_full_solution(lam, sigma, x0, horizon):
    n = 256
    (incs,) = blocks.Stream(BrownianFabric(79), 8, n, horizon / n).draw([(0, 0, 300)])
    times = np.linspace(0.0, horizon, n + 1)
    for terms in (incs, np.ascontiguousarray(incs), incs[37:], incs[5]):
        full = ginzburg_landau_exact(lam, sigma, x0, times, running_sum(terms))
        assert np.array_equal(ginzburg_landau_terminal(lam, sigma, x0, times, terms),
                              full[..., -1])


def test_gl_terminal_validation():
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(DomainError):
        ginzburg_landau_terminal(0.5, 1.0, 0.0, times, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        ginzburg_landau_terminal(0.5, 1.0, 1.0, times, np.zeros((2, 5)))
