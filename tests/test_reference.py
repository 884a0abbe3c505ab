from __future__ import annotations

import math

import numpy as np
import pytest

from sdeproj.brownian import BrownianFabric
from sdeproj.errors import DomainError
from sdeproj.reference import (ImplicitCirParams, cir_zcb_closed_form,
                               ginzburg_landau_exact, implicit_cir_path,
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


def test_path_and_terminal_agree():
    p = ImplicitCirParams.from_cir(0.5, 1.0, 0.5, 1.0)
    h = 1.0 / 32.0
    incs = BrownianFabric(19).block_increments(5, 0, 32, h, rows=8)
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
    incs = BrownianFabric(61).block_increments(3, 0, 33, 0.125, rows=50)
    assert incs.flags.f_contiguous
    for terms in (incs, np.ascontiguousarray(incs), incs[7:], incs[0], incs[:1]):
        reference = np.zeros(terms.shape[:-1] + (terms.shape[-1] + 1,))
        np.cumsum(terms, axis=-1, out=reference[..., 1:])
        assert np.array_equal(running_sum(terms), reference)
    assert running_sum(incs).flags.f_contiguous


def test_gl_exact_layout_independent():
    times = np.linspace(0.0, 1.0, 65)
    w = running_sum(BrownianFabric(67).block_increments(4, 0, 64, 1.0 / 64, rows=40))
    column_major = ginzburg_landau_exact(0.5, 1.0, 1.0, times, w)
    assert np.array_equal(column_major,
                          ginzburg_landau_exact(0.5, 1.0, 1.0, times,
                                                np.ascontiguousarray(w)))
