from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdeproj import blocks, convergence, reference
from sdeproj.brownian import BLOCK_WIDTH, BrownianFabric
from sdeproj.errors import DomainError
from sdeproj.mlmc import MlmcConfig, implicit_price
from sdeproj.models import cir_model
from sdeproj.projection import _evolve, manual_plan
from sdeproj.reference import (ImplicitCirParams, cir_zcb_closed_form,
                               ginzburg_landau_terminal, implicit_cir_step,
                               implicit_cir_terminal)

from oracles import ginzburg_landau_exact, implicit_path, running_sum


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
    # Scalars and 0-d arrays, as `oracles.implicit_path` passes them.
    for yi, dwi in itertools.product(_YS, _DWS):
        for args in ((yi, dwi), (np.float64(yi), np.float64(dwi)),
                     (np.array(yi), np.array(dwi))):
            assert _outcome(implicit_cir_step, args[0], params, h, args[1]) \
                == _outcome(_where_step, args[0], params, h, args[1])


def test_step_bits_on_strided_and_contiguous_columns():
    params = ImplicitCirParams.from_cir(0.5, 1.0, 0.5, 1.0)
    h = 1.0 / 8.0
    # Coarse steps from a low start, so some rows go below s = 0 on the way.
    dw = blocks.Stream(BrownianFabric(23), 3, 8, h).draw([(0, 0, 500)]) * 6.0
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
    path = implicit_path(params, h, dw[7])
    reference_path = np.array([params.y0] + [0.0] * dw.shape[1])
    y = params.y0
    for i in range(dw.shape[1]):
        y = _where_step(y, params, h, dw[7, i])
        reference_path[i + 1] = y
    assert path.tobytes() == reference_path.tobytes()


def test_implicit_users_give_the_where_formula_reports(monkeypatch):
    # Near the boundary (2 kappa theta / xi^2 = 1.02, x0 = 1e-4), so that
    # the runs on `edge` step rows with s < 0, where the two forms differ in
    # their last bits; the study's report shows it (a kernel without the
    # s < 0 form fails here).
    edge = cir_model(1.0, 0.01, 0.14, 1e-4)
    spread = MlmcConfig(models=(cir_model(1.0, 0.06, 0.04, 0.05),
                                cir_model(0.8, 0.05, 0.016, 0.06)),
                        payoff="spread", horizon=1.0, epsilon=1e-4,
                        strike=0.001, correlation=-0.7)
    zcb = MlmcConfig(models=(edge,), payoff="zcb", horizon=1.0, epsilon=1e-3)
    plan = manual_plan(edge.transformed, k=0.25)

    def run():
        return (
            implicit_price(spread, BrownianFabric(3), paths=BLOCK_WIDTH + 50,
                           fine_exponent=6, threads=2),
            implicit_price(dataclasses.replace(spread, models=(edge, edge)),
                           BrownianFabric(3), paths=600, fine_exponent=6),
            implicit_price(zcb, BrownianFabric(3), paths=600, fine_exponent=6),
            convergence.run_convergence_study(
                edge.transformed, edge.lamperti, plan, [2, 4], 2000,
                "implicit-fine-grid", BrownianFabric(3), fine_exponent=7,
                variant="implicit-reference"))

    negative = []

    def where_kernel(y, dw, c, two_denom, t, out=None, s=None, mask=None):
        """The where formula in the place of the shared kernel, written into
        the kernel's `out`."""
        s = (y + c * dw) / two_denom
        negative.append(bool(np.any(s < 0.0)))
        root = np.sqrt(s * s + t)
        with np.errstate(invalid="ignore", divide="ignore"):
            value = np.where(s >= 0.0, s + root, t / (root - s))
        if out is None:
            return value
        out[...] = value
        return out

    lean = run()
    monkeypatch.setattr(reference, "_implicit_step", where_kernel)
    assert run() == lean
    assert any(negative)


def test_implicit_step_zero_from_y0_keeps_the_bits_of_full_length_rows():
    # `_implicit_evolve` starts from a one-element state; the loop below is
    # the old one, which held y0 on every row from step 0.
    rng = np.random.default_rng(43)
    for triple in (cir_model(2.0, 1.0, 0.5, 1.0), cir_model(1.0, 0.06, 0.04, 0.05)):
        params = ImplicitCirParams.from_model(triple.transformed)

        def rate(y, inverse=triple.lamperti.inverse):
            return inverse(np.maximum(y, 0.0))

        for n in (1, 2, 5):
            h = 1.0 / n
            for rows in (1, 7, 4096, 1 << 17):
                incs = np.asfortranarray(rng.standard_normal((rows, n)) * math.sqrt(h))
                for integrand in (None, rate):
                    y = np.full(rows, params.y0)
                    integral = np.zeros(rows)
                    for i in range(n):
                        integral += rate(y) * h
                        y = implicit_cir_step(y, params, h, incs[:, i])
                    got, got_integral = reference._implicit_evolve(params, n, h, incs,
                                                                   integrand)
                    assert got.shape == (rows,)
                    np.testing.assert_array_equal(got, y)
                    if integrand is None:
                        assert got_integral is None
                    else:
                        np.testing.assert_array_equal(got_integral, integral)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.sampled_from([1, 7, BLOCK_WIDTH, BLOCK_WIDTH + 50]),
       n=st.integers(1, 5), a=st.sampled_from([0.0, 1e-3, 0.21875]),
       y0=st.sampled_from([0.01, 1.0]), spread=st.sampled_from([0.5, 8.0]),
       seed=st.integers(0, 2 ** 32 - 1), poison=st.booleans(),
       at=st.integers(0, 4))
def test_implicit_evolve_has_the_bits_of_the_step_iterated(rows, n, a, y0, spread,
                                                           seed, poison, at):
    # a = 0 gives t = 0; a wide spread of increments gives rows with s < 0.
    params = ImplicitCirParams(a=a, b=-0.25, c=0.5, y0=y0)
    h = 1.0 / n
    rng = np.random.default_rng(seed)
    incs = np.asfortranarray(rng.standard_normal((rows, n)) * spread * math.sqrt(h))
    if poison:
        # A NaN row in the same step as a row with s < 0: a minimum over
        # the rows would be NaN and hide the negative one.
        incs[0, at % n] = math.nan
        incs[-1, at % n] = -1e3
    rate = np.sqrt
    with np.errstate(all="ignore"):
        got, got_integral = reference._implicit_evolve(params, n, h, incs, rate)
        terminal, none = reference._implicit_evolve(params, n, h, incs)
        for step in (implicit_cir_step, _where_step):
            y = np.full(rows, params.y0)
            integral = np.zeros(rows)
            for i in range(n):
                integral += rate(y) * h
                y = step(y, params, h, incs[:, i])
            assert got.tobytes() == terminal.tobytes() == y.tobytes()
            assert got_integral.tobytes() == integral.tobytes()
    assert none is None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.sampled_from([1, 7, BLOCK_WIDTH, BLOCK_WIDTH + 50]),
       n=st.integers(1, 4), a=st.tuples(*[st.sampled_from([0.0, 1e-3, 0.21875])] * 2),
       negative=st.sampled_from([0, 1]), spread=st.sampled_from([0.5, 8.0]),
       seed=st.integers(0, 2 ** 32 - 1), poison=st.booleans(), at=st.integers(0, 3))
def test_stacked_stepping_has_the_bits_of_each_factor_stepped_alone(
        rows, n, a, negative, spread, seed, poison, at):
    # One call over both factors' rows, with per-row coefficients, against
    # each factor stepped alone with scalar ones.  Only factor `negative`
    # has rows with s < 0: its increments are wide and one is -1e3, while
    # the other's are tiny against y0 = 1.  a = 0 gives t = 0.
    params = [ImplicitCirParams(a=a[0], b=-0.25, c=0.5, y0=0.01),
              ImplicitCirParams(a=a[1], b=-1.0, c=0.125, y0=1.0)]
    params[1 - negative] = dataclasses.replace(params[1 - negative], y0=1.0)
    h = 1.0 / n
    rng = np.random.default_rng(seed)
    incs = [rng.standard_normal((rows, n)) * math.sqrt(h) * scale
            for scale in ((spread, 1e-3) if negative == 0 else (1e-3, spread))]
    incs[negative][-1, at % n] = -1e3
    if poison:
        # A NaN row of the other factor in the same step: a minimum over
        # the rows would be NaN and hide the negative one.
        incs[1 - negative][0, at % n] = math.nan
    stacked = np.asfortranarray(np.concatenate(incs))
    with np.errstate(all="ignore"):
        got, got_integral = reference._implicit_evolve(params, n, h, stacked, np.sqrt)
        alone = [reference._implicit_evolve(p, n, h, np.asfortranarray(inc), np.sqrt)
                 for p, inc in zip(params, incs)]
    assert got.tobytes() == np.concatenate([y for y, _ in alone]).tobytes()
    assert got_integral.tobytes() == np.concatenate([i for _, i in alone]).tobytes()


_TIGHT = cir_model(1.0, 0.06, 0.04, 0.05)


def _zcb_rate(y, inverse=_TIGHT.lamperti.inverse):
    return inverse(np.maximum(y, 0.0))


def _traced_peak(run) -> int:
    """Traced bytes allocated at the peak of `run()`, beyond those live
    before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scheme, integrand", [
    ("implicit", None), ("implicit", np.square), ("projected", _zcb_rate),
], ids=["terminal", "integral", "projected-zcb"])
def test_implicit_driver_holds_its_buffers_and_no_per_step_temporary(scheme, integrand):
    # The driver's traced peak is the same at every n: its row buffers and
    # the integral, plus the integrand's own values, and no product or
    # operand of a step.  Tiny increments keep every s >= 0.  The projected
    # step holds the state and its rows p, d and s, and its zcb integral's
    # terms are made in row s; the zcb rate makes two values (np.maximum,
    # then the inverse map's square).
    params = ImplicitCirParams.from_cir(1.0, 0.06, 0.04, 0.05)
    plan = manual_plan(_TIGHT.transformed, k=0.25, scale_lo=0.01)
    rng = np.random.default_rng(3)
    row = BLOCK_WIDTH * 8
    peaks = []
    for n in (4, 64):
        incs = np.asfortranarray(rng.standard_normal((BLOCK_WIDTH, n)) * 1e-3 / n)
        if scheme == "implicit":
            peaks.append(_traced_peak(lambda: reference._implicit_evolve(
                params, n, 1.0 / n, incs, integrand)))
        else:
            peaks.append(_traced_peak(lambda: _evolve(
                _TIGHT.transformed, plan, n, 1.0 / n, incs, integrand)))
    assert peaks[1] <= peaks[0] + 1024, peaks
    if scheme == "implicit":
        buffers = 3 if integrand is None else 5
    else:
        buffers = 4 + 1 + 2
    assert peaks[1] <= buffers * row + 4096, peaks


@pytest.mark.parametrize("integrand", [None, np.square], ids=["terminal", "integral"])
def test_implicit_driver_writes_the_s_below_zero_rows_in_place(integrand):
    # The boundary model of `test_implicit_users_give_the_where_formula_reports`
    # (2 kappa theta / xi^2 = 1.02) meets rows with s < 0 in most steps.
    # They are written in place through the driver's bool row, so the peak
    # is the one of tiny increments, where every s >= 0, and stays within
    # the bound of the test above plus that bool row.
    edge = ImplicitCirParams.from_model(cir_model(1.0, 0.01, 0.14, 1e-4).transformed)
    rng = np.random.default_rng(5)
    n, h = 64, 1.0 / 64
    wide = np.asfortranarray(rng.standard_normal((BLOCK_WIDTH, n)) * math.sqrt(h))
    y, negative = np.full(BLOCK_WIDTH, edge.y0), 0
    for i in range(n):
        negative += bool(np.any(y + edge.c * wide[:, i] < 0.0))
        y = implicit_cir_step(y, edge, h, wide[:, i])
    assert negative > n // 2
    peaks = [_traced_peak(lambda: reference._implicit_evolve(edge, n, h, incs, integrand))
             for incs in (wide * 1e-6, wide)]
    assert peaks[1] <= peaks[0] + 1024, peaks
    buffers = 3 if integrand is None else 5
    assert peaks[1] <= buffers * BLOCK_WIDTH * 8 + BLOCK_WIDTH + 4096, peaks


def test_path_and_terminal_agree():
    p = ImplicitCirParams.from_cir(0.5, 1.0, 0.5, 1.0)
    h = 1.0 / 32.0
    incs = blocks.Stream(BrownianFabric(19), 5, 32, h).draw([(0, 0, 8)])
    terminal = implicit_cir_terminal(p, h, incs)
    for j in range(8):
        path = implicit_path(p, h, incs[j])
        assert path.shape == (33,)
        assert path[0] == p.y0
        assert terminal[j] == path[-1]
    y = p.y0
    for i in range(32):
        y = implicit_cir_step(y, p, h, incs[0, i])
    assert y == terminal[0]


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
    incs = blocks.Stream(BrownianFabric(61), 3, 33, 0.125).draw([(0, 0, 50)])
    assert incs.flags.f_contiguous
    for terms in (incs, np.ascontiguousarray(incs), incs[7:], incs[0], incs[:1]):
        reference = np.zeros(terms.shape[:-1] + (terms.shape[-1] + 1,))
        np.cumsum(terms, axis=-1, out=reference[..., 1:])
        assert np.array_equal(running_sum(terms), reference)
    assert running_sum(incs).flags.f_contiguous


def test_gl_exact_layout_independent():
    times = np.linspace(0.0, 1.0, 65)
    incs = blocks.Stream(BrownianFabric(67), 4, 64, 1.0 / 64).draw([(0, 0, 40)])
    w = running_sum(incs)
    column_major = ginzburg_landau_exact(0.5, 1.0, 1.0, times, w)
    assert np.array_equal(column_major,
                          ginzburg_landau_exact(0.5, 1.0, 1.0, times,
                                                np.ascontiguousarray(w)))


@pytest.mark.parametrize("lam, sigma, x0, horizon", [
    (0.5, 1.0, 1.0, 1.0),
    (0.0, 7.0, 1.0, 3.0),     # criterion 3's explosive parameters
    (-0.3, 0.2, 2.0, 1.5),
    (0.5, 0.0, 1.0, 1.0),     # no noise: `gl_exact_price`'s exact price
])
def test_gl_terminal_matches_full_solution(lam, sigma, x0, horizon):
    n = 256
    incs = blocks.Stream(BrownianFabric(79), 8, n, horizon / n).draw([(0, 0, 300)])
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
