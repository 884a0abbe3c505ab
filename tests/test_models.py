from __future__ import annotations

import math

import numpy as np
import pytest

from sdeproj.errors import DomainError, FellerViolation, RateUnavailable
from sdeproj.models import (LampertiMap, ModelTriple, RateTable, RawModel,
                            SmoothCoefficient, TransformedModel,
                            ait_sahalia_model, cir_model,
                            ginzburg_landau_model, guaranteed_rate,
                            locally_smooth_model, three_halves_model)


def const_coeff(value):
    return SmoothCoefficient(fn=lambda x: value + 0.0 * x,
                             deriv=lambda x: 0.0 * x,
                             second=lambda x: 0.0 * x)


def test_cir_transformed_coefficients():
    t = cir_model(0.5, 1.0, 0.5, 1.0).transformed
    assert t.meta["omega"] == 4.0
    assert t.meta["drift_a"] == 0.21875
    assert t.meta["drift_b"] == -0.25
    assert t.gamma_const == 0.25
    assert t.gamma is None
    assert (t.alpha, t.beta) == (0.0, 2.0)
    assert t.one_sided_k == 0.0
    assert t.local_lipschitz_k == 0.25
    assert t.y0 == 1.0
    assert t.f(1.0) == 0.21875 - 0.25
    assert t.f(2.0) == 0.21875 / 2.0 - 0.5
    assert t.f_prime(1.0) == -0.21875 - 0.25
    assert t.f_double_prime(1.0) == 0.4375


def test_cir_regularity_bands():
    assert cir_model(0.5, 1.0, 0.5, 1.0).transformed.regularity == "Hy2"
    assert cir_model(0.5, 1.0, 0.5, 1.0).transformed.q == 7.0
    t = cir_model(0.375, 1.0, 0.5, 1.0).transformed
    assert t.meta["omega"] == 3.0
    assert t.regularity == "Hy1"
    assert t.q == 5.0
    t = cir_model(2.0, 1.0, 0.5, 1.0).transformed
    assert t.meta["omega"] == 16.0
    assert t.regularity == "Hy2-const-diffusion"
    assert t.q == 21.0
    assert t.q_prime == 3.0


def test_cir_q_override_band():
    t = cir_model(0.5, 1.0, 0.5, 1.0, q=6.0).transformed
    assert t.regularity == "Hy2"
    assert t.q == 6.0
    for bad in (4.0, 8.0, 3.0):
        with pytest.raises(DomainError):
            cir_model(0.5, 1.0, 0.5, 1.0, q=bad)
    with pytest.raises(DomainError):
        cir_model(0.5, 1.0, 0.5, 1.0, q_prime=2.0)
    # omega > 5 and q > 10 upgrades to the constant-diffusion regime
    assert cir_model(2.0, 1.0, 0.5, 1.0, q=12.0).transformed.regularity \
        == "Hy2-const-diffusion"
    assert cir_model(2.0, 1.0, 0.5, 1.0, q=9.0).transformed.regularity == "Hy2"


def test_cir_validation():
    with pytest.raises(FellerViolation):
        cir_model(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(FellerViolation):
        cir_model(0.5, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        cir_model(0.0, 1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        cir_model(0.5, 1.0, 0.5, 0.0)


def test_cir_raw_and_lamperti():
    raw, t, lam = cir_model(0.5, 1.0, 0.5, 1.0)
    assert raw.mu(1.0) == 0.0
    assert raw.mu(3.0) == -1.0
    assert raw.sigma(4.0) == 1.0
    assert lam.forward(9.0) == 3.0
    assert lam.inverse(3.0) == 9.0
    assert t.y0 == lam.forward(raw.x0)


def test_three_halves_coefficients():
    raw, t, lam = three_halves_model(1.0, 1.0, 1.0, 1.0)
    assert t.meta["omega"] == 4.0
    assert t.meta["drift_a"] == 0.875
    assert t.meta["drift_b"] == -0.5
    assert t.gamma_const == -0.5
    assert t.regularity == "Hy2"
    assert lam.forward(4.0) == 0.5
    assert lam.inverse(0.5) == 4.0
    assert raw.mu(2.0) == -2.0
    assert raw.sigma(4.0) == 8.0
    assert t.y0 == 1.0
    with pytest.raises(DomainError):
        three_halves_model(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        three_halves_model(1.0, 1.0, 1.0, -1.0)


def test_ait_sahalia_outside_gate():
    t = ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0).transformed
    assert (t.alpha, t.beta) == (4.0, 2.0)
    assert t.gamma_const == -0.5
    assert t.meta["rate_available"] is False
    assert t.regularity is None
    assert t.q is None and t.q_prime is None
    assert t.f(1.0) == 0.375
    with pytest.raises(RateUnavailable):
        guaranteed_rate(t)


def test_ait_sahalia_inside_gate():
    t = ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.5, 1.0).transformed
    assert (t.alpha, t.beta) == (4.0, 4.0)
    assert t.meta["rate_available"] is True
    assert t.regularity == "Hy2-const-diffusion"
    assert t.q == 23.0
    assert t.q_prime == 27.0
    table = guaranteed_rate(t)
    assert table == RateTable(1.0, None, 1.0, None, source=table.source)
    with pytest.raises(DomainError):
        ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.5, 1.0, q=22.0)
    with pytest.raises(DomainError):
        ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.5, 1.0, q_prime=26.0)


def test_ait_sahalia_validation():
    with pytest.raises(DomainError):
        ait_sahalia_model(0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0)
    with pytest.raises(DomainError):
        ait_sahalia_model(1.0, -1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0)
    with pytest.raises(DomainError):
        ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 0.0, 2.0, 1.5, 1.0)
    with pytest.raises(DomainError):
        ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.0)
    with pytest.raises(DomainError):
        ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 0.0)


def test_ait_sahalia_lamperti_is_decreasing_power():
    _, t, lam = ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 4.0)
    assert lam.forward(4.0) == 0.5
    assert lam.inverse(0.5) == 4.0
    assert t.y0 == 0.5


def test_ginzburg_landau_coefficients():
    raw, t, lam = ginzburg_landau_model(0.5, 1.0, 1.0)
    assert t.f(1.0) == 0.0
    assert t.one_sided_k == 1.0
    assert t.meta["full_line"] is True
    assert t.meta["identity_transform"] is True
    assert (t.alpha, t.beta) == (2.0, 0.0)
    assert t.regularity == "Hy2"
    assert t.gamma_const is None
    assert t.gamma(2.0) == 2.0
    assert lam.forward(1.5) == 1.5 and lam.inverse(1.5) == 1.5
    t7 = ginzburg_landau_model(0.0, 7.0, 1.0).transformed
    assert t7.f(2.0) == -8.0 + 24.5 * 2.0
    assert t7.one_sided_k == 24.5
    with pytest.raises(DomainError):
        ginzburg_landau_model(0.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        ginzburg_landau_model(0.5, 1.0, 0.0)


def _ait_sahalia_terms(a_minus1, a0, a1, a2, gamma, varrho, rho):
    """The model and its transformed drift as a sum of power terms."""
    def terms(y):
        return (1.0 - rho) * (a_minus1 * y ** ((1.0 + rho) / (rho - 1.0))
                              - a0 * y ** (rho / (rho - 1.0)) + a1 * y
                              - a2 * y ** ((varrho - rho) / (1.0 - rho))
                              - 0.5 * rho * gamma * gamma / y)
    return ait_sahalia_model(a_minus1, a0, a1, a2, gamma, varrho, rho, 1.0), terms


@pytest.mark.parametrize("triple, terms", [
    # criterion 4: u = y * y, and the a2 and Ito terms merge (e3 = -1)
    _ait_sahalia_terms(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5),
    _ait_sahalia_terms(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.5),  # e3 = -3: apart
    _ait_sahalia_terms(0.7, 0.3, 0.9, 1.3, 0.8, 2.5, 1.7),  # u = y ** (1/0.7)
    (ginzburg_landau_model(0.5, 1.0, 1.0), lambda y: -y ** 3 + 1.0 * y),
    (ginzburg_landau_model(0.0, 7.0, 1.0), lambda y: -y ** 3 + 24.5 * y),
], ids=["as-criterion-4", "as-e3=-3", "as-fractional-s", "gl-c=1", "gl-c=24.5"])
def test_nested_drift_matches_the_power_formula(triple, terms):
    f = triple.transformed.f
    ys = np.logspace(-3, 1)
    np.testing.assert_allclose(f(ys), terms(ys), rtol=1e-13)
    assert type(f(0.5)) is float
    assert f(0.5) == pytest.approx(terms(0.5), rel=1e-13)


def test_gamma_bar_clamps_to_nonnegative_states():
    gl = ginzburg_landau_model(0.5, 2.0, 1.0).transformed
    assert gl.gamma_bar(-3.0) == 0.0
    assert gl.gamma_bar(1.5) == 3.0
    cir = cir_model(0.5, 1.0, 0.5, 1.0).transformed
    assert cir.gamma_bar(-10.0) == 0.25
    assert cir.gamma_bar(10.0) == 0.25


def test_locally_smooth_transform():
    triple = locally_smooth_model(const_coeff(4.0), const_coeff(1.0),
                                  2.0, 0.5, 1.0, regime="Hs2")
    lam = triple.lamperti
    assert lam.forward(4.0) == 2.0 * math.sqrt(4.0) / 2.0
    np.testing.assert_allclose(lam.inverse(lam.forward(0.7)), 0.7, rtol=1e-13)
    t = locally_smooth_model(const_coeff(1.0), const_coeff(1.0),
                             1.0, 0.75, 1.0, regime="Hs1").transformed
    assert (t.alpha, t.beta) == (4.0, 4.0)
    assert t.regularity == "Hy2-const-diffusion"
    assert t.q == 23.0 and t.q_prime == 27.0
    assert t.gamma_const == 1.0


def test_locally_smooth_matches_cir_after_scaling():
    kappa, theta, xi = 0.5, 1.0, 0.5
    cir = cir_model(kappa, theta, xi, 1.0)
    ls = locally_smooth_model(const_coeff(kappa * theta), const_coeff(kappa),
                              xi, 0.5, 1.0, regime="Hs2")
    assert ls.transformed.meta["omega"] == cir.transformed.meta["omega"]
    s = 2.0 / xi
    xs = np.logspace(-2, 2, 50)
    lhs = ls.transformed.f(s * np.sqrt(xs))
    rhs = s * cir.transformed.f(np.sqrt(xs))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)
    assert ls.transformed.y0 == s * cir.transformed.y0
    np.testing.assert_allclose(ls.raw.mu(xs), cir.raw.mu(xs), rtol=1e-13)


def test_locally_smooth_validation():
    good = dict(gamma=1.0, nu=0.75, x0=1.0)
    with pytest.raises(DomainError):
        locally_smooth_model(const_coeff(1.0), const_coeff(1.0), 1.0, 0.4, 1.0)
    with pytest.raises(DomainError):
        locally_smooth_model(const_coeff(1.0), const_coeff(1.0), 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        locally_smooth_model(const_coeff(1.0), const_coeff(1.0), 0.0, 0.75, 1.0)
    with pytest.raises(DomainError):
        locally_smooth_model(const_coeff(1.0), const_coeff(1.0), 1.0, 0.75, 0.0)
    with pytest.raises(DomainError):
        locally_smooth_model(const_coeff(1.0), const_coeff(1.0), **good,
                             regime="Hs3")
    with pytest.raises(DomainError):
        locally_smooth_model(const_coeff(1.0), const_coeff(1.0), 1.0, 0.5, 1.0,
                             regime="Hs1")
    with pytest.raises(DomainError):
        locally_smooth_model(const_coeff(0.0), const_coeff(1.0), **good,
                             regime="Hs1")
    with pytest.raises(DomainError):
        locally_smooth_model(const_coeff(1.0), const_coeff(1.0), **good,
                             uniform_bounds=True)
    with pytest.raises(DomainError):
        locally_smooth_model(const_coeff(1.0), const_coeff(1.0), 1.0, 0.6, 1.0,
                             regime="Hs2")
    with pytest.raises(FellerViolation):
        locally_smooth_model(const_coeff(0.4), const_coeff(1.0), 1.0, 0.5, 1.0,
                             regime="Hs2")
    # omega = 4 admits q only inside (4, 6)
    with pytest.raises(DomainError):
        locally_smooth_model(const_coeff(2.0), const_coeff(1.0), 1.0, 0.5, 1.0,
                             regime="Hs2", q=6.5)
    with pytest.raises(DomainError):
        locally_smooth_model(const_coeff(2.0), const_coeff(1.0), 1.0, 0.5, 1.0,
                             regime="Hs2", q=4.0)


def test_lamperti_roundtrip_all_families():
    xs = np.logspace(-3, 3, 201)
    triples = [cir_model(0.5, 1.0, 0.5, 1.0),
               three_halves_model(1.0, 1.0, 1.0, 1.0),
               ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0),
               ginzburg_landau_model(0.5, 1.0, 1.0),
               locally_smooth_model(const_coeff(1.0), const_coeff(1.0),
                                    1.0, 0.75, 1.0)]
    for triple in triples:
        lam = triple.lamperti
        np.testing.assert_allclose(lam.inverse(lam.forward(xs)), xs, rtol=1e-12)
        assert triple.transformed.y0 == pytest.approx(
            float(lam.forward(triple.raw.x0)), rel=1e-14)


def _sample_pairs(rng, lo=1e-3, hi=1e3, count=1000):
    u = rng.uniform(math.log(lo), math.log(hi), size=(2, count))
    return np.exp(u[0]), np.exp(u[1])


@pytest.mark.parametrize("transformed", [
    cir_model(0.5, 1.0, 0.5, 1.0).transformed,
    three_halves_model(1.0, 1.0, 1.0, 1.0).transformed,
    ait_sahalia_model(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0).transformed,
    locally_smooth_model(const_coeff(1.0), const_coeff(1.0),
                         1.0, 0.75, 1.0).transformed,
], ids=["cir", "three-halves", "ait-sahalia", "locally-smooth"])
def test_sampled_drift_moduli(transformed):
    rng = np.random.default_rng(12345)
    x, y = _sample_pairs(rng)
    fx, fy = transformed.f(x), transformed.f(y)
    d = x - y
    lhs = d * (fx - fy)
    slack = 1e-9 * (1.0 + np.abs(fx) + np.abs(fy)) * np.abs(d) + 1e-15
    assert np.all(lhs <= transformed.one_sided_k * d * d + slack)
    envelope = (1.0 + x ** transformed.alpha + y ** transformed.alpha
                + x ** -transformed.beta + y ** -transformed.beta)
    bound = transformed.local_lipschitz_k * envelope * np.abs(d)
    assert np.all(np.abs(fx - fy) <= bound + slack)


def test_sampled_drift_moduli_full_line():
    t = ginzburg_landau_model(0.5, 1.0, 1.0).transformed
    rng = np.random.default_rng(54321)
    x = rng.uniform(-50.0, 50.0, 1000)
    y = rng.uniform(-50.0, 50.0, 1000)
    fx, fy = t.f(x), t.f(y)
    d = x - y
    lhs = d * (fx - fy)
    slack = 1e-9 * (1.0 + np.abs(fx) + np.abs(fy)) * np.abs(d) + 1e-15
    assert np.all(lhs <= t.one_sided_k * d * d + slack)
    envelope = 3.0 + np.abs(x) ** 2 + np.abs(y) ** 2
    assert np.all(np.abs(fx - fy)
                  <= t.local_lipschitz_k * envelope * np.abs(d) + slack)


def _cir_with_omega(omega):
    return cir_model(omega / 2.0, 1.0, 1.0, 1.0).transformed


def _three_halves_with_omega(omega):
    return three_halves_model((omega - 2.0) / 2.0, 1.0, 1.0, 1.0).transformed


def test_square_root_rate_bands_exact():
    with pytest.raises(RateUnavailable):
        guaranteed_rate(_cir_with_omega(2.0))
    for omega in (2.0 + 1e-6, 3.0):
        t = _cir_with_omega(omega)
        table = guaranteed_rate(t)
        expected = (1.0 / 6.0, 0.5 - 1.0 / (t.meta["omega"] + 1.0))
        assert table.y_rate is None
        assert table.y_interval == expected
        assert table.x_rate is None
        assert table.x_interval == expected
        th = guaranteed_rate(_three_halves_with_omega(omega))
        assert th.y_interval == expected
        assert th.x_rate is None and th.x_interval is None
    for omega in (3.0 + 1e-6, 5.0):
        assert guaranteed_rate(_cir_with_omega(omega)) == RateTable(
            0.5, None, 0.5, None,
            source="cir: square-root band 3 < omega <= 5")
        table = guaranteed_rate(_three_halves_with_omega(omega))
        assert (table.y_rate, table.x_rate) == (0.5, 0.25)
    for omega in (5.0 + 1e-6, 16.0):
        table = guaranteed_rate(_cir_with_omega(omega))
        assert (table.y_rate, table.y_interval) == (1.0, None)
        assert (table.x_rate, table.x_interval) == (1.0, None)
        table = guaranteed_rate(_three_halves_with_omega(omega))
        assert (table.y_rate, table.x_rate) == (1.0, 1.0)


def _hs2(omega, **kw):
    return locally_smooth_model(const_coeff(omega / 2.0), const_coeff(1.0),
                                1.0, 0.5, 1.0, regime="Hs2", **kw).transformed


def test_locally_smooth_rate_bands_exact():
    table = guaranteed_rate(locally_smooth_model(
        const_coeff(1.0), const_coeff(1.0), 1.0, 0.75, 1.0).transformed)
    assert table == RateTable(1.0, None, None, None, source=table.source)

    with pytest.raises(RateUnavailable):
        guaranteed_rate(_hs2(3.0))
    for omega in (3.0 + 1e-6, 4.0):
        t = _hs2(omega)
        table = guaranteed_rate(t)
        expected = (1.0 / 6.0, 0.5 - 1.0 / t.meta["omega"])
        assert table.y_interval == expected
        assert table.x_interval == expected
        assert table.y_rate is None and table.x_rate is None
    for omega in (4.0 + 1e-6, 6.0):
        table = guaranteed_rate(_hs2(omega))
        assert (table.y_rate, table.x_rate) == (0.5, 0.5)
    table = guaranteed_rate(_hs2(6.0 + 1e-6))
    assert (table.y_rate, table.x_rate) == (1.0, 1.0)

    with pytest.raises(RateUnavailable):
        guaranteed_rate(_hs2(3.0, uniform_bounds=True))
    for omega in (3.0 + 1e-6, 5.0):
        table = guaranteed_rate(_hs2(omega, uniform_bounds=True))
        assert (table.y_rate, table.x_rate) == (0.5, 0.5)
    table = guaranteed_rate(_hs2(5.0 + 1e-6, uniform_bounds=True))
    assert (table.y_rate, table.x_rate) == (1.0, 1.0)


def test_guaranteed_rate_unknown_family():
    t = TransformedModel(name="mystery", f=lambda y: -y, gamma=None,
                         gamma_const=1.0, f_prime=None, f_double_prime=None,
                         one_sided_k=0.0, local_lipschitz_k=1.0, alpha=0.0,
                         beta=0.0, q=None, q_prime=None, regularity=None,
                         y0=1.0, meta={"family": "mystery"})
    with pytest.raises(RateUnavailable):
        guaranteed_rate(t)


def test_transformed_model_validation():
    base = dict(name="t", f=lambda y: -y, gamma=None, gamma_const=1.0,
                f_prime=None, f_double_prime=None, one_sided_k=0.0,
                local_lipschitz_k=1.0, alpha=0.0, beta=0.0, q=4.0,
                q_prime=4.0, regularity="Hy2", y0=0.0)
    TransformedModel(**base)
    with pytest.raises(DomainError):
        TransformedModel(**{**base, "gamma": lambda y: y})
    with pytest.raises(DomainError):
        TransformedModel(**{**base, "gamma_const": None})
    with pytest.raises(DomainError):
        TransformedModel(**{**base, "alpha": -1.0})
    with pytest.raises(DomainError):
        TransformedModel(**{**base, "one_sided_k": -1.0})
    with pytest.raises(DomainError):
        TransformedModel(**{**base, "local_lipschitz_k": 0.0})
    with pytest.raises(DomainError):
        TransformedModel(**{**base, "y0": math.inf})
    with pytest.raises(DomainError):
        TransformedModel(**{**base, "regularity": "bogus"})
    with pytest.raises(DomainError):
        TransformedModel(**{**base, "q": None})
    with pytest.raises(DomainError):
        TransformedModel(**{**base, "q_prime": 2.0})
    with pytest.raises(DomainError):
        TransformedModel(**{**base, "regularity": "Hy2-const-diffusion"})


def test_raw_model_domain_check():
    with pytest.raises(DomainError):
        RawModel(mu=lambda x: x, sigma=lambda x: x, domain=(0.0, 1.0), x0=2.0)
