"""Scalar SDE families with polynomially growing coefficients.

Each constructor returns a `ModelTriple`: the model in its original
coordinates (`RawModel`), the transform that makes the diffusion tame
(`LampertiMap`), and the transformed dynamics (`TransformedModel`) that the
projected Euler scheme actually simulates.  The transformed drift f blows up
near 0 and/or grows polynomially at infinity; the pair of growth exponents
(alpha at infinity, beta at zero) is what the projection plan consumes.

`guaranteed_rate` reports the strong convergence order proved for the
family's parameter regime, as a point value or an open interval, in both the
transformed and the original coordinates.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, FellerViolation, RateUnavailable

_REGULARITY_CLASSES = ("Hy1", "Hy2", "Hy2-const-diffusion")


@dataclass(frozen=True)
class RawModel:
    """SDE dX = mu(X) dt + sigma(X) dW in original coordinates."""

    mu: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float]
    x0: float

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < self.x0 < hi:
            raise DomainError(f"x0 = {self.x0} outside domain ({lo}, {hi})")


@dataclass(frozen=True)
class LampertiMap:
    """Coordinate change y = forward(x) and its inverse."""

    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SmoothCoefficient:
    """A scalar coefficient function bundled with its derivatives."""

    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    second: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class TransformedModel:
    """Dynamics dY = f(Y) dt + gamma(Y) dW after the coordinate change.

    Attributes:
        f: drift, defined on (0, inf) for transformed families and on all of
            R for identity-transform families.  The families' drifts are
            `f(y, out=None, s=None)`: with no rows they allocate, for
            scalars, oracles and grids; the batch stepper hands them an
            output row `out` and a scratch row `s` of y's shape, and they
            return the drift, written into `out` with the same bits.  In
            that form every + - * / constant is a 0-d float64 array, so no
            ufunc call converts a Python float, while `**` exponents stay
            floats: a 0-d exponent would send a float base through numpy's
            SIMD `pow` loop instead of C `pow`.  A drift of one argument
            (a model of your own) allocates at every step.
        gamma: diffusion coefficient; None when it is a constant.  The
            families' are `gamma(y, out=None)`, writing into `out` like f.
        gamma_const: constant diffusion value; None when state dependent.
        f_prime, f_double_prime: drift derivatives when available.
        one_sided_k: smallest K >= 0 with (x - y)(f(x) - f(y)) <= K (x - y)^2.
        local_lipschitz_k: modulus K in the local Lipschitz bound
            |f(x) - f(y)| <= K (1 + |x|^a + |y|^a + |x|^-b + |y|^-b)|x - y|.
        alpha: drift growth exponent at infinity.
        beta: drift blow-up exponent at zero.
        q: inverse-moment exponent available for the lower threshold.
        q_prime: positive-moment exponent available for the upper threshold.
        regularity: proved regime label ("Hy1", "Hy2", "Hy2-const-diffusion")
            or None when no regime is claimed and explicit projection
            exponents must be supplied by the caller.
        y0: initial state in transformed coordinates.
        meta: family name, original parameters and derived diagnostics.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    gamma: Callable[[np.ndarray], np.ndarray] | None
    gamma_const: float | None
    f_prime: Callable[[np.ndarray], np.ndarray] | None
    f_double_prime: Callable[[np.ndarray], np.ndarray] | None
    one_sided_k: float
    local_lipschitz_k: float
    alpha: float
    beta: float
    q: float | None
    q_prime: float | None
    regularity: str | None
    y0: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise DomainError("growth exponents must be nonnegative")
        if self.one_sided_k < 0:
            raise DomainError("one_sided_k must be nonnegative")
        if self.local_lipschitz_k <= 0:
            raise DomainError("local_lipschitz_k must be positive")
        if (self.gamma is None) == (self.gamma_const is None):
            raise DomainError("exactly one of gamma / gamma_const is required")
        if not math.isfinite(self.y0):
            raise DomainError("y0 must be finite")
        # The upper thresholds divide by q' - 2 (`projection`).
        if self.q_prime is not None and self.q_prime <= 2.0:
            raise DomainError("q' must exceed 2")
        if self.regularity is not None:
            if self.regularity not in _REGULARITY_CLASSES:
                raise DomainError(f"unknown regularity class {self.regularity!r}")
            if self.q is None or self.q <= 2.0 * self.beta:
                raise DomainError("claimed regularity requires q > 2*beta")
            if self.q_prime is None or self.q_prime <= 2.0 * (self.alpha + 1.0):
                raise DomainError("claimed regularity requires q' > 2*(alpha + 1)")
        if self.regularity == "Hy2-const-diffusion":
            if self.gamma_const is None:
                raise DomainError("Hy2-const-diffusion requires a constant diffusion")
            if self.f_prime is None or self.f_double_prime is None:
                raise DomainError("Hy2-const-diffusion requires f' and f''")

    def gamma_bar(self, y: np.ndarray | float) -> np.ndarray | float:
        """Diffusion evaluated through the clamp onto [0, inf)."""
        if self.gamma_const is not None:
            return self.gamma_const
        return self.gamma(np.maximum(y, 0.0))


class ModelTriple(NamedTuple):
    raw: RawModel
    transformed: TransformedModel
    lamperti: LampertiMap


@dataclass(frozen=True)
class RateTable:
    """Proved strong convergence orders for a model's parameter regime.

    Point rates are exact guaranteed orders; interval entries mean the order
    can be taken anywhere in the open interval.  `x_rate`/`x_interval` refer
    to original coordinates and may be absent when no statement is proved
    there.
    """

    y_rate: float | None
    y_interval: tuple[float, float] | None
    x_rate: float | None
    x_interval: tuple[float, float] | None
    source: str


def _grid(lo: float = 1e-3, hi: float = 1e3, points: int = 20001) -> np.ndarray:
    return np.logspace(math.log10(lo), math.log10(hi), points)


# A kernel's arithmetic in its two forms (`TransformedModel.f`): Python's
# operators, which leave scalars their own types and warnings, and ufuncs
# writing into a given row; both take (a, b, out).
_OPERATORS = tuple(lambda a, b, out=None, op=op: op(a, b)
                   for op in (operator.mul, operator.add, operator.sub, operator.truediv))
_UFUNCS = (np.multiply, np.add, np.subtract, np.divide)


def _forms(*constants: float) -> dict:
    """A kernel's operators and + - * / constants, keyed by whether it
    writes into rows: floats for the allocating form, 0-d float64 arrays for
    the in-place one."""
    return {False: (_OPERATORS, constants),
            True: (_UFUNCS, tuple(np.array(c, dtype=float) for c in constants))}


def _power(s: float) -> Callable:
    """(y, out=None) -> y**s, by binary powering into `out` when s is a
    positive integer.

    Products and quotients round the same for a float and an array, while
    `**` calls C `pow` on a float and a per-CPU SIMD loop on an array.
    """
    if not (s >= 1.0 and s.is_integer()):
        return lambda y, out=None: y ** s
    bits = bin(int(s))[3:]

    def power(y, out=None):
        mul = _OPERATORS[0] if out is None else np.multiply
        u = y
        for bit in bits:
            u = mul(u, u, out)
            if bit == "1":
                u = mul(u, y, out)
        return u
    return power


def _numeric_one_sided_k(f_prime: Callable) -> float:
    # Sup of f' over a dense log grid on [1e-3, 1e3] with a safety margin.
    m = float(np.max(f_prime(_grid())))
    return 0.0 if m <= 0.0 else 1.02 * m + 1e-12


def _numeric_local_k(f_prime: Callable, alpha: float, beta: float) -> float:
    xs = _grid()
    envelope = 1.0 + xs ** alpha + xs ** (-beta)
    m = float(np.max(np.abs(f_prime(xs)) / envelope))
    return 1.02 * m + 1e-12


class _Band(NamedTuple):
    """One row of the square-root drift's band table: low < omega <= high."""

    low: float
    high: float
    label: str
    q_offset: float
    y_rate: float | None
    three_halves_x_rate: float | None


# The regime bands of the drift a/y + b*y.  Inverse moments of order ell
# exist exactly for ell < 2*omega; the default q = omega + q_offset sits at
# the midpoint of the admissible range for the row's regime.  A row without
# a y rate states every order in (1/6, 0.5 - 1/(omega + 1)).  The x rate
# equals the y rate except for three-halves, which has its own column.
_SQUARE_ROOT_BANDS = (
    _Band(2.0, 3.0, "Hy1", 2.0, None, None),
    _Band(3.0, 5.0, "Hy2", 3.0, 0.5, 0.25),
    _Band(5.0, math.inf, "Hy2-const-diffusion", 5.0, 1.0, 1.0),
)


def _square_root_band(meta: dict) -> tuple[_Band | None, float, str]:
    """The band row holding a model's omega (None below every row), the
    shift the rows are read with, and the reading's name for source text.

    cir and three-halves read the rows at omega.  Locally-smooth Hs2 has
    inverse moments only below 2*(omega - 1), so it reads them shifted by
    one; with uniform bounds it reads them at omega without the first row,
    as constant coefficients make it CIR rescaled, with the same omega.
    """
    omega, rows, shift = meta["omega"], _SQUARE_ROOT_BANDS, 0.0
    name = f"{meta['family']}: square-root band"
    if meta["family"] == "locally-smooth":
        if meta["uniform_bounds"]:
            rows, name = rows[1:], "locally-smooth Hs2 uniform bounds: band"
        else:
            shift, name = 1.0, "locally-smooth Hs2: band"
    for band in rows:
        if shift + band.low < omega <= shift + band.high:
            return band, shift, name
    return None, shift, name


def _square_root_regime(meta: dict, q: float | None, q_prime: float | None,
                        smooth: bool = True) -> tuple[str | None, float | None, float]:
    """Regime label and moment exponents from the band row at omega.

    An explicit q must lie below the inverse-moment order of the reading.
    The unit-rate row falls back to Hy2 when q <= 10 or the drift has no
    second derivative (`smooth` False).
    """
    band, shift, _ = _square_root_band(meta)
    omega = meta["omega"]
    q_prime = 3.0 if q_prime is None else float(q_prime)
    if q is None:
        if band is None:
            return None, None, q_prime
        q = omega + (band.q_offset - shift)
    else:
        q, top = float(q), 2.0 * (omega - shift)
        if not 4.0 < q < top:
            raise DomainError(f"q must lie in (4, {top}), got {q}")
        if band is None:
            return None, q, q_prime
    if band.label == "Hy2-const-diffusion" and (q <= 10.0 or not smooth):
        return "Hy2", q, q_prime
    return band.label, q, q_prime


def _square_root_model(name: str, a: float, b: float, c: float, y0: float,
                       raw: RawModel, lamperti: LampertiMap, omega: float,
                       q: float | None, q_prime: float | None,
                       meta: dict) -> ModelTriple:
    """Assemble the transformed model for drift f(y) = a/y + b*y."""
    forms = _forms(a, b)

    def f(y, out=None, s=None):
        (mul, add, _, div), (a_, b_) = forms[out is not None]
        return add(div(a_, y, s), mul(b_, y, out), out)

    def f_prime(y):
        return -a / (y * y) + b

    def f_double_prime(y):
        return 2.0 * a / (y * y * y)

    meta = dict(meta, omega=omega, drift_a=a, drift_b=b)
    regularity, q_eff, qp_eff = _square_root_regime(meta, q, q_prime)
    transformed = TransformedModel(
        name=name,
        f=f,
        gamma=None,
        gamma_const=c,
        f_prime=f_prime,
        f_double_prime=f_double_prime,
        # f' = -a/y^2 + b < b, so f is one-sided Lipschitz with max(b, 0);
        # the local modulus max(a/2, |b|) follows from 1/(xy) <= (x^-2 + y^-2)/2.
        one_sided_k=max(b, 0.0),
        local_lipschitz_k=max(a / 2.0, abs(b)),
        alpha=0.0,
        beta=2.0,
        q=q_eff,
        q_prime=qp_eff,
        regularity=regularity,
        y0=y0,
        meta=meta,
    )
    return ModelTriple(raw, transformed, lamperti)


def cir_model(kappa: float, theta: float, xi: float, x0: float, *,
              q: float | None = None, q_prime: float | None = None) -> ModelTriple:
    """Square-root mean-reverting model dX = kappa (theta - X) dt + xi sqrt(X) dW.

    The transform Y = sqrt(X) yields dY = (a/Y + b Y) dt + c dW with
    a = (4 kappa theta - xi^2) / 8, b = -kappa / 2, c = xi / 2.

    Args:
        kappa, theta, xi: positive model parameters.
        x0: positive initial value.
        q, q_prime: optional moment exponents overriding the defaults picked
            from the boundary-classification ratio omega = 2 kappa theta / xi^2.

    Raises:
        FellerViolation: omega <= 1, i.e. the process can reach zero.
        DomainError: nonpositive parameters or exponents out of range.
    """
    if min(kappa, theta, xi) <= 0:
        raise DomainError("kappa, theta, xi must be positive")
    if x0 <= 0:
        raise DomainError("x0 must be positive")
    omega = 2.0 * kappa * theta / (xi * xi)
    if omega <= 1.0:
        raise FellerViolation(
            f"2*kappa*theta/xi^2 = {omega} <= 1: process reaches zero")

    raw = RawModel(
        mu=lambda x: kappa * (theta - x),
        sigma=lambda x: xi * np.sqrt(x),
        domain=(0.0, math.inf),
        x0=x0,
    )
    lamperti = LampertiMap(forward=np.sqrt, inverse=np.square)
    a = (4.0 * kappa * theta - xi * xi) / 8.0
    meta = {"family": "cir", "kappa": kappa, "theta": theta, "xi": xi, "x0": x0}
    return _square_root_model("cir", a, -kappa / 2.0, xi / 2.0, math.sqrt(x0),
                              raw, lamperti, omega, q, q_prime, meta)


def three_halves_model(c1: float, c2: float, c3: float, x0: float, *,
                       q: float | None = None,
                       q_prime: float | None = None) -> ModelTriple:
    """Mean-reverting 3/2 model dX = c1 X (c2 - X) dt + c3 X^(3/2) dW.

    The transform Y = X^(-1/2) gives dY = (a/Y + b Y) dt + c dW with
    a = (4 c1 + 3 c3^2) / 8, b = -c1 c2 / 2, c = -c3 / 2, which is the same
    drift family as the square-root model, with ratio
    omega = 2 + 2 c1 / c3^2 (always above 2).
    """
    if min(c1, c2, c3) <= 0:
        raise DomainError("c1, c2, c3 must be positive")
    if x0 <= 0:
        raise DomainError("x0 must be positive")
    omega = 2.0 + 2.0 * c1 / (c3 * c3)

    raw = RawModel(
        mu=lambda x: c1 * x * (c2 - x),
        sigma=lambda x: c3 * x ** 1.5,
        domain=(0.0, math.inf),
        x0=x0,
    )
    lamperti = LampertiMap(
        forward=lambda x: x ** -0.5,
        inverse=lambda y: y ** -2.0,
    )
    a = (4.0 * c1 + 3.0 * c3 * c3) / 8.0
    meta = {"family": "three-halves", "c1": c1, "c2": c2, "c3": c3, "x0": x0}
    return _square_root_model("three-halves", a, -c1 * c2 / 2.0, -c3 / 2.0,
                              x0 ** -0.5, raw, lamperti, omega, q, q_prime, meta)


def locally_smooth_model(mu1: SmoothCoefficient, mu2: SmoothCoefficient,
                         gamma: float, nu: float, x0: float, *,
                         regime: str = "Hs1", uniform_bounds: bool = False,
                         q: float | None = None,
                         q_prime: float | None = None) -> ModelTriple:
    """Model dX = (mu1(X) - mu2(X) X) dt + gamma X^nu dW with smooth mu1, mu2.

    mu1 and mu2 must be bounded with bounded derivatives.  The transform
    Y = X^(1-nu) / (gamma (1-nu)) produces unit diffusion.

    Args:
        mu1, mu2: coefficient functions with first (and optionally second)
            derivatives.
        gamma: positive diffusion scale.
        nu: diffusion exponent in [1/2, 1).
        x0: positive initial value.
        regime: "Hs1" for nu in (1/2, 1) with mu1(0) > 0, or "Hs2" for the
            square-root boundary nu = 1/2.
        uniform_bounds: Hs2 only; attests inf mu1 > 0 and sup mu2 < inf
            uniformly, which reads the band table at omega, as for CIR,
            without its 2 < omega <= 3 row (see `_square_root_band`).
        q, q_prime: optional moment exponent overrides.

    Raises:
        DomainError: nu outside [1/2, 1), inconsistent regime, or bad scales.
        FellerViolation: Hs2 with 2 mu1(0) / gamma^2 <= 1.
    """
    if not 0.5 <= nu < 1.0:
        raise DomainError(f"nu must lie in [1/2, 1), got {nu}")
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    if x0 <= 0:
        raise DomainError("x0 must be positive")
    if regime not in ("Hs1", "Hs2"):
        raise DomainError(f"regime must be 'Hs1' or 'Hs2', got {regime!r}")

    mu1_zero = float(mu1.fn(0.0))
    omega = None
    if regime == "Hs1":
        if nu == 0.5:
            raise DomainError("regime Hs1 requires nu > 1/2")
        if mu1_zero <= 0:
            raise DomainError("regime Hs1 requires mu1(0) > 0")
        if uniform_bounds:
            raise DomainError("uniform_bounds applies to regime Hs2 only")
        alpha = beta = 1.0 / (1.0 - nu)
    else:
        if nu != 0.5:
            raise DomainError("regime Hs2 requires nu = 1/2")
        omega = 2.0 * mu1_zero / (gamma * gamma)
        if omega <= 1.0:
            raise FellerViolation(
                f"2*mu1(0)/gamma^2 = {omega} <= 1: process reaches zero")
        alpha, beta = 0.0, 2.0

    one_minus = 1.0 - nu
    scale = gamma * one_minus

    def forward(x):
        return x ** one_minus / scale

    def inverse(y):
        return (scale * y) ** (1.0 / one_minus)

    def f(y, out=None, s=None):
        # Allocates with rows too: mu1 and mu2 are the caller's functions.
        x = inverse(y)
        return (mu1.fn(x) - mu2.fn(x) * x) / (gamma * x ** nu) \
            - 0.5 * gamma * nu * x ** (nu - 1.0)

    def f_prime(y):
        x = inverse(y)
        return (mu1.deriv(x) - nu * mu1.fn(x) / x - mu2.deriv(x) * x
                - one_minus * mu2.fn(x)
                + 0.5 * gamma * gamma * nu * one_minus * x ** (2.0 * nu - 2.0))

    f_double = None
    if mu1.second is not None and mu2.second is not None:
        def f_double(y):
            x = inverse(y)
            return gamma * x ** nu * (
                mu1.second(x) - mu2.second(x) * x
                - (2.0 - nu) * mu2.deriv(x)
                - nu * mu1.deriv(x) / x + nu * mu1.fn(x) / (x * x)
                - gamma ** 2 * nu * one_minus ** 2 * x ** (2.0 * nu - 3.0))

    raw = RawModel(
        mu=lambda x: mu1.fn(x) - mu2.fn(x) * x,
        sigma=lambda x: gamma * x ** nu,
        domain=(0.0, math.inf),
        x0=x0,
    )
    meta = {"family": "locally-smooth", "regime": regime, "nu": nu,
            "gamma": gamma, "x0": x0, "omega": omega,
            "uniform_bounds": uniform_bounds}
    if regime == "Hs1":
        q_eff = float(q) if q is not None else 6.0 * beta - 1.0
        qp_eff = float(q_prime) if q_prime is not None else 6.0 * alpha + 3.0
        regularity = "Hy2-const-diffusion" if f_double is not None else "Hy2"
    else:
        regularity, q_eff, qp_eff = _square_root_regime(
            meta, q, q_prime, smooth=f_double is not None)
    transformed = TransformedModel(
        name="locally-smooth",
        f=f,
        gamma=None,
        gamma_const=1.0,
        f_prime=f_prime,
        f_double_prime=f_double,
        one_sided_k=_numeric_one_sided_k(f_prime),
        local_lipschitz_k=_numeric_local_k(f_prime, alpha, beta),
        alpha=alpha,
        beta=beta,
        q=q_eff,
        q_prime=qp_eff,
        regularity=regularity,
        y0=forward(x0),
        meta=meta,
    )
    return ModelTriple(raw, transformed, LampertiMap(forward, inverse))


def ait_sahalia_model(a_minus1: float, a0: float, a1: float, a2: float,
                      gamma: float, varrho: float, rho: float, x0: float, *,
                      q: float | None = None,
                      q_prime: float | None = None) -> ModelTriple:
    """Interest-rate model with polynomial mean reversion and superlinear noise.

    dX = (a_minus1 / X - a0 + a1 X - a2 X^varrho) dt + gamma X^rho dW with
    varrho, rho > 1.  The transform Y = X^(1-rho) is decreasing and yields a
    constant diffusion (1-rho) gamma and growth exponents
    alpha = 2/(rho - 1), beta = (varrho - 1)/(rho - 1).

    A guaranteed rate is only proved when varrho + 1 > 2 rho (strict); when
    the inequality fails the model still constructs and simulates, but
    `meta["rate_available"]` is False, no regularity regime is claimed, and
    projection exponents must be supplied explicitly.
    """
    if a_minus1 <= 0 or a2 <= 0:
        raise DomainError("a_minus1 and a2 must be positive")
    if a0 < 0 or a1 < 0:
        raise DomainError("a0 and a1 must be nonnegative")
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    if varrho <= 1 or rho <= 1:
        raise DomainError("varrho and rho must exceed 1")
    if x0 <= 0:
        raise DomainError("x0 must be positive")

    alpha = 2.0 / (rho - 1.0)
    beta = (varrho - 1.0) / (rho - 1.0)
    gate = varrho + 1.0 > 2.0 * rho
    pref = 1.0 - rho
    e3 = (varrho - rho) / (1.0 - rho)
    half_rg2 = 0.5 * rho * gamma * gamma
    # The exponents 1 + 2s and 1 + s of a_minus1 and a0 share u = y**s, so
    # the polynomial part nests around it.
    power = _power(1.0 / (rho - 1.0))
    if e3 == -1.0:
        # varrho + 1 == 2 rho: the a2 term and the Ito term are both 1/y.
        forms = _forms(a_minus1, a0, a1, pref, a2 + half_rg2)

        def tail(y, s, ops, merged):
            return ops[3](merged, y, s)
    else:
        forms = _forms(a_minus1, a0, a1, pref, a2, half_rg2)

        def tail(y, s, ops, a2_, half_):
            mul, add, _, div = ops
            # The power is a new value either way, so a2 scales it in place.
            power_e3 = y ** e3
            return add(mul(a2_, power_e3, power_e3), div(half_, y, s), s)

    def f(y, out=None, s=None):
        ops, (am1, a0_, a1_, pref_, *rest) = forms[out is not None]
        mul, add, sub, _ = ops
        u = power(y, s)
        inner = mul(y, add(a1_, mul(u, sub(mul(am1, u, out), a0_, out), out), out), out)
        # u is spent, so the tail may take its row.
        return mul(pref_, sub(inner, tail(y, s, ops, *rest), out), out)

    def f_prime(y):
        return (-a_minus1 * (1.0 + rho) * y ** alpha
                + a0 * rho * y ** (1.0 / (rho - 1.0))
                + a1 * (1.0 - rho)
                - a2 * (varrho - rho) * y ** (-beta)
                - half_rg2 * (rho - 1.0) / (y * y))

    def f_double_prime(y):
        return (-2.0 * a_minus1 * (rho + 1.0) / (rho - 1.0)
                * y ** ((3.0 - rho) / (rho - 1.0))
                + a0 * rho / (rho - 1.0) * y ** ((2.0 - rho) / (rho - 1.0))
                + a2 * (varrho - rho) * (varrho - 1.0) / (rho - 1.0)
                * y ** (-(varrho + rho - 2.0) / (rho - 1.0))
                + rho * gamma * gamma * (rho - 1.0) / (y ** 3))

    if gate:
        q_eff = float(q) if q is not None else 6.0 * beta - 1.0
        qp_eff = float(q_prime) if q_prime is not None else 6.0 * alpha + 3.0
        if q_eff <= 6.0 * beta - 2.0 or qp_eff <= 6.0 * alpha + 2.0:
            raise DomainError("moment exponents below the proved-regime thresholds")
        regularity = "Hy2-const-diffusion"
    else:
        q_eff = float(q) if q is not None else None
        qp_eff = float(q_prime) if q_prime is not None else None
        regularity = None

    raw = RawModel(
        mu=lambda x: a_minus1 / x - a0 + a1 * x - a2 * x ** varrho,
        sigma=lambda x: gamma * x ** rho,
        domain=(0.0, math.inf),
        x0=x0,
    )
    lamperti = LampertiMap(
        forward=lambda x: x ** (1.0 - rho),
        inverse=lambda y: y ** (1.0 / (1.0 - rho)),
    )
    meta = {"family": "ait-sahalia", "a_minus1": a_minus1, "a0": a0, "a1": a1,
            "a2": a2, "gamma": gamma, "varrho": varrho, "rho": rho, "x0": x0,
            "rate_available": gate}
    transformed = TransformedModel(
        name="ait-sahalia",
        f=f,
        gamma=None,
        gamma_const=pref * gamma,
        f_prime=f_prime,
        f_double_prime=f_double_prime,
        one_sided_k=_numeric_one_sided_k(f_prime),
        local_lipschitz_k=_numeric_local_k(f_prime, alpha, beta),
        alpha=alpha,
        beta=beta,
        q=q_eff,
        q_prime=qp_eff,
        regularity=regularity,
        y0=x0 ** (1.0 - rho),
        meta=meta,
    )
    return ModelTriple(raw, transformed, lamperti)


def ginzburg_landau_model(lam: float, sigma: float, x0: float) -> ModelTriple:
    """Cubic-drift model dX = (-X^3 + (lam + sigma^2/2) X) dt + sigma X dW.

    The diffusion sigma*x is already globally Lipschitz, so no coordinate
    change is applied: the triple carries an identity map and the scheme runs
    in the original coordinates with growth exponents (alpha, beta) = (2, 0).
    Scheme states can cross zero, so the family is marked full-line and plans
    built for it use the sign-symmetric clamp.
    """
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    if x0 <= 0:
        raise DomainError("x0 must be positive")
    c = lam + 0.5 * sigma * sigma
    forms = _forms(c)

    def f(y, out=None, s=None):
        (mul, _, sub, _), (c_,) = forms[out is not None]
        return mul(y, sub(c_, mul(y, y, s), s), out)

    def f_prime(y):
        return -3.0 * y * y + c

    def f_double_prime(y):
        return -6.0 * y

    scale = _forms(sigma)

    def gamma(y, out=None):
        (mul, _, _, _), (sigma_,) = scale[out is not None]
        return mul(sigma_, y, out)

    raw = RawModel(
        mu=f,
        sigma=lambda x: sigma * x,
        domain=(0.0, math.inf),
        x0=x0,
    )
    identity = LampertiMap(forward=lambda x: x, inverse=lambda y: y)
    meta = {"family": "ginzburg-landau", "lam": lam, "sigma": sigma, "x0": x0,
            "identity_transform": True, "full_line": True,
            "diffusion_lipschitz": sigma}
    transformed = TransformedModel(
        name="ginzburg-landau",
        f=f,
        gamma=gamma,
        gamma_const=None,
        f_prime=f_prime,
        f_double_prime=f_double_prime,
        one_sided_k=max(c, 0.0),
        # |f'(x)| = |c - 3x^2| <= max(|c|, 3)(1 + x^2).
        local_lipschitz_k=max(abs(c), 3.0),
        alpha=2.0,
        beta=0.0,
        q=3.0,
        q_prime=15.0,
        regularity="Hy2",
        y0=x0,
        meta=meta,
    )
    return ModelTriple(raw, transformed, identity)


def _square_root_rate(meta: dict) -> RateTable:
    band, shift, name = _square_root_band(meta)
    omega = meta["omega"]
    if band is None:
        raise RateUnavailable(f"no proved rate for omega = {omega} ({name}s)")
    low, high = shift + band.low, shift + band.high
    edges = (f"omega > {low:g}" if high == math.inf
             else f"{low:g} < omega <= {high:g}")
    if band.y_rate is None:
        y = (None, (1.0 / 6.0, 0.5 - 1.0 / (omega + (1.0 - shift))))
    else:
        y = (band.y_rate, None)
    x = (band.three_halves_x_rate, None) if meta["family"] == "three-halves" else y
    return RateTable(*y, *x, source=f"{name} {edges}")


def guaranteed_rate(model: TransformedModel) -> RateTable:
    """Strong convergence order proved for the model's parameter regime.

    Raises:
        RateUnavailable: the parameters sit outside every proved regime.
    """
    family = model.meta.get("family")
    if family == "locally-smooth" and model.meta["regime"] == "Hs1":
        return RateTable(1.0, None, None, None,
                         source="locally-smooth Hs1: unit rate regime")
    if family in ("cir", "three-halves", "locally-smooth"):
        return _square_root_rate(model.meta)
    if family == "ait-sahalia":
        if not model.meta["rate_available"]:
            raise RateUnavailable(
                "varrho + 1 <= 2*rho: outside the proved unit-rate regime")
        return RateTable(1.0, None, 1.0, None,
                         source="ait-sahalia: varrho + 1 > 2*rho regime")
    if family == "ginzburg-landau":
        return RateTable(1.0, None, 1.0, None,
                         source="ginzburg-landau: cubic-drift unit rate regime")
    raise RateUnavailable(f"unknown model family {family!r}")
