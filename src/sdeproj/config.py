"""Declarative experiment configs for the command line.

A config is a single YAML mapping with a `model` block, a `scheme` block and
one block per command (`study` for convergence, `mlmc`, `price`).  Each
block is a frozen dataclass below, and each of its fields is declared once
with `_field`: its reader (number, integer, string, list or nested block),
its default (none: the field is required) and its bound, given as data:
inclusive `lo`/`hi` limits, `positive`, or a tuple of `choices`.  A bound on
a list field holds for every element.  One parser, `_parse`, reads every
block, the top level included: each field through its reader and bound,
then the unknown-field rule, then the block's cross-field rules in its
`_check`.

Parsing is total: every diagnostic carries the dotted path of the offending
field ("mlmc.epsilons[2]: must be positive").  A `null` value leaves an
optional block, or a field whose default is unset, at its default.
Structural validation happens here (exit 2 from the CLI); model parameter
validity is the constructors' business (exit 3).
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Iterable, Mapping

import yaml

from .convergence import REFERENCES, VARIANTS
from .errors import ConfigError
from .mlmc import PAYOFFS
from .models import (ModelTriple, ait_sahalia_model, cir_model,
                     ginzburg_landau_model, three_halves_model)
from .projection import ProjectionPlan, classical_plan, manual_plan, plan_exponents

# Family -> (model constructor, its positional parameter names).
_FAMILIES = {
    "cir": (cir_model, ("kappa", "theta", "xi", "x0")),
    "three-halves": (three_halves_model, ("c1", "c2", "c3", "x0")),
    "ait-sahalia": (ait_sahalia_model, ("a_minus1", "a0", "a1", "a2", "gamma",
                                        "varrho", "rho", "x0")),
    "ginzburg-landau": (ginzburg_landau_model, ("lambda", "sigma", "x0")),
}
FAMILIES = tuple(_FAMILIES)
CLAMPS = ("raw", "bar", "tilde", "check", "double")
PRICE_MODES = ("zcb-closed-form", "spread-mc", "gl-exact")


def epsilon_tag(epsilon: float) -> str:
    """The tag in the names of one epsilon's `mlmc_<tag>.csv/.json` files."""
    return format(epsilon, "g")


def _number(value: Any, path: str) -> float:
    # YAML 1.1 resolves "5e-5" (dotless mantissa) as a string; accept it.
    if isinstance(value, str):
        try:
            out = float(value)
        except ValueError:
            raise ConfigError(f"expected a number, got {value!r}", path) from None
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", path)
    else:
        out = float(value)
    if not math.isfinite(out):
        raise ConfigError("must be finite", path)
    return out


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path)
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}", path)
    return value


def _mapping(value: Any, path: str) -> None:
    if not isinstance(value, Mapping):
        raise ConfigError("expected a mapping", path)


def _list(item: Callable[[Any, str], Any]) -> Callable[[Any, str], tuple]:
    """Reader of a list whose elements `item` reads, giving a tuple."""

    def read(value: Any, path: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"expected a list, got {value!r}", path)
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

    return read


def _numbers(value: Any, path: str) -> tuple[tuple[str, float], ...]:
    """Reader of a mapping of names to numbers, giving (name, number) pairs
    sorted by name; the owning block checks the names."""
    _mapping(value, path)
    return tuple(sorted(((name, _number(v, f"{path}.{name}"))
                         for name, v in value.items()), key=lambda p: str(p[0])))


def _refuse_unknown(keys: Iterable, known: Iterable[str], path: str) -> None:
    unknown = sorted(str(key) for key in set(keys) - set(known))
    if unknown:
        raise ConfigError(f"unknown field(s): {', '.join(unknown)}", path)


def _field(read: Callable[[Any, str], Any], default: Any = MISSING, *,
           factory: Any = MISSING, **bound):
    """Declare a config field: its reader, its default (`factory` makes a
    fresh one; neither: required) and its bound (`lo`, `hi`, `positive`,
    `choices`; see `_check_bound`)."""
    return field(default=default, default_factory=factory,
                 metadata={"read": read, "bound": bound})


def _check_bound(value: Any, path: str, lo: float | None = None,
                 hi: float | None = None, positive: bool = False,
                 choices: tuple[str, ...] = ()) -> None:
    """Refuse a read value outside its declared bound: inclusive limits
    `lo` and `hi`, `positive` (above 0), or one of `choices`."""
    if choices and value not in choices:
        raise ConfigError(f"must be one of {', '.join(choices)}; got {value!r}", path)
    if positive and value <= 0:
        raise ConfigError("must be positive", path)
    if lo is not None and hi is not None and not lo <= value <= hi:
        raise ConfigError(f"must lie in [{lo}, {hi}]", path)
    if lo is not None and value < lo:
        raise ConfigError(f"must be >= {lo}", path)
    if hi is not None and value > hi:
        raise ConfigError(f"must be <= {hi}", path)


def _parse(cls, mapping: Any, path: str):
    """Read block `cls` from `mapping` at dotted `path` ("" at the top)."""
    _mapping(mapping, path)
    given = {}
    for f in fields(cls):
        at = f"{path}.{f.name}" if path else f.name
        value = mapping.get(f.name, MISSING)
        if value is MISSING and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError("required field is missing", at)
        if value is MISSING or (value is None and (
                f.default is None or f.default_factory is not MISSING)):
            continue
        given[f.name] = value = f.metadata["read"](value, at)
        if f.metadata["bound"]:
            items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
            for i, item in items:
                _check_bound(item, at if i is None else f"{at}[{i}]",
                             **f.metadata["bound"])
    _refuse_unknown(mapping, (f.name for f in fields(cls)), path)
    block = cls(**given)
    block._check(path)
    return block


def _to_mapping(block) -> dict:
    """A parsed block as a config mapping: unset (None) fields are left out,
    tuples become lists and nested blocks their own mappings."""
    out = {}
    for name in (f.name for f in fields(block)):
        value = getattr(block, name)
        if hasattr(value, "to_mapping"):
            value = value.to_mapping()
        if value is not None:
            out[name] = list(value) if isinstance(value, tuple) else value
    return out


class _Block:
    """What every config block shares: the parser, the mapping echo and a
    hook for cross-field rules."""

    parse = classmethod(_parse)
    to_mapping = _to_mapping

    def _check(self, path: str) -> None:
        """Refuse a combination of fields that each passed their bounds."""


@dataclass(frozen=True, eq=True)
class ModelConfig(_Block):
    """Declarative model record: family name plus its parameter map."""

    family: str = _field(_string, choices=FAMILIES)
    params: tuple[tuple[str, float], ...] = _field(_numbers)
    q: float | None = _field(_number, None)
    q_prime: float | None = _field(_number, None)

    def param(self, name: str) -> float:
        return dict(self.params)[name]

    def _check(self, path: str) -> None:
        names, given = _FAMILIES[self.family][1], dict(self.params)
        for name in names:
            if name not in given:
                raise ConfigError("required field is missing", f"{path}.params.{name}")
        _refuse_unknown(given, names, f"{path}.params")
        if self.family == "ginzburg-landau" and (self.q is not None
                                                 or self.q_prime is not None):
            raise ConfigError("ginzburg-landau takes no moment overrides", path)

    def to_mapping(self) -> dict:
        return dict(_to_mapping(self), params=dict(self.params))

    def build(self) -> ModelTriple:
        constructor, names = _FAMILIES[self.family]
        moments = {name: getattr(self, name) for name in ("q", "q_prime")
                   if getattr(self, name) is not None}
        return constructor(*map(self.param, names), **moments)


@dataclass(frozen=True, eq=True)
class SchemeConfig(_Block):
    """Scheme variant and projection-plan overrides.

    Unset exponents fall back to the rate planner for convergence studies
    and to `MlmcConfig`'s defaults for MLMC runs.
    """

    variant: str = _field(_string, "modified", choices=VARIANTS)
    k: float | None = _field(_number, None, positive=True)
    k_prime: float | None = _field(_number, None, positive=True)
    scale_lo: float | None = _field(_number, None, positive=True)
    scale_hi: float | None = _field(_number, None, positive=True)
    clamp: str = _field(_string, "raw", choices=CLAMPS)

    def build_plan(self, triple: ModelTriple) -> ProjectionPlan:
        if self.variant == "classical":
            return classical_plan()
        scale_lo = 1.0 if self.scale_lo is None else self.scale_lo
        scale_hi = 1.0 if self.scale_hi is None else self.scale_hi
        if self.k is not None or self.k_prime is not None:
            return manual_plan(triple.transformed, k=self.k, k_prime=self.k_prime,
                               scale_lo=scale_lo, scale_hi=scale_hi)
        return plan_exponents(triple.transformed, scale_lo=scale_lo,
                              scale_hi=scale_hi)


@dataclass(frozen=True, eq=True)
class StudyConfig(_Block):
    """Convergence-study block: tested resolutions and the reference choice."""

    exponents: tuple[int, ...] = _field(_list(_integer))
    reference: str = _field(_string, choices=REFERENCES)
    paths: int = _field(_integer, 10000, lo=1)
    fine_exponent: int = _field(_integer, 12, hi=24)
    horizon: float = _field(_number, 1.0, positive=True)
    space: str = _field(_string, "x", choices=("x", "y"))

    def _check(self, path: str) -> None:
        exponents = self.exponents
        if not exponents or list(exponents) != sorted(set(exponents)):
            raise ConfigError("must be nonempty and strictly increasing",
                              f"{path}.exponents")
        if exponents[0] < 1 or exponents[-1] >= self.fine_exponent:
            raise ConfigError("must satisfy 1 <= N < fine_exponent",
                              f"{path}.exponents")


@dataclass(frozen=True, eq=True)
class MlmcSection(_Block):
    """Multilevel block: payoff, level geometry and the target accuracies."""

    payoff: str = _field(_string, choices=PAYOFFS)
    epsilons: tuple[float, ...] = _field(_list(_number), positive=True)
    refinement: int = _field(_integer, 4, lo=2)
    max_level: int = _field(_integer, 5, lo=1)
    pilot_paths: int = _field(_integer, 1000, lo=2)
    horizon: float = _field(_number, 1.0, positive=True)
    strike: float | None = _field(_number, None)
    correlation: float = _field(_number, 0.0, lo=-1, hi=1)
    path_ceiling: int = _field(_integer, 2 ** 31)

    def _check(self, path: str) -> None:
        if not self.epsilons:
            raise ConfigError("must be nonempty", f"{path}.epsilons")
        tags = [epsilon_tag(eps) for eps in self.epsilons]
        for i, tag in enumerate(tags):
            first = tags.index(tag)
            if first < i:
                raise ConfigError(f"names the same mlmc_{tag} files as "
                                  f"epsilons[{first}]", f"{path}.epsilons[{i}]")
        # The finest study or price grid; max_level first keeps the power small.
        if self.max_level > 24 or self.refinement ** self.max_level > 2 ** 24:
            raise ConfigError("refinement ** max_level must be <= 2 ** 24 steps",
                              f"{path}.max_level")
        pilot_total = self.pilot_paths * (self.max_level + 1)
        if self.path_ceiling < pilot_total:
            raise ConfigError(f"must be >= pilot_paths * (max_level + 1) = "
                              f"{pilot_total}", f"{path}.path_ceiling")
        if self.payoff == "spread" and self.strike is None:
            raise ConfigError("spread payoff needs a strike", f"{path}.strike")


@dataclass(frozen=True, eq=True)
class PriceSection(_Block):
    """Single-value pricing block."""

    mode: str = _field(_string, choices=PRICE_MODES)
    paths: int = _field(_integer, 100000, lo=2)
    fine_exponent: int = _field(_integer, 12, lo=1, hi=24)
    horizon: float = _field(_number, 1.0, positive=True)
    strike: float | None = _field(_number, None)
    correlation: float = _field(_number, 0.0, lo=-1, hi=1)

    def _check(self, path: str) -> None:
        if self.mode == "spread-mc" and self.strike is None:
            raise ConfigError("spread-mc mode needs a strike", f"{path}.strike")


@dataclass(frozen=True, eq=True)
class ExperimentConfig(_Block):
    """Parsed experiment file: model(s), scheme, command blocks, seed, output."""

    model: ModelConfig = _field(ModelConfig.parse)
    scheme: SchemeConfig = _field(SchemeConfig.parse, factory=SchemeConfig)
    model2: ModelConfig | None = _field(ModelConfig.parse, None)
    study: StudyConfig | None = _field(StudyConfig.parse, None)
    mlmc: MlmcSection | None = _field(MlmcSection.parse, None)
    price: PriceSection | None = _field(PriceSection.parse, None)
    seed: int = _field(_integer, 0, lo=0, hi=2 ** 64 - 1)
    out: str = _field(_string, "results")
    threads: int = _field(_integer, 0, lo=0)

    def _check(self, path: str) -> None:
        mlmc, price, scheme, study = self.mlmc, self.price, self.scheme, self.study
        needs_two = (mlmc is not None and mlmc.payoff == "spread") \
            or (price is not None and price.mode == "spread-mc")
        if needs_two and self.model2 is None:
            raise ConfigError("two-factor payoffs need a model2 block", "model2")
        if price is not None:
            if price.mode == "zcb-closed-form" and self.model.family != "cir":
                raise ConfigError("zcb-closed-form mode needs a cir model",
                                  "price.mode")
            if price.mode == "gl-exact" and self.model.family != "ginzburg-landau":
                raise ConfigError("gl-exact mode needs a ginzburg-landau model",
                                  "price.mode")
        if mlmc is not None and scheme.variant != "modified":
            raise ConfigError("the multilevel engine runs the modified scheme only",
                              "scheme.variant")
        if mlmc is not None and (scheme.k_prime is not None
                                 or scheme.scale_hi is not None):
            raise ConfigError("the multilevel engine clamps from below only; "
                              "k_prime and scale_hi do not apply", "scheme")
        # Refuse up front the family/engine pairs that the engines refuse:
        # the drift-implicit stepper needs cir (three-halves' transformed
        # diffusion is -c3/2), the closed-form reference is ginzburg-landau's
        # solution, and the multilevel engine cannot plan a full-line
        # model's symmetric box.
        gates = []  # (engine, admitted families, gated models)
        if study is not None and study.reference == "implicit-fine-grid":
            gates.append(("the implicit-fine-grid reference", ("cir",), ("model",)))
        if study is not None and study.reference == "closed-form":
            gates.append(("the closed-form reference", ("ginzburg-landau",),
                          ("model",)))
        if study is not None and scheme.variant == "implicit-reference":
            gates.append(("the implicit-reference variant", ("cir",), ("model",)))
        if price is not None and price.mode == "spread-mc":
            gates.append(("spread-mc mode", ("cir",), ("model", "model2")))
        if mlmc is not None:
            half_line = ("cir", "three-halves", "ait-sahalia")
            gates.append(("the multilevel engine", half_line,
                          ("model", "model2") if mlmc.payoff == "spread"
                          else ("model",)))
        for engine, admitted, names in gates:
            for name in names:
                family = getattr(self, name).family
                if family not in admitted:
                    raise ConfigError(f"{engine} does not run the {family} family "
                                      f"(it needs {', '.join(admitted)})",
                                      f"{name}.family")


def from_mapping(mapping: Mapping) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed mapping (total validation)."""
    return ExperimentConfig.parse(mapping, "")


def loads(text: str) -> ExperimentConfig:
    """Parse config text (YAML mapping; JSON is a YAML subset and also works)."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if data is None:
        raise ConfigError("config file is empty")
    if not isinstance(data, Mapping):
        raise ConfigError("top level must be a mapping")
    return from_mapping(data)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return loads(text)
