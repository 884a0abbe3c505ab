"""Declarative experiment configs for the command line.

A config is a single YAML mapping with a `model` block, a `scheme` block and
one block per command (`study` for convergence, `mlmc`, `price`).  Parsing
is total: every diagnostic carries the dotted path of the offending field
("mlmc.epsilons[2]: must be positive") and unknown fields are rejected.
Structural validation happens here (exit 2 from the CLI); model parameter
validity is the constructors' business (exit 3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

import yaml

from .convergence import REFERENCES, VARIANTS
from .errors import ConfigError
from .mlmc import PAYOFFS
from .models import (ModelTriple, ait_sahalia_model, cir_model,
                     ginzburg_landau_model, three_halves_model)
from .projection import ProjectionPlan, classical_plan, manual_plan, plan_exponents

FAMILIES = ("cir", "three-halves", "ait-sahalia", "ginzburg-landau")
CLAMPS = ("raw", "bar", "tilde", "check", "double")
PRICE_MODES = ("zcb-closed-form", "spread-mc", "gl-exact")

_MODEL_PARAMS = {
    "cir": ("kappa", "theta", "xi", "x0"),
    "three-halves": ("c1", "c2", "c3", "x0"),
    "ait-sahalia": ("a_minus1", "a0", "a1", "a2", "gamma", "varrho", "rho", "x0"),
    "ginzburg-landau": ("lambda", "sigma", "x0"),
}

_MISSING = object()


class _Section:
    """One mapping level: typed field extraction with dotted-path errors."""

    def __init__(self, mapping: Mapping, path: str):
        if not isinstance(mapping, Mapping):
            raise ConfigError("expected a mapping", path)
        self.mapping = dict(mapping)
        self.path = path
        self.seen: set[str] = set()

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def take(self, key: str, default: Any = _MISSING) -> Any:
        self.seen.add(key)
        if key in self.mapping:
            return self.mapping[key]
        if default is _MISSING:
            raise ConfigError("required field is missing", self._at(key))
        return default

    def finish(self) -> None:
        unknown = sorted(set(self.mapping) - self.seen)
        if unknown:
            raise ConfigError(f"unknown field(s): {', '.join(unknown)}", self.path)


def _as_float(value: Any, path: str) -> float:
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


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path)
    return value


def _as_str(value: Any, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}", path)
    if choices is not None and value not in choices:
        raise ConfigError(f"must be one of {', '.join(choices)}; got {value!r}", path)
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"expected a list, got {value!r}", path)
    return value


def _opt_float(section: _Section, key: str, default: float | None = None) -> float | None:
    value = section.take(key, default)
    if value is None:
        return None
    return _as_float(value, section._at(key))


def _to_mapping(section) -> dict:
    """A parsed block as a config mapping: unset (None) fields are left out,
    tuples become lists and nested blocks their own mappings."""
    out = {}
    for name in (f.name for f in fields(section)):
        value = getattr(section, name)
        if hasattr(value, "to_mapping"):
            value = value.to_mapping()
        if value is not None:
            out[name] = list(value) if isinstance(value, tuple) else value
    return out


@dataclass(frozen=True, eq=True)
class ModelConfig:
    """Declarative model record: family name plus its parameter map."""

    family: str
    params: tuple[tuple[str, float], ...]
    q: float | None = None
    q_prime: float | None = None

    def param(self, name: str) -> float:
        return dict(self.params)[name]

    @staticmethod
    def parse(mapping: Mapping, path: str) -> "ModelConfig":
        sec = _Section(mapping, path)
        family = _as_str(sec.take("family"), f"{path}.family", FAMILIES)
        raw = sec.take("params")
        params_sec = _Section(raw, f"{path}.params")
        params = tuple((name, _as_float(params_sec.take(name), f"{path}.params.{name}"))
                       for name in _MODEL_PARAMS[family])
        params_sec.finish()
        q = _opt_float(sec, "q")
        q_prime = _opt_float(sec, "q_prime")
        if family == "ginzburg-landau" and (q is not None or q_prime is not None):
            raise ConfigError("ginzburg-landau takes no moment overrides", path)
        sec.finish()
        return ModelConfig(family=family, params=params, q=q, q_prime=q_prime)

    def to_mapping(self) -> dict:
        return dict(_to_mapping(self), params=dict(self.params))

    def build(self) -> ModelTriple:
        kwargs = {}
        if self.q is not None:
            kwargs["q"] = self.q
        if self.q_prime is not None:
            kwargs["q_prime"] = self.q_prime
        p = dict(self.params)
        if self.family == "cir":
            return cir_model(p["kappa"], p["theta"], p["xi"], p["x0"], **kwargs)
        if self.family == "three-halves":
            return three_halves_model(p["c1"], p["c2"], p["c3"], p["x0"], **kwargs)
        if self.family == "ait-sahalia":
            return ait_sahalia_model(p["a_minus1"], p["a0"], p["a1"], p["a2"],
                                     p["gamma"], p["varrho"], p["rho"], p["x0"],
                                     **kwargs)
        return ginzburg_landau_model(p["lambda"], p["sigma"], p["x0"])


@dataclass(frozen=True, eq=True)
class SchemeConfig:
    """Scheme variant and projection-plan overrides.

    Unset exponents fall back to the rate planner for convergence studies
    and to `MlmcConfig`'s defaults for MLMC runs.
    """

    variant: str = "modified"
    k: float | None = None
    k_prime: float | None = None
    scale_lo: float | None = None
    scale_hi: float | None = None
    clamp: str = "raw"

    @staticmethod
    def parse(mapping: Mapping, path: str) -> "SchemeConfig":
        sec = _Section(mapping, path)
        variant = _as_str(sec.take("variant", "modified"), f"{path}.variant", VARIANTS)
        k = _opt_float(sec, "k")
        k_prime = _opt_float(sec, "k_prime")
        scale_lo = _opt_float(sec, "scale_lo")
        scale_hi = _opt_float(sec, "scale_hi")
        clamp = _as_str(sec.take("clamp", "raw"), f"{path}.clamp", CLAMPS)
        for name, value in (("k", k), ("k_prime", k_prime),
                            ("scale_lo", scale_lo), ("scale_hi", scale_hi)):
            if value is not None and value <= 0:
                raise ConfigError("must be positive", f"{path}.{name}")
        sec.finish()
        return SchemeConfig(variant=variant, k=k, k_prime=k_prime,
                            scale_lo=scale_lo, scale_hi=scale_hi, clamp=clamp)

    to_mapping = _to_mapping

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
class StudyConfig:
    """Convergence-study block: tested resolutions and the reference choice."""

    exponents: tuple[int, ...]
    reference: str
    paths: int = 10000
    fine_exponent: int = 12
    horizon: float = 1.0
    space: str = "x"

    @staticmethod
    def parse(mapping: Mapping, path: str) -> "StudyConfig":
        sec = _Section(mapping, path)
        raw = _as_list(sec.take("exponents"), f"{path}.exponents")
        exponents = tuple(_as_int(v, f"{path}.exponents[{i}]")
                          for i, v in enumerate(raw))
        reference = _as_str(sec.take("reference"), f"{path}.reference", REFERENCES)
        paths = _as_int(sec.take("paths", 10000), f"{path}.paths")
        fine_exponent = _as_int(sec.take("fine_exponent", 12), f"{path}.fine_exponent")
        horizon = _as_float(sec.take("horizon", 1.0), f"{path}.horizon")
        space = _as_str(sec.take("space", "x"), f"{path}.space", ("x", "y"))
        sec.finish()
        if not exponents or list(exponents) != sorted(set(exponents)):
            raise ConfigError("must be nonempty and strictly increasing",
                              f"{path}.exponents")
        if exponents[0] < 1 or exponents[-1] >= fine_exponent:
            raise ConfigError("must satisfy 1 <= N < fine_exponent",
                              f"{path}.exponents")
        if paths < 1:
            raise ConfigError("must be >= 1", f"{path}.paths")
        if fine_exponent > 24:
            raise ConfigError("must be <= 24", f"{path}.fine_exponent")
        if horizon <= 0:
            raise ConfigError("must be positive", f"{path}.horizon")
        return StudyConfig(exponents=exponents, reference=reference, paths=paths,
                           fine_exponent=fine_exponent, horizon=horizon, space=space)

    to_mapping = _to_mapping


@dataclass(frozen=True, eq=True)
class MlmcSection:
    """Multilevel block: payoff, level geometry and the target accuracies."""

    payoff: str
    epsilons: tuple[float, ...]
    refinement: int = 4
    max_level: int = 5
    pilot_paths: int = 1000
    horizon: float = 1.0
    strike: float | None = None
    correlation: float = 0.0
    path_ceiling: int = 2 ** 31

    @staticmethod
    def parse(mapping: Mapping, path: str) -> "MlmcSection":
        sec = _Section(mapping, path)
        payoff = _as_str(sec.take("payoff"), f"{path}.payoff", PAYOFFS)
        raw = _as_list(sec.take("epsilons"), f"{path}.epsilons")
        if not raw:
            raise ConfigError("must be nonempty", f"{path}.epsilons")
        epsilons = []
        for i, value in enumerate(raw):
            eps = _as_float(value, f"{path}.epsilons[{i}]")
            if eps <= 0:
                raise ConfigError("must be positive", f"{path}.epsilons[{i}]")
            epsilons.append(eps)
        refinement = _as_int(sec.take("refinement", 4), f"{path}.refinement")
        max_level = _as_int(sec.take("max_level", 5), f"{path}.max_level")
        pilot_paths = _as_int(sec.take("pilot_paths", 1000), f"{path}.pilot_paths")
        horizon = _as_float(sec.take("horizon", 1.0), f"{path}.horizon")
        strike = _opt_float(sec, "strike")
        correlation = _as_float(sec.take("correlation", 0.0), f"{path}.correlation")
        path_ceiling = _as_int(sec.take("path_ceiling", 2 ** 31),
                               f"{path}.path_ceiling")
        sec.finish()
        if refinement < 2:
            raise ConfigError("must be >= 2", f"{path}.refinement")
        if max_level < 1:
            raise ConfigError("must be >= 1", f"{path}.max_level")
        if pilot_paths < 2:
            raise ConfigError("must be >= 2", f"{path}.pilot_paths")
        if horizon <= 0:
            raise ConfigError("must be positive", f"{path}.horizon")
        if not -1.0 <= correlation <= 1.0:
            raise ConfigError("must lie in [-1, 1]", f"{path}.correlation")
        if path_ceiling < 1:
            raise ConfigError("must be >= 1", f"{path}.path_ceiling")
        if payoff == "spread" and strike is None:
            raise ConfigError("spread payoff needs a strike", f"{path}.strike")
        return MlmcSection(payoff=payoff, epsilons=tuple(epsilons),
                           refinement=refinement, max_level=max_level,
                           pilot_paths=pilot_paths, horizon=horizon, strike=strike,
                           correlation=correlation, path_ceiling=path_ceiling)

    to_mapping = _to_mapping


@dataclass(frozen=True, eq=True)
class PriceSection:
    """Single-value pricing block."""

    mode: str
    paths: int = 100000
    fine_exponent: int = 12
    horizon: float = 1.0
    strike: float | None = None
    correlation: float = 0.0

    @staticmethod
    def parse(mapping: Mapping, path: str) -> "PriceSection":
        sec = _Section(mapping, path)
        mode = _as_str(sec.take("mode"), f"{path}.mode", PRICE_MODES)
        paths = _as_int(sec.take("paths", 100000), f"{path}.paths")
        fine_exponent = _as_int(sec.take("fine_exponent", 12),
                                f"{path}.fine_exponent")
        horizon = _as_float(sec.take("horizon", 1.0), f"{path}.horizon")
        strike = _opt_float(sec, "strike")
        correlation = _as_float(sec.take("correlation", 0.0), f"{path}.correlation")
        sec.finish()
        if paths < 2:
            raise ConfigError("must be >= 2", f"{path}.paths")
        if not 1 <= fine_exponent <= 24:
            raise ConfigError("must lie in [1, 24]", f"{path}.fine_exponent")
        if horizon <= 0:
            raise ConfigError("must be positive", f"{path}.horizon")
        if not -1.0 <= correlation <= 1.0:
            raise ConfigError("must lie in [-1, 1]", f"{path}.correlation")
        if mode == "spread-mc" and strike is None:
            raise ConfigError("spread-mc mode needs a strike", f"{path}.strike")
        return PriceSection(mode=mode, paths=paths, fine_exponent=fine_exponent,
                            horizon=horizon, strike=strike, correlation=correlation)

    to_mapping = _to_mapping


@dataclass(frozen=True, eq=True)
class ExperimentConfig:
    """Parsed experiment file: model(s), scheme, command blocks, seed, output."""

    model: ModelConfig
    scheme: SchemeConfig = field(default_factory=SchemeConfig)
    model2: ModelConfig | None = None
    study: StudyConfig | None = None
    mlmc: MlmcSection | None = None
    price: PriceSection | None = None
    seed: int = 0
    out: str = "results"
    threads: int = 0

    to_mapping = _to_mapping


def from_mapping(mapping: Mapping) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed mapping (total validation)."""
    sec = _Section(mapping, "")
    model = ModelConfig.parse(sec.take("model"), "model")
    scheme_raw = sec.take("scheme", None)
    scheme = SchemeConfig() if scheme_raw is None \
        else SchemeConfig.parse(scheme_raw, "scheme")
    model2_raw = sec.take("model2", None)
    model2 = None if model2_raw is None else ModelConfig.parse(model2_raw, "model2")
    study_raw = sec.take("study", None)
    study = None if study_raw is None else StudyConfig.parse(study_raw, "study")
    mlmc_raw = sec.take("mlmc", None)
    mlmc = None if mlmc_raw is None else MlmcSection.parse(mlmc_raw, "mlmc")
    price_raw = sec.take("price", None)
    price = None if price_raw is None else PriceSection.parse(price_raw, "price")
    seed = _as_int(sec.take("seed", 0), "seed")
    out = _as_str(sec.take("out", "results"), "out")
    threads = _as_int(sec.take("threads", 0), "threads")
    sec.finish()
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("must fit in an unsigned 64-bit integer", "seed")
    if threads < 0:
        raise ConfigError("must be >= 0 (0 means all cores)", "threads")
    needs_two = (mlmc is not None and mlmc.payoff == "spread") \
        or (price is not None and price.mode == "spread-mc")
    if needs_two and model2 is None:
        raise ConfigError("two-factor payoffs need a model2 block", "model2")
    if price is not None:
        if price.mode == "zcb-closed-form" and model.family != "cir":
            raise ConfigError("zcb-closed-form mode needs a cir model", "price.mode")
        if price.mode == "gl-exact" and model.family != "ginzburg-landau":
            raise ConfigError("gl-exact mode needs a ginzburg-landau model",
                              "price.mode")
    if mlmc is not None and scheme.variant != "modified":
        raise ConfigError("the multilevel engine runs the modified scheme only",
                          "scheme.variant")
    if mlmc is not None and (scheme.k_prime is not None or scheme.scale_hi is not None):
        raise ConfigError("the multilevel engine clamps from below only; "
                          "k_prime and scale_hi do not apply", "scheme")
    _check_engine_families(model, model2, scheme, study, mlmc, price)
    return ExperimentConfig(model=model, scheme=scheme, model2=model2, study=study,
                            mlmc=mlmc, price=price, seed=seed, out=out,
                            threads=threads)


def _check_engine_families(model, model2, scheme, study, mlmc, price) -> None:
    """Refuse up front the family/engine pairs that the engines refuse: the
    drift-implicit stepper needs cir (three-halves' transformed diffusion is
    -c3/2), the closed-form reference is ginzburg-landau's solution, and the
    multilevel engine cannot plan a full-line model's symmetric box."""
    half_line = ("cir", "three-halves", "ait-sahalia")
    gates = []  # (engine, admitted families, gated models)
    if study is not None and study.reference == "implicit-fine-grid":
        gates.append(("the implicit-fine-grid reference", ("cir",), ("model",)))
    if study is not None and study.reference == "closed-form":
        gates.append(("the closed-form reference", ("ginzburg-landau",), ("model",)))
    if study is not None and scheme.variant == "implicit-reference":
        gates.append(("the implicit-reference variant", ("cir",), ("model",)))
    if price is not None and price.mode == "spread-mc":
        gates.append(("spread-mc mode", ("cir",), ("model", "model2")))
    if mlmc is not None:
        gates.append(("the multilevel engine", half_line,
                      ("model", "model2") if mlmc.payoff == "spread" else ("model",)))
    for engine, admitted, names in gates:
        for name in names:
            family = {"model": model, "model2": model2}[name].family
            if family not in admitted:
                raise ConfigError(f"{engine} does not run the {family} family "
                                  f"(it needs {', '.join(admitted)})",
                                  f"{name}.family")


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
