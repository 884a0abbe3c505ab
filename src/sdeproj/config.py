"""Declarative experiment configs for the command line.

A config is a single YAML mapping with a `model` block, a `scheme` block and
one block per command (`study` for convergence, `mlmc`, `price`).  Each
block is a frozen dataclass below, and each of its fields is declared once
with `_field`: its reader (number, integer, string, list or nested block),
its default (none: the field is required) and its bound, given as data:
inclusive `lo`/`hi` limits, `positive`, `finite`, or a tuple of `choices`.
A bound on a list field holds for every element.  A field that is an
engine's argument reads its bound, and its default where the engine has
one, from the engine's declaration (`_engine_field`); cross-field rules
call the engines' rule functions.  One parser, `_parse`, reads every block,
the top level included: each field through its reader and bound, then the
unknown-field rule, then the block's cross-field rules in its `_check`.

Each command block (`study`, `mlmc`, `price`) also declares, per payoff or
mode, which fields of the file it reads (`reads`) and which engines it runs
(`_STUDY_ENGINES`, `_PRICE_MODES`); an engine runs on every model of the
file whose family its block reads, and declares the families it runs beside
itself.  From these the top level refuses a field set off its default that
no command block of the file reads, and a model whose family an engine it
runs does not declare.  A field is judged by its value, not its presence,
so the `config` echo of every output, which writes every default, loads.

Parsing is total: every diagnostic carries the dotted path of the offending
field ("mlmc.epsilons[2]: must be positive").  A `null` value leaves an
optional block, or a field whose default is unset, at its default.
Structural validation happens here (exit 2 from the CLI); model parameter
validity is the constructors' business (exit 3).
"""
from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Iterable, Mapping

import yaml

# CLAMPS, PAYOFFS, REFERENCES and VARIANTS are the config's vocabulary too.
from .convergence import (CLAMPS, REFERENCES, STUDY_BOUNDS, VARIANTS,  # noqa: F401
                          check_exponents, run_convergence_study)
from .errors import ConfigError, DomainError, SdeProjError, check_bound, check_family
from .mlmc import (MLMC_FAMILIES, PAYOFFS, PRICE_BOUNDS, MlmcConfig,  # noqa: F401
                   Problem, check_levels, check_lower_exponent, check_strike,
                   gl_exact_price)
from .models import (ModelTriple, ait_sahalia_model, cir_model,
                     ginzburg_landau_model, three_halves_model)
from .projection import (ProjectionPlan, check_readout, classical_plan, manual_plan,
                         plan_exponents)
from .reference import (CLOSED_FORM_FAMILIES, IMPLICIT_FAMILIES,
                        ZCB_CLOSED_FORM_FAMILIES)

# Family -> (model constructor, its positional parameter names).
_FAMILIES = {
    "cir": (cir_model, ("kappa", "theta", "xi", "x0")),
    "three-halves": (three_halves_model, ("c1", "c2", "c3", "x0")),
    "ait-sahalia": (ait_sahalia_model, ("a_minus1", "a0", "a1", "a2", "gamma",
                                        "varrho", "rho", "x0")),
    "ginzburg-landau": (ginzburg_landau_model, ("lambda", "sigma", "x0")),
}
FAMILIES = tuple(_FAMILIES)
# What every command reads.
_EVERY_COMMAND = ("model.family", "model.params", "seed", "out", "threads")


def _models(*names: str) -> tuple[str, ...]:
    """The fields of the models `names` that every engine reads."""
    return tuple(f"{name}.{key}" for name in names for key in ("family", "params"))


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
    `choices`, `finite`; see `errors.check_bound`)."""
    return field(default=default, default_factory=factory,
                 metadata={"read": read, "bound": bound})


def _engine_field(engine, read: Callable[[Any, str], Any], name: str,
                  default: Any = MISSING, *, bounds: Mapping | None = None):
    """Declare a config field that is `engine`'s argument `name`, with the
    engine's bound and, unless one is given here, its default: a dataclass
    declares both on its field, a function the bound in its table `bounds`
    and the default in its signature (a keyword-only argument's)."""
    if bounds is None:
        declared = {f.name: f for f in fields(engine)}[name]
        bound, engine_default = declared.metadata.get("bound", {}), declared.default
    else:
        bound, engine_default = bounds[name], engine.__kwdefaults__.get(name, MISSING)
    return _field(read, engine_default if default is MISSING else default, **bound)


_mlmc_arg = functools.partial(_engine_field, MlmcConfig)
_price_arg = functools.partial(_engine_field, gl_exact_price, bounds=PRICE_BOUNDS)
_study_arg = functools.partial(_engine_field, run_convergence_study,
                               bounds=STUDY_BOUNDS)


def _parse(cls, mapping: Any, path: str):
    """Read block `cls` from `mapping` at dotted `path` ("" at the top).  A
    `DomainError` from a bound or a rule names a field of the block, and is
    reported at its dotted path."""
    _mapping(mapping, path)
    given = {}
    try:
        for f in fields(cls):
            at = f"{path}.{f.name}" if path else f.name
            value = mapping.get(f.name, MISSING)
            if value is MISSING and f.default is MISSING \
                    and f.default_factory is MISSING:
                raise ConfigError("required field is missing", at)
            if value is MISSING or (value is None and (
                    f.default is None or f.default_factory is not MISSING)):
                continue
            given[f.name] = value = f.metadata["read"](value, at)
            if f.metadata["bound"]:
                items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
                for i, item in items:
                    check_bound(item, f.name if i is None else f"{f.name}[{i}]",
                                **f.metadata["bound"])
        _refuse_unknown(mapping, (f.name for f in fields(cls)), path)
        block = cls(**given)
        block._check(path)
    except DomainError as exc:
        raise ConfigError(exc.reason, f"{path}.{exc.field}" if path
                          else exc.field) from None
    return block


def _own(block, path: str, skip: Iterable[str] = ()) -> tuple[str, ...]:
    """The dotted names of `block`'s fields at `path`, but those in `skip`."""
    return tuple(f"{path}.{f.name}" for f in fields(block) if f.name not in skip)


def _refuse_unread(block, path: str, read: frozenset[str]) -> None:
    """Refuse the first field of `block` at `path` that `read` does not name
    and that is off its default: a block with a default (`scheme`) or none
    (`model`) field by field, an optional one (`model2`) whole unless a
    field of it is read."""
    for f in fields(block):
        at = f"{path}.{f.name}" if path else f.name
        value = getattr(block, f.name)
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if at in read or value == default:
            continue
        if isinstance(value, _Block) and (
                default is not None or any(r.startswith(f"{at}.") for r in read)):
            _refuse_unread(value, at, read)
        else:
            raise ConfigError("no command block in this file reads it", at)


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
        for name in ("q", "q_prime"):
            if name not in self.moments and getattr(self, name) is not None:
                raise ConfigError(f"{self.family} takes no moment overrides",
                                  f"{path}.{name}")

    @property
    def moments(self) -> tuple[str, ...]:
        """The moment exponents that the family's constructor takes."""
        return () if self.family == "ginzburg-landau" else ("q", "q_prime")

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

    variant: str = _study_arg(_string, "variant")
    k: float | None = _mlmc_arg(_number, "k", None)
    k_prime: float | None = _field(_number, None, positive=True)
    scale_lo: float | None = _mlmc_arg(_number, "scale_lo", None)
    scale_hi: float | None = _field(_number, None, positive=True)
    clamp: str = _study_arg(_string, "readout")

    def build_plan(self, triple: ModelTriple) -> ProjectionPlan:
        if self.variant == "classical":
            return classical_plan()
        # Only the scales that are set: the planners hold the defaults.
        scales = {name: getattr(self, name) for name in ("scale_lo", "scale_hi")
                  if getattr(self, name) is not None}
        if self.k is not None or self.k_prime is not None:
            return manual_plan(triple.transformed, k=self.k, k_prime=self.k_prime,
                               **scales)
        return plan_exponents(triple.transformed, **scales)

    def lower_clamp(self) -> dict:
        """`MlmcConfig`'s lower-clamp arguments: `k` and `scale_lo` as set
        here, else its defaults."""
        return {name: getattr(MlmcConfig, name) if getattr(self, name) is None
                else getattr(self, name) for name in ("k", "scale_lo")}


# The engines a study runs besides the projected scheme, keyed by the
# study's reference and by the scheme's variant: name, declared families.
_STUDY_ENGINES = {
    "implicit-fine-grid": ("the implicit-fine-grid reference", IMPLICIT_FAMILIES),
    "closed-form": ("the closed-form reference", CLOSED_FORM_FAMILIES),
    "implicit-reference": ("the implicit-reference variant", IMPLICIT_FAMILIES),
}


@dataclass(frozen=True, eq=True)
class StudyConfig(_Block):
    """Convergence-study block: tested resolutions and the reference choice."""

    exponents: tuple[int, ...] = _field(_list(_integer))
    reference: str = _study_arg(_string, "reference")
    paths: int = _study_arg(_integer, "paths", 10000)
    fine_exponent: int = _study_arg(_integer, "fine_exponent")
    horizon: float = _study_arg(_number, "horizon")
    space: str = _study_arg(_string, "space")

    def _check(self, path: str) -> None:
        check_exponents(self.exponents, self.fine_exponent)

    def reads(self, scheme: SchemeConfig, plan: ProjectionPlan | None,
              model: ModelConfig) -> tuple[str, ...]:
        """Its own fields, the variant and the read-out; unless the scheme
        is classical, what `build_plan` reads: both exponents, either of
        which makes the plan manual, and on each side that `plan` clamps,
        the side's scale and, when neither exponent is set, the model's
        moment exponent that `plan_exponents` plans that side from.
        Without a plan (the model or the plan is refused, which the run
        reports) both sides."""
        out = _own(self, "study") + ("scheme.variant", "scheme.clamp")
        if scheme.variant == "classical":
            return out
        out += ("scheme.k", "scheme.k_prime")
        planned = scheme.k is None and scheme.k_prime is None
        for exponent, scale, moment in (("k", "scale_lo", "q"),
                                        ("k_prime", "scale_hi", "q_prime")):
            if plan is None or getattr(plan, exponent) is not None:
                out += (f"scheme.{scale}",)
                if planned and moment in model.moments:
                    out += (f"model.{moment}",)
        return out


@dataclass(frozen=True, eq=True)
class MlmcSection(_Block):
    """Multilevel block: payoff, level geometry and the target accuracies."""

    payoff: str = _mlmc_arg(_string, "payoff")
    epsilons: tuple[float, ...] = _mlmc_arg(_list(_number), "epsilon")
    refinement: int = _mlmc_arg(_integer, "refinement")
    max_level: int = _mlmc_arg(_integer, "max_level")
    pilot_paths: int = _mlmc_arg(_integer, "pilot_paths")
    horizon: float = _mlmc_arg(_number, "horizon", 1.0)
    strike: float | None = _mlmc_arg(_number, "strike")
    correlation: float = _mlmc_arg(_number, "correlation")
    path_ceiling: int = _mlmc_arg(_integer, "path_ceiling")

    def _check(self, path: str) -> None:
        if not self.epsilons:
            raise ConfigError("must be nonempty", f"{path}.epsilons")
        tags = [epsilon_tag(eps) for eps in self.epsilons]
        for i, tag in enumerate(tags):
            first = tags.index(tag)
            if first < i:
                raise ConfigError(f"names the same mlmc_{tag} files as "
                                  f"epsilons[{first}]", f"{path}.epsilons[{i}]")
        check_levels(self.refinement, self.max_level, self.pilot_paths,
                     self.path_ceiling)
        check_strike(self.payoff, self.strike)

    @property
    def factors(self) -> tuple[str, ...]:
        """The models of the file that the payoff reads."""
        return ("model", "model2") if self.payoff == "spread" else ("model",)

    def reads(self) -> tuple[str, ...]:
        """Its own fields (a spread's strike and correlation only), the
        lower clamp, and the factors."""
        spread = self.payoff == "spread"
        return (_own(self, "mlmc", () if spread else ("strike", "correlation"))
                + ("scheme.k", "scheme.scale_lo") + _models(*self.factors))


# Per price mode: what it reads besides `price.mode` and `_EVERY_COMMAND`,
# and the engine it runs, with the engine's declared families.
_SAMPLING = ("price.paths", "price.fine_exponent", "price.horizon")
_PRICE_MODES = {
    "zcb-closed-form": (("price.horizon",),
                        ("zcb-closed-form mode", ZCB_CLOSED_FORM_FAMILIES)),
    "spread-mc": (_SAMPLING + ("price.strike", "price.correlation") + _models("model2"),
                  ("spread-mc mode", IMPLICIT_FAMILIES)),
    "gl-exact": (_SAMPLING, ("gl-exact mode", CLOSED_FORM_FAMILIES)),
}
PRICE_MODES = tuple(_PRICE_MODES)


@dataclass(frozen=True, eq=True)
class PriceSection(_Block):
    """Single-value pricing block."""

    mode: str = _field(_string, choices=PRICE_MODES)
    paths: int = _price_arg(_integer, "paths", 100000)
    fine_exponent: int = _price_arg(_integer, "fine_exponent")
    horizon: float = _price_arg(_number, "horizon")
    strike: float | None = _engine_field(Problem, _number, "strike")
    correlation: float = _engine_field(Problem, _number, "correlation")

    def _check(self, path: str) -> None:
        if self.mode == "spread-mc":
            check_strike("spread", self.strike)

    def reads(self) -> tuple[str, ...]:
        """`mode` and what the mode reads (`_PRICE_MODES`); never `scheme`."""
        return ("price.mode",) + _PRICE_MODES[self.mode][0]


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

    @functools.cached_property
    def _plan(self) -> ProjectionPlan | None:
        """The study's projection plan; None when the model or the plan is
        refused, which is the run's to report (exit 3)."""
        try:
            return self.scheme.build_plan(self.model.build())
        except SdeProjError:
            return None

    def _commands(self) -> list[tuple[tuple[str, ...], list]]:
        """Per command block of the file: the fields it reads and the
        engines it runs, as (name, declared families) pairs."""
        study, mlmc, price, out = self.study, self.mlmc, self.price, []
        if study is not None:
            out.append((study.reads(self.scheme, self._plan, self.model),
                        [_STUDY_ENGINES[key] for key in (study.reference,
                                                         self.scheme.variant)
                         if key in _STUDY_ENGINES]))
        if mlmc is not None:
            out.append((mlmc.reads(), [("the multilevel engine", MLMC_FAMILIES)]))
        if price is not None:
            out.append((price.reads(), [_PRICE_MODES[price.mode][1]]))
        return out

    def reads(self) -> frozenset[str]:
        """The dotted fields that some command block of the file reads."""
        return frozenset(_EVERY_COMMAND).union(*(read for read, _ in self._commands()))

    def _check(self, path: str) -> None:
        commands = self._commands()
        read = frozenset(_EVERY_COMMAND).union(*(reads for reads, _ in commands))
        if self.model2 is None and "model2.family" in read:
            raise ConfigError("two-factor payoffs need a model2 block", "model2")
        _refuse_unread(self, "", read)
        # Each engine's own family declaration, as far as the config names
        # its families, for every model whose family its block reads.
        for reads, runs in commands:
            models = ("model", "model2") if "model2.family" in reads else ("model",)
            for engine, families in runs:
                admitted = tuple(family for family in FAMILIES if family in families)
                for name in models:
                    check_family(getattr(self, name).family, admitted, engine,
                                 f"{name}.family")
        # The study's read-out and the multilevel plans' lower exponent,
        # checked on the built plan and models: parameters they refuse are
        # the run's to report (exit 3).
        if self.study is not None and self._plan is not None:
            check_readout(self.scheme.clamp, self._plan, "scheme.clamp")
        if self.mlmc is not None:
            try:
                models = [getattr(self, name).build() for name in self.mlmc.factors]
            except SdeProjError:
                return
            check_lower_exponent(models, self.scheme.lower_clamp()["k"], "scheme.k")


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
