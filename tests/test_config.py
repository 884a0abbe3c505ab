import copy
import json
import math
import os
import shutil
from dataclasses import MISSING, fields

import pytest
import yaml
from click.testing import CliRunner

from sdeproj import convergence, mlmc
from sdeproj.brownian import BrownianFabric
from sdeproj.cli import main
from sdeproj.config import (CLAMPS, FAMILIES, PAYOFFS, PRICE_MODES,
                            REFERENCES, VARIANTS, ExperimentConfig,
                            ModelConfig, SchemeConfig, from_mapping, loads)
from sdeproj.errors import ConfigError, DomainError
from sdeproj.models import cir_model, ginzburg_landau_model
from sdeproj.projection import ProjectionPlan, plan_exponents


def cir_block(**extra):
    block = {"family": "cir",
             "params": {"kappa": 2.0, "theta": 1.0, "xi": 0.5, "x0": 1.0}}
    block.update(extra)
    return block


def gl_block(**extra):
    block = {"family": "ginzburg-landau",
             "params": {"lambda": 0.5, "sigma": 1.0, "x0": 1.0}}
    block.update(extra)
    return block


def base_mapping(**extra):
    mapping = {"model": cir_block(),
               "study": {"exponents": [3, 4, 5], "reference": "implicit-fine-grid"}}
    mapping.update(extra)
    return mapping


def test_vocabulary_constants():
    assert FAMILIES == ("cir", "three-halves", "ait-sahalia", "ginzburg-landau")
    assert VARIANTS == ("modified", "classical", "implicit-reference")
    assert CLAMPS == ("raw", "bar", "tilde", "check", "double")
    assert REFERENCES == ("closed-form", "implicit-fine-grid",
                          "modified-scheme-fine-grid")
    assert PRICE_MODES == ("zcb-closed-form", "spread-mc", "gl-exact")
    assert PAYOFFS == ("zcb", "spread")


def test_minimal_config_defaults():
    config = from_mapping(base_mapping())
    assert config.model.family == "cir"
    assert config.model.param("kappa") == 2.0
    assert config.scheme == SchemeConfig()
    assert config.study.paths == 10000
    assert config.study.fine_exponent == 12
    assert config.study.space == "x"
    assert config.seed == 0
    assert config.out == "results"
    assert config.threads == 0
    assert config.mlmc is None and config.price is None


def test_error_paths_are_dotted():
    with pytest.raises(ConfigError) as err:
        from_mapping({"model": cir_block(family="weird"),
                      "study": {"exponents": [3], "reference": "closed-form"}})
    assert err.value.path == "model.family"
    with pytest.raises(ConfigError) as err:
        from_mapping(base_mapping(
            mlmc={"payoff": "zcb", "epsilons": [1e-3, "bad"]}))
    assert err.value.path == "mlmc.epsilons[1]"
    with pytest.raises(ConfigError) as err:
        from_mapping({"model": {"family": "cir",
                                "params": {"kappa": 2.0, "theta": 1.0,
                                           "xi": 0.5}}})
    assert err.value.path == "model.params.x0"


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError) as err:
        from_mapping(base_mapping(extra=1))
    assert "unknown field" in str(err.value)
    with pytest.raises(ConfigError) as err:
        from_mapping(base_mapping(scheme={"variant": "modified", "knob": 3}))
    assert err.value.path == "scheme"
    with pytest.raises(ConfigError):
        from_mapping({"model": cir_block(typo=True)})
    mapping = base_mapping()
    mapping[1] = "x"  # YAML reads `1: x` with an integer key
    with pytest.raises(ConfigError) as err:
        from_mapping(mapping)
    assert str(err.value) == "unknown field(s): 1"


def test_numeric_strings_accepted():
    # YAML 1.1 reads dotless scientific notation as a string.
    config = from_mapping(base_mapping(
        mlmc={"payoff": "zcb", "epsilons": ["5e-5", 1e-3]}))
    assert config.mlmc.epsilons == (5e-5, 1e-3)
    with pytest.raises(ConfigError):
        from_mapping(base_mapping(
            mlmc={"payoff": "zcb", "epsilons": ["five"]}))


def test_gl_takes_no_moment_overrides():
    ModelConfig.parse(cir_block(q=6.0, q_prime=4.0), "model")
    with pytest.raises(ConfigError):
        ModelConfig.parse(gl_block(q=6.0), "model")
    with pytest.raises(ConfigError):
        ModelConfig.parse(gl_block(q_prime=4.0), "model")


def test_study_validation():
    def study(**overrides):
        block = {"exponents": [3, 4], "reference": "implicit-fine-grid"}
        block.update(overrides)
        return from_mapping({"model": cir_block(), "study": block})

    assert study().study.exponents == (3, 4)
    with pytest.raises(ConfigError):
        study(exponents=[])
    with pytest.raises(ConfigError):
        study(exponents=[4, 3])
    with pytest.raises(ConfigError):
        study(exponents=[3, 3])
    with pytest.raises(ConfigError):
        study(exponents=[0, 3])
    with pytest.raises(ConfigError):
        study(exponents=[3, 12], fine_exponent=12)
    with pytest.raises(ConfigError):
        study(fine_exponent=25)
    with pytest.raises(ConfigError):
        study(paths=0)
    with pytest.raises(ConfigError):
        study(horizon=0.0)
    with pytest.raises(ConfigError):
        study(space="z")
    with pytest.raises(ConfigError):
        study(reference="imaginary")
    with pytest.raises(ConfigError):
        study(exponents=[3, 4.5])


def test_mlmc_section_validation():
    def mlmc(**overrides):
        block = {"payoff": "zcb", "epsilons": [1e-3]}
        block.update(overrides)
        return from_mapping({"model": cir_block(), "mlmc": block})

    assert mlmc().mlmc.refinement == 4
    with pytest.raises(ConfigError):
        mlmc(epsilons=[])
    with pytest.raises(ConfigError):
        mlmc(epsilons=[1e-3, 0.0])
    with pytest.raises(ConfigError):
        mlmc(refinement=1)
    with pytest.raises(ConfigError):
        mlmc(max_level=0)
    with pytest.raises(ConfigError):
        mlmc(pilot_paths=1)
    with pytest.raises(ConfigError):
        mlmc(horizon=-1.0)
    with pytest.raises(ConfigError):
        mlmc(correlation=-1.01)
    with pytest.raises(ConfigError):
        mlmc(path_ceiling=0)
    with pytest.raises(ConfigError):
        mlmc(payoff="spread")  # needs strike (and model2, checked later)


def test_cross_section_rules():
    spread_mlmc = {"payoff": "spread", "epsilons": [1e-3], "strike": 0.001}
    with pytest.raises(ConfigError) as err:
        from_mapping({"model": cir_block(), "mlmc": spread_mlmc})
    assert err.value.path == "model2"
    from_mapping({"model": cir_block(), "model2": cir_block(),
                  "mlmc": spread_mlmc})

    with pytest.raises(ConfigError) as err:
        from_mapping({"model": cir_block(),
                      "price": {"mode": "spread-mc", "strike": 0.001}})
    assert err.value.path == "model2"
    with pytest.raises(ConfigError):
        from_mapping({"model": cir_block(),
                      "price": {"mode": "spread-mc"}})  # strike missing

    with pytest.raises(ConfigError) as err:
        from_mapping({"model": gl_block(),
                      "price": {"mode": "zcb-closed-form"}})
    assert err.value.path == "model.family"
    with pytest.raises(ConfigError):
        from_mapping({"model": cir_block(), "price": {"mode": "gl-exact"}})

    with pytest.raises(ConfigError) as err:
        from_mapping({"model": cir_block(),
                      "scheme": {"variant": "classical"},
                      "mlmc": {"payoff": "zcb", "epsilons": [1e-3]}})
    assert err.value.path == "scheme.variant"
    for key in ("k_prime", "scale_hi"):
        with pytest.raises(ConfigError) as err:
            from_mapping({"model": cir_block(), "scheme": {key: 0.25},
                          "mlmc": {"payoff": "zcb", "epsilons": [1e-3]}})
        assert err.value.path == f"scheme.{key}"

    with pytest.raises(ConfigError):
        from_mapping(base_mapping(seed=-1))
    with pytest.raises(ConfigError):
        from_mapping(base_mapping(seed=2 ** 64))
    from_mapping(base_mapping(seed=2 ** 64 - 1))
    with pytest.raises(ConfigError):
        from_mapping(base_mapping(threads=-1))


def test_model_build_matches_direct_constructors():
    triple = ModelConfig.parse(cir_block(), "model").build()
    assert triple.transformed.meta["family"] == "cir"
    assert triple.transformed.meta["omega"] == 16.0
    gl = ModelConfig.parse(gl_block(), "model").build()
    assert gl.transformed.meta["family"] == "ginzburg-landau"
    overridden = ModelConfig.parse(cir_block(q=12.0), "model").build()
    assert overridden.transformed.q == 12.0


def test_scheme_build_plan():
    triple = ModelConfig.parse(cir_block(), "model").build()
    plan = SchemeConfig.parse({"variant": "classical"}, "scheme").build_plan(triple)
    assert plan.k is None and plan.k_prime is None
    manual = SchemeConfig.parse({"k": 0.25, "scale_lo": 0.01},
                                "scheme").build_plan(triple)
    assert isinstance(manual, ProjectionPlan)
    assert manual.k == 0.25 and manual.scale_lo == 0.01
    derived = SchemeConfig.parse({}, "scheme").build_plan(triple)
    assert derived.rate is not None
    with pytest.raises(ConfigError):
        SchemeConfig.parse({"k": -0.25}, "scheme")
    with pytest.raises(ConfigError):
        SchemeConfig.parse({"clamp": "soft"}, "scheme")


def test_roundtrip_through_mapping():
    # The study reads `q`, since its plan comes from the planner.
    mapping = {
        "model": cir_block(q=12.0),
        "model2": {"family": "cir",
                   "params": {"kappa": 0.8, "theta": 0.05, "xi": 0.016,
                              "x0": 0.06}},
        "scheme": {"variant": "modified", "scale_lo": 0.01},
        "study": {"exponents": [3, 4], "reference": "implicit-fine-grid"},
        "mlmc": {"payoff": "spread", "epsilons": [1e-3, 5e-4],
                 "strike": 0.001, "correlation": -0.7, "max_level": 3},
        "price": {"mode": "spread-mc", "strike": 0.001, "paths": 500},
        "seed": 7,
        "out": "runs/demo",
        "threads": 2,
    }
    config = from_mapping(mapping)
    assert isinstance(config, ExperimentConfig)
    assert from_mapping(config.to_mapping()) == config


def test_loads_text_formats():
    yaml_text = """
model:
  family: cir
  params: {kappa: 2.0, theta: 1.0, xi: 0.5, x0: 1.0}
study:
  exponents: [3, 4, 5]
  reference: implicit-fine-grid
"""
    config = loads(yaml_text)
    assert config.study.exponents == (3, 4, 5)
    json_text = ('{"model": {"family": "cir", "params": {"kappa": 2.0, '
                 '"theta": 1.0, "xi": 0.5, "x0": 1.0}}}')
    assert loads(json_text).model.family == "cir"
    with pytest.raises(ConfigError):
        loads("")
    with pytest.raises(ConfigError):
        loads("- just\n- a\n- list\n")
    with pytest.raises(ConfigError):
        loads("model: [unclosed\n")


FAMILY_PARAMS = {
    "cir": {"kappa": 2.0, "theta": 1.0, "xi": 0.5, "x0": 1.0},
    "three-halves": {"c1": 1.0, "c2": 1.0, "c3": 0.5, "x0": 1.0},
    "ait-sahalia": {"a_minus1": 1.0, "a0": 1.0, "a1": 1.0, "a2": 1.0,
                    "gamma": 1.0, "varrho": 2.0, "rho": 1.5, "x0": 1.0},
    "ginzburg-landau": {"lambda": 0.5, "sigma": 1.0, "x0": 1.0},
}
HALF_LINE = ("cir", "three-halves", "ait-sahalia")


def family_block(family):
    return {"family": family, "params": dict(FAMILY_PARAMS[family])}


def study(reference, **extra):
    return dict(extra, study={"exponents": [3], "reference": reference,
                              "fine_exponent": 4, "paths": 2})


# gate: (command, admitted families, path of the refused field, experiment
# with the gated model of the given family)
GATES = {
    "implicit-fine-grid": ("convergence", ("cir",), "model.family",
                           lambda f: study("implicit-fine-grid",
                                           model=family_block(f))),
    "implicit-reference": ("convergence", ("cir",), "model.family",
                           lambda f: study("modified-scheme-fine-grid",
                                           model=family_block(f),
                                           scheme={"variant": "implicit-reference"})),
    "closed-form": ("convergence", ("ginzburg-landau",), "model.family",
                    lambda f: study("closed-form", model=family_block(f))),
    "spread-mc model": ("price", ("cir",), "model.family",
                        lambda f: {"model": family_block(f), "model2": cir_block(),
                                   "price": {"mode": "spread-mc", "strike": 0.001,
                                             "paths": 2, "fine_exponent": 2}}),
    "spread-mc model2": ("price", ("cir",), "model2.family",
                         lambda f: {"model": cir_block(), "model2": family_block(f),
                                    "price": {"mode": "spread-mc", "strike": 0.001,
                                              "paths": 2, "fine_exponent": 2}}),
    "mlmc zcb": ("mlmc", HALF_LINE, "model.family",
                 lambda f: {"model": family_block(f),
                            "mlmc": {"payoff": "zcb", "epsilons": [1e-3]}}),
    "mlmc spread model2": ("mlmc", HALF_LINE, "model2.family",
                           lambda f: {"model": cir_block(), "model2": family_block(f),
                                      "mlmc": {"payoff": "spread", "epsilons": [1e-3],
                                               "strike": 0.001}}),
    "zcb-closed-form": ("price", ("cir",), "model.family",
                        lambda f: {"model": family_block(f),
                                   "price": {"mode": "zcb-closed-form"}}),
    "gl-exact": ("price", ("ginzburg-landau",), "model.family",
                 lambda f: {"model": family_block(f),
                            "price": {"mode": "gl-exact", "paths": 2,
                                      "fine_exponent": 2}}),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("gate", sorted(GATES))
def test_engine_family_gates_refuse_before_running(gate, family, tmp_path):
    command, admitted, path, experiment = GATES[gate]
    mapping = experiment(family)
    if family in admitted:
        from_mapping(mapping)
        return
    with pytest.raises(ConfigError) as err:
        from_mapping(mapping)
    assert err.value.path == path
    assert family in str(err.value)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(dict(mapping, out=str(out))), encoding="utf-8")
    result = CliRunner().invoke(main, [command, str(cfg)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"config error: {path}: ")
    assert not out.exists()


# Every block, each with its required fields only and the strike that the
# two-factor payoff and mode need, so that some command block reads each
# field that a bound probe sets.
MINIMAL = {"model": cir_block(), "model2": cir_block(),
           "study": {"exponents": [3], "reference": "implicit-fine-grid"},
           "mlmc": {"payoff": "spread", "epsilons": [1e-3], "strike": 0.001},
           "price": {"mode": "spread-mc", "strike": 0.001}}
# MINIMAL with the one-factor multilevel payoff and price mode, which read
# no second model.
ZCB = {key: value for key, value in copy.deepcopy(MINIMAL).items() if key != "model2"}
ZCB.update(mlmc={"payoff": "zcb", "epsilons": [1e-3]}, price={"mode": "zcb-closed-form"})


def declared_fields(cls=ExperimentConfig, at=()):
    """Every declared field of the schema as (keys of its block, field); a
    field read by a block's `parse` is walked into."""
    for f in fields(cls):
        yield at, f
        block = getattr(f.metadata["read"], "__self__", None)
        if block is not None:
            yield from declared_fields(block, at + (f.name,))


def bound_probes(f):
    """(value, accepted) pairs at and just past each side of f's bound."""
    bound = f.metadata["bound"]
    whole = isinstance(f.default, int)
    if "choices" in bound:
        yield "none-of-these", False
    if bound.get("positive"):
        yield 0, False
    if "lo" in bound:
        yield bound["lo"], True
        yield bound["lo"] - 1 if whole else math.nextafter(bound["lo"], -math.inf), False
    if "hi" in bound:
        yield bound["hi"], True
        yield bound["hi"] + 1 if whole else math.nextafter(bound["hi"], math.inf), False


def test_declared_bounds_refuse_the_value_just_past_them():
    probed = set()
    for at, f in declared_fields():
        block = MINIMAL
        for key in at:
            block = block.get(key, {})
        listed = isinstance(block.get(f.name), list)
        for value, accepted in bound_probes(f):
            mapping = copy.deepcopy(MINIMAL)
            target = mapping
            for key in at:
                target = target.setdefault(key, {})
            target[f.name] = [value] if listed else value
            dotted = ".".join(at + (f.name,)) + ("[0]" if listed else "")
            probed.add(dotted)
            if accepted:
                from_mapping(mapping)
                continue
            with pytest.raises(ConfigError) as err:
                from_mapping(mapping)
            assert err.value.path == dotted, (value, str(err.value))
    assert {"model.family", "scheme.k", "study.fine_exponent", "mlmc.epsilons[0]",
            "price.correlation", "seed", "threads"} <= probed


def test_minimal_config_yields_every_declared_default():
    """Each field that MINIMAL or ZCB leaves out takes its declared default,
    and each field but a block that one of them gives, the other leaves
    out: ZCB has none of the strikes that MINIMAL's spread payoff and mode
    need."""
    defaulted, given_fields = set(), set()
    for base in (MINIMAL, ZCB):
        config = from_mapping(base)
        for at, f in declared_fields():
            owner, given = config, base
            for key in at:
                owner, given = getattr(owner, key), given.get(key, {})
            if owner is None:
                continue  # a block that this fixture leaves out
            dotted = ".".join(at + (f.name,))
            if f.default is MISSING and f.default_factory is MISSING:
                assert f.name in given, dotted
            elif f.name in given:
                if not hasattr(f.metadata["read"], "__self__"):
                    given_fields.add(dotted)
            else:
                default = f.default if f.default is not MISSING else f.default_factory()
                assert getattr(owner, f.name) == default, dotted
                defaulted.add(dotted)
    assert given_fields <= defaulted, given_fields - defaulted
    assert len(defaulted) >= 25


@pytest.mark.parametrize("mlmc_block, path", [
    ({"pilot_paths": 100, "max_level": 2, "path_ceiling": 10}, "mlmc.path_ceiling"),
    ({"epsilons": [1.0e-2, 1.0000001e-2]}, "mlmc.epsilons[1]"),
])
def test_mlmc_runs_that_cannot_finish_cleanly_are_refused(mlmc_block, path, tmp_path):
    # A ceiling below the pilot phase fails after the header is printed; two
    # epsilons with one file tag would write over each other's files.
    from_mapping({"model": cir_block(),
                  "mlmc": {"payoff": "zcb", "epsilons": [1.0e-2, 1.00001e-2],
                           "pilot_paths": 100, "max_level": 2, "path_ceiling": 300}})
    out = tmp_path / "out"
    mapping = {"model": cir_block(), "out": str(out),
               "mlmc": dict({"payoff": "zcb", "epsilons": [1.0e-2]}, **mlmc_block)}
    with pytest.raises(ConfigError) as err:
        from_mapping(mapping)
    assert err.value.path == path
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    result = CliRunner().invoke(main, ["mlmc", str(cfg)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"config error: {path}: ")
    assert not out.exists()


DIAGNOSTICS = os.path.join(os.path.dirname(__file__), "data",
                           "config_diagnostics.txt")


def single_fault_variants(base):
    """(label, mapping) for every single-fault variant of `base`: per
    declared field, each bound probe, a wrong type, the field deleted and an
    unknown sibling."""
    for at, f in declared_fields():
        dotted = ".".join(at + (f.name,))
        block = base
        for key in at:
            block = block.get(key, {})
        listed = isinstance(block.get(f.name), list)
        variants = [(f"= {value!r}", [value] if listed else value)
                    for value, _ in bound_probes(f)]
        variants += [("= True", True), ("deleted", MISSING),
                     ("unknown sibling", "sibling")]
        for label, value in variants:
            mapping = copy.deepcopy(base)
            target = mapping
            for key in at:
                target = target.setdefault(key, {})
            if label == "unknown sibling":
                target[f"{f.name}_typo"] = value
            elif value is MISSING:
                target.pop(f.name, None)
            else:
                target[f.name] = value
            yield f"{dotted} {label}", mapping


def diagnostic_lines():
    """One line per single-fault variant of MINIMAL and ZCB: its label and
    `str(ConfigError)`, or "admitted"."""
    lines = []
    for name, base in (("minimal", MINIMAL), ("zcb", ZCB)):
        for label, mapping in single_fault_variants(base):
            try:
                from_mapping(mapping)
                outcome = "admitted"
            except ConfigError as exc:
                outcome = str(exc)
            lines.append(f"{name} {label} -> {outcome}")
    return lines


def test_every_single_fault_diagnostic_is_pinned():
    """Regenerate the file with
    `PYTHONPATH=src:tests python -c "import test_config as t;
    open(t.DIAGNOSTICS, 'w').write('\\n'.join(t.diagnostic_lines()) + '\\n')"`
    only when a message or dotted path is meant to change."""
    with open(DIAGNOSTICS, encoding="utf-8") as handle:
        pinned = handle.read().splitlines()
    assert diagnostic_lines() == pinned


SPREAD_MODELS = {"model": {"family": "cir", "params": {"kappa": 1.0, "theta": 0.06,
                                                         "xi": 0.04, "x0": 0.05}},
                 "model2": {"family": "cir", "params": {"kappa": 0.8, "theta": 0.05,
                                                          "xi": 0.016, "x0": 0.06}}}
TINY_STUDY = {"exponents": [2, 3], "reference": "implicit-fine-grid", "paths": 16,
              "fine_exponent": 5}
TINY_MLMC = {"epsilons": [0.01], "max_level": 2, "pilot_paths": 8}
# Per command, payoff and mode (and per way a study plans): the command and
# a tiny file that runs it.
READERS = {
    "study planned": ("convergence", {"model": cir_block(), "study": TINY_STUDY}),
    "study manual": ("convergence", {"model": cir_block(), "scheme": {"k": 0.25},
                                     "study": TINY_STUDY}),
    "study classical": ("convergence", {"model": cir_block(),
                                        "scheme": {"variant": "classical"},
                                        "study": TINY_STUDY}),
    "study symmetric": ("convergence", {"model": gl_block(), "study": dict(
        TINY_STUDY, reference="closed-form")}),
    "mlmc zcb": ("mlmc", {"model": cir_block(), "mlmc": dict(TINY_MLMC, payoff="zcb")}),
    "mlmc spread": ("mlmc", dict(SPREAD_MODELS, mlmc=dict(
        TINY_MLMC, payoff="spread", epsilons=[1e-3], strike=0.001, correlation=-0.7))),
    "price zcb-closed-form": ("price", {"model": cir_block(),
                                        "price": {"mode": "zcb-closed-form"}}),
    "price gl-exact": ("price", {"model": gl_block(), "price": {
        "mode": "gl-exact", "paths": 16, "fine_exponent": 4}}),
    "price spread-mc": ("price", dict(SPREAD_MODELS, price={
        "mode": "spread-mc", "strike": 0.001, "correlation": -0.7, "paths": 16,
        "fine_exponent": 4})),
}
# Valid values to try besides each field's other choices and the accepted
# values of its bound probes, which are kept at or below TINY.
OTHER_VALUES = {
    "model.q": [9.0], "model.q_prime": [4.0], "model2.q": [9.0],
    "model2.q_prime": [4.0], "scheme.k": [0.2], "scheme.k_prime": [0.5],
    "scheme.scale_lo": [0.5], "scheme.scale_hi": [0.5], "study.exponents": [[2, 4]],
    "study.fine_exponent": [6], "price.fine_exponent": [5], "study.horizon": [0.5],
    "mlmc.epsilons": [[0.02]], "mlmc.horizon": [0.5],
    "mlmc.strike": [0.002], "mlmc.correlation": [0.5], "mlmc.path_ceiling": [24],
    "price.horizon": [0.5], "price.strike": [0.002], "price.correlation": [0.5],
}
TINY = {"study.fine_exponent": 6, "price.fine_exponent": 6, "study.paths": 64,
        "price.paths": 64, "mlmc.pilot_paths": 64}
# Fields whose change alone may be refused by another rule: a family that an
# engine does not run, a payoff or mode that needs fields the file lacks.
SELECTORS = {"model.family", "model2.family", "mlmc.payoff", "price.mode"}
UNREAD = "no command block in this file reads it"


def other_values(dotted, f, base):
    """Valid values of field `f` at `dotted` other than `base`'s: the other
    choices, the accepted bound probes, then OTHER_VALUES.  A family comes
    with its parameters, as the whole model block."""
    bound = f.metadata["bound"]
    values = [c for c in bound.get("choices", ())]
    values += [v for v, accepted in bound_probes(f)
               if accepted and v <= TINY.get(dotted, math.inf)]
    values += OTHER_VALUES.get(dotted, [])
    if dotted.endswith(".params"):
        values.append(dict(base, x0=1.25))
    return [v for v in values if v != base]


def outcome(command, mapping, tmp_path):
    """Exit code, stdout and stderr of `command` on `mapping`, and its output
    files without the echoes of the file (`config`, and `model` and `plan`
    in convergence.json)."""
    shutil.rmtree(tmp_path / "out", ignore_errors=True)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    result = CliRunner().invoke(main, [command, str(cfg), "--out", str(tmp_path / "out")])
    files = {}
    for path in sorted((tmp_path / "out").glob("*")):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            doc = json.loads(text)
            doc.pop("config")
            doc.pop("model", None)
            doc.pop("plan", None)
            text = json.dumps(doc, sort_keys=True)
        files[path.name] = text
    return result.exit_code, result.stdout, result.stderr, files


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_field_a_command_reads_changes_its_run_and_every_other_is_refused(
        reader, tmp_path):
    """Walks the schema for one command, payoff or mode.  A field that the
    file's command blocks declare that they read (`ExperimentConfig.reads`)
    changes the exit code or the output outside the echoes for some valid
    value off the base's; `out` and `threads` change no value by design.
    Any other field, set alone off its default, exits 2 at its own path."""
    command, base = READERS[reader]
    base = dict(copy.deepcopy(base), seed=9, threads=1)
    read = from_mapping(base).reads()
    first = outcome(command, base, tmp_path)
    assert first[0] in (0, 1), first
    refused = set()
    for at, f in declared_fields():
        dotted = ".".join(at + (f.name,))
        block = at[0] if at else f.name
        whole = dotted == "model2" and "model2" not in base
        if dotted in ("out", "threads") \
                or block in ("study", "mlmc", "price") and block not in base:
            continue  # no value by design, or another command's block
        if not at and hasattr(f.metadata["read"], "__self__") and not whole \
                or at == ("model2",) and "model2" not in base:
            continue  # a block walked field by field, or refused whole
        owner = base
        for key in at:
            owner = owner[key] if key in owner else {}
        default = f.default if f.default_factory is MISSING else None
        current = owner.get(f.name, default)
        if whole:
            values = [gl_block()]
        elif dotted.endswith(".family"):
            values = [family_block(c) for c in FAMILIES if c != current]
        else:
            values = other_values(dotted, f, current)
        assert values, dotted

        def run(value):
            mapping = copy.deepcopy(base)
            target = mapping
            for key in at:
                target = target.setdefault(key, {})
            if dotted.endswith(".family"):
                mapping[at[0]] = value
            else:
                target[f.name] = value
            return outcome(command, mapping, tmp_path)

        if dotted in read:
            for value in values:
                code, stdout, stderr, files = run(value)
                if (code, stdout, files) != (first[0], first[1], first[3]) \
                        and (code != 2 or dotted in SELECTORS) \
                        and not stderr.startswith(f"config error: {dotted}: {UNREAD}"):
                    break
            else:
                pytest.fail(f"{reader}: no value of {dotted} changes the run")
        else:
            code, _, stderr, _ = run(values[0])
            assert code == 2 and stderr.startswith(f"config error: {dotted}: "), \
                (dotted, stderr)
            refused.add(dotted)
    # The fields each command used to admit and then ignore.
    ignored = {"price gl-exact": {"scheme.variant", "scheme.k_prime", "scheme.clamp"},
               "mlmc zcb": {"mlmc.strike", "mlmc.correlation", "model2", "model.q"},
               "price zcb-closed-form": {"price.paths", "price.fine_exponent",
                                         "price.strike", "price.correlation"},
               "study classical": {"scheme.k", "scheme.scale_lo", "model2"},
               # Sides that the plan does not clamp: cir grows at most
               # linearly (alpha 0), and ginzburg-landau's box is symmetric.
               "study planned": {"scheme.scale_hi", "model.q_prime"},
               "study manual": {"scheme.scale_hi", "model.q", "model.q_prime"},
               "study symmetric": {"scheme.scale_lo"}}
    assert ignored.get(reader, set()) <= refused


@pytest.mark.parametrize("scheme", [{"variant": "classical"},
                                    {"variant": "implicit-reference"},
                                    {"k_prime": 0.5, "scale_hi": 2.0}])
def test_mlmc_beside_a_study_runs_the_modified_scheme_whatever_the_study_sets(
        scheme, tmp_path):
    """A field is admitted when any command block of the file reads it, so
    `sdeproj mlmc` runs on a file whose study sets scheme fields that the
    multilevel engine never reads, and its outputs are those of the file
    without them."""
    alone = {"model": cir_block(), "mlmc": dict(TINY_MLMC, payoff="zcb"), "seed": 9,
             "threads": 1}
    first = outcome("mlmc", alone, tmp_path)
    assert first[0] == 0, first
    shared = dict(copy.deepcopy(alone), scheme=scheme, study=TINY_STUDY)
    assert outcome("mlmc", shared, tmp_path) == first
    with pytest.raises(ConfigError) as err:
        from_mapping(dict(alone, scheme=scheme))
    assert err.value.path == f"scheme.{next(iter(scheme))}"


class Drawn(Exception):
    """Raised by the patched `fold`: the engine admitted its arguments."""


@pytest.fixture
def no_draw(monkeypatch):
    """The engines' `fold` raises `Drawn` instead of drawing a path."""
    def drawn(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(mlmc, "fold", drawn)
    monkeypatch.setattr(convergence, "fold", drawn)


CIR = cir_model(2.0, 1.0, 0.5, 1.0)


def _multilevel(**arg):
    return mlmc.MlmcConfig(**dict(dict(models=(CIR,), payoff="zcb", horizon=1.0,
                                       epsilon=1e-3), **arg))


def _estimate(**arg):
    return mlmc.mlmc_estimate(_multilevel(**arg), BrownianFabric(0))


def _problem(**arg):
    return mlmc.Problem(**dict(dict(models=(CIR,), payoff="zcb", horizon=1.0), **arg))


def _study(**arg):
    return convergence.run_convergence_study(**dict(dict(
        model=CIR.transformed, lamperti=CIR.lamperti,
        plan=plan_exponents(CIR.transformed), exponents=[3], paths=2,
        reference="implicit-fine-grid", fabric=BrownianFabric(0), fine_exponent=4),
        **arg))


def _implicit_price(**arg):
    return mlmc.implicit_price(_multilevel(), BrownianFabric(0),
                               **dict(dict(paths=2, fine_exponent=4), **arg))


def _gl_price(**arg):
    return mlmc.gl_exact_price(ginzburg_landau_model(0.5, 1.0, 1.0),
                               BrownianFabric(0),
                               **dict(dict(paths=2, fine_exponent=4), **arg))


# Config field whose bound an engine declares -> (a library call that takes
# the field's value as one keyword argument, that argument's name).
SHARED_RULES = {
    "scheme.variant": (_study, "variant"),
    "scheme.k": (_multilevel, "k"),
    "scheme.scale_lo": (_multilevel, "scale_lo"),
    "scheme.clamp": (_study, "readout"),
    "study.reference": (_study, "reference"),
    "study.paths": (_study, "paths"),
    "study.fine_exponent": (_study, "fine_exponent"),
    "study.horizon": (_study, "horizon"),
    "study.space": (_study, "space"),
    "mlmc.payoff": (_multilevel, "payoff"),
    "mlmc.epsilons": (_multilevel, "epsilon"),
    "mlmc.refinement": (_multilevel, "refinement"),
    "mlmc.max_level": (_multilevel, "max_level"),
    "mlmc.pilot_paths": (_multilevel, "pilot_paths"),
    "mlmc.horizon": (_multilevel, "horizon"),
    "mlmc.correlation": (_multilevel, "correlation"),
    "mlmc.strike": (_multilevel, "strike"),
    "price.paths": (_implicit_price, "paths"),
    "price.fine_exponent": (_implicit_price, "fine_exponent"),
    "price.horizon": (_gl_price, "horizon"),
    "price.correlation": (_problem, "correlation"),
    "price.strike": (_problem, "strike"),
}
CONFIG_ONLY_BOUNDS = {"model.family", "model2.family", "scheme.k_prime",
                      "scheme.scale_hi", "price.mode", "seed", "threads"}


NAN = float("nan")


@pytest.mark.parametrize("call, argument, value", [
    (_estimate, "epsilon", NAN),
    (_estimate, "horizon", NAN),
    (_estimate, "k", NAN),
    (_study, "horizon", -1.0),
    (_study, "horizon", NAN),
    (_study, "fine_exponent", 25),
    (_implicit_price, "fine_exponent", -1),
    (_implicit_price, "fine_exponent", 25),
    (_gl_price, "fine_exponent", -1),
    (_gl_price, "fine_exponent", 25),
    (_gl_price, "horizon", -1.0),
], ids=["mlmc-epsilon-nan", "mlmc-horizon-nan", "mlmc-k-nan", "study-horizon-neg",
        "study-horizon-nan", "study-fine-25", "implicit-fine-neg", "implicit-fine-25",
        "gl-fine-neg", "gl-fine-25", "gl-horizon-neg"])
def test_library_refuses_out_of_domain_arguments_before_any_draw(
        call, argument, value, no_draw):
    # Each of these used to be admitted, and then failed late or not at all.
    with pytest.raises(DomainError) as err:
        call(**{argument: value})
    assert err.value.field == argument


def test_engine_rules_are_one_rule_set_for_config_and_library(no_draw):
    """Each bound an engine declares refuses the value just past it both in
    the config (at the field's dotted path) and in the library (naming the
    argument), and admits the value on it in both."""
    bounded = set()
    for at, f in declared_fields():
        dotted = ".".join(at + (f.name,))
        if not f.metadata["bound"]:
            continue
        bounded.add(dotted)
        if dotted not in SHARED_RULES:
            continue
        call, argument = SHARED_RULES[dotted]
        block = MINIMAL
        for key in at:
            block = block.get(key, {})
        listed = isinstance(block.get(f.name), list)
        for value, accepted in bound_probes(f):
            mapping = copy.deepcopy(MINIMAL)
            target = mapping
            for key in at:
                target = target.setdefault(key, {})
            target[f.name] = [value] if listed else value
            if accepted:
                from_mapping(mapping)
                try:
                    call(**{argument: value})
                except Drawn:
                    pass
                continue
            with pytest.raises(ConfigError) as config_err:
                from_mapping(mapping)
            assert config_err.value.path == dotted + ("[0]" if listed else "")
            with pytest.raises(DomainError) as library_err:
                call(**{argument: value})
            assert library_err.value.field == argument, (dotted, value)
            assert library_err.value.reason == str(config_err.value).split(": ", 1)[1]
    assert bounded == set(SHARED_RULES) | CONFIG_ONLY_BOUNDS
    # Every bound an engine declares is probed from some config field.
    probed = {}
    for call, argument in SHARED_RULES.values():
        probed.setdefault(call, set()).add(argument)
    assert probed[_multilevel] | probed[_problem] == {
        f.name for f in fields(mlmc.MlmcConfig) if f.metadata.get("bound")}
    assert probed[_study] == set(convergence.STUDY_BOUNDS)
    assert probed[_implicit_price] | probed[_gl_price] == set(mlmc.PRICE_BOUNDS)


def test_library_refuses_a_non_finite_strike_before_any_draw(no_draw):
    # Both used to be admitted: the price came out (0.0, 0.0), and the
    # estimate raised NonFinite after drawing its pilot.
    spread = dict(models=(CIR, CIR), payoff="spread", horizon=1.0)
    calls = [
        lambda: mlmc.implicit_price(mlmc.Problem(strike=math.inf, **spread),
                                    BrownianFabric(0), paths=8, fine_exponent=3),
        lambda: mlmc.mlmc_estimate(mlmc.MlmcConfig(strike=NAN, epsilon=1e-3,
                                                   max_level=2, pilot_paths=100,
                                                   **spread), BrownianFabric(0)),
    ]
    for call in calls:
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.field == "strike"
        assert err.value.reason == "must be finite"
    # A zcb problem sets no strike, and has none to check.
    assert mlmc.Problem(models=(CIR,), payoff="zcb", horizon=1.0).strike is None
