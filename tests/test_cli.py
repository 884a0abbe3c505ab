import json
import math
import shutil

import pytest
import yaml
from click.testing import CliRunner

from sdeproj import SPEC_VERSION
from sdeproj.cli import main
from sdeproj.config import from_mapping

REFERENCE_SPREAD = 0.00310063


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def write_config(tmp_path, name, mapping):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    return str(path)


def conv_mapping(out, **study_overrides):
    study = {"exponents": [3, 4, 5, 6, 7], "reference": "implicit-fine-grid",
             "paths": 2000, "fine_exponent": 10}
    study.update(study_overrides)
    return {"model": {"family": "cir",
                      "params": {"kappa": 0.375, "theta": 1.0, "xi": 0.5,
                                 "x0": 1.0}},
            "scheme": {"k": 0.25},
            "study": study,
            "seed": 3,
            "out": out}


def spread_models():
    return {"model": {"family": "cir",
                      "params": {"kappa": 1.0, "theta": 0.06, "xi": 0.04,
                                 "x0": 0.05}},
            "model2": {"family": "cir",
                       "params": {"kappa": 0.8, "theta": 0.05, "xi": 0.016,
                                  "x0": 0.06}}}


def test_convergence_command(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "conv.yaml", conv_mapping(str(out)))
    result = invoke("convergence", cfg)
    assert result.exit_code == 0
    assert "rate 1.0035542541801368" in result.output
    assert "r_squared 0.9995426662308999" in result.output

    csv_lines = (out / "convergence.csv").read_text().splitlines()
    assert csv_lines[0] == "N,steps,error,M"
    assert csv_lines[1] == "3,8,0.00800974215658071,2000"
    assert len(csv_lines) == 6

    doc = json.loads((out / "convergence.json").read_text())
    assert doc["spec_version"] == SPEC_VERSION == "1.0"
    assert doc["fit"]["rate"] == 1.0035542541801368
    assert doc["seed"] == 3
    assert len(doc["records"]) == 5
    assert doc["records"][0]["diverged"] == 0
    # The config echo re-parses to an equivalent experiment.
    assert from_mapping(doc["config"]) == from_mapping(conv_mapping(str(out)))


def test_convergence_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "conv.yaml",
                       conv_mapping(str(out), exponents=[3, 4, 5]))
    assert invoke("convergence", cfg).exit_code == 0
    first = {name: (out / name).read_bytes()
             for name in ("convergence.csv", "convergence.json")}
    for name in first:
        (out / name).unlink()
    assert invoke("convergence", cfg).exit_code == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_seed_and_out_overrides(tmp_path):
    out = tmp_path / "a"
    cfg = write_config(tmp_path, "conv.yaml",
                       conv_mapping(str(out), exponents=[3, 4]))
    other = tmp_path / "b"
    result = invoke("convergence", cfg, "--seed", "123", "--out", str(other))
    assert result.exit_code == 0
    assert not out.exists()
    doc = json.loads((other / "convergence.json").read_text())
    assert doc["seed"] == 123
    assert doc["config"]["seed"] == 123
    assert doc["config"]["out"] == str(other)


def test_malformed_config_exits_2(tmp_path):
    out = tmp_path / "run"
    path = tmp_path / "broken.yaml"
    path.write_text("model: [unclosed\n", encoding="utf-8")
    result = invoke("convergence", str(path))
    assert result.exit_code == 2
    assert not out.exists()

    no_study = write_config(tmp_path, "nostudy.yaml", {
        "model": conv_mapping(str(out))["model"], "out": str(out)})
    assert invoke("convergence", no_study).exit_code == 2
    assert not out.exists()

    empty_eps = write_config(tmp_path, "eps.yaml", {
        "model": conv_mapping(str(out))["model"],
        "mlmc": {"payoff": "zcb", "epsilons": []},
        "out": str(out)})
    assert invoke("mlmc", empty_eps).exit_code == 2
    assert not out.exists()


@pytest.mark.parametrize("mlmc_block", [
    {"pilot_paths": 2, "max_level": 300},       # numpy's dimension limit
    {"refinement": 10 ** 12, "max_level": 1},   # a 14.6 TiB block
])
def test_over_deep_multilevel_grid_exits_2(mlmc_block, tmp_path):
    # The finest level may have at most 2**24 steps, as a study or a price;
    # past that a run used to create `out` and then crash.
    model = conv_mapping("unused")["model"]
    from_mapping({"model": model, "mlmc": {"payoff": "zcb", "epsilons": [1e-2],
                                           "refinement": 4, "max_level": 12}})
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "deep.yaml", {
        "model": model, "out": str(out),
        "mlmc": dict({"payoff": "zcb", "epsilons": [1e-2]}, **mlmc_block)})
    result = invoke("mlmc", cfg)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("config error: mlmc.max_level: ")
    assert not out.exists()


def test_infeasible_multilevel_plan_exits_2(tmp_path):
    # beta = 1.5 / 0.7 under the default k = 0.25: 2*beta*k exceeds 1, which
    # the run used to find only after printing a header and creating `out`.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "ait.yaml", {
        "model": {"family": "ait-sahalia",
                  "params": {"a_minus1": 1.0, "a0": 1.0, "a1": 1.0, "a2": 1.0,
                             "gamma": 1.0, "varrho": 2.5, "rho": 1.7, "x0": 1.0}},
        "mlmc": {"payoff": "zcb", "epsilons": [1e-2], "max_level": 2,
                 "pilot_paths": 100},
        "out": str(out)})
    result = invoke("mlmc", cfg)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("config error: scheme.k: 2*beta*k = ")
    assert not out.exists()


def test_unservable_readout_exits_2_before_any_draw(tmp_path):
    # A manual plan carries no read-out thresholds, so the double clamp
    # cannot read out; the run used to find it only after stepping every
    # path, and exited 3.
    out = tmp_path / "run"
    mapping = conv_mapping(str(out), exponents=[3, 4, 5], fine_exponent=7)
    mapping["scheme"] = {"k": 0.25, "k_prime": 0.25, "clamp": "double"}
    result = invoke("convergence", write_config(tmp_path, "clamp.yaml", mapping))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("config error: scheme.clamp: the plan lacks ")
    assert not out.exists()


def test_model_error_exits_3(tmp_path):
    out = tmp_path / "run"
    mapping = conv_mapping(str(out))
    mapping["model"]["params"]["xi"] = 2.0  # Feller-violating
    cfg = write_config(tmp_path, "feller.yaml", mapping)
    result = invoke("convergence", cfg)
    assert result.exit_code == 3
    assert not out.exists()


def test_budget_error_exits_4(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "budget.yaml", {
        "model": {"family": "cir",
                  "params": {"kappa": 2.0, "theta": 1.0, "xi": 0.5, "x0": 1.0}},
        "mlmc": {"payoff": "zcb", "epsilons": [1e-6], "max_level": 2,
                 "pilot_paths": 16, "path_ceiling": 48},
        "out": str(out)})
    assert invoke("mlmc", cfg).exit_code == 4


def test_all_divergent_study_exits_1(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "hot.yaml", {
        "model": {"family": "ginzburg-landau",
                  "params": {"lambda": 0.0, "sigma": 7.0, "x0": 1.0}},
        "scheme": {"variant": "classical"},
        "study": {"exponents": [3, 4], "reference": "closed-form",
                  "paths": 64, "fine_exponent": 8, "horizon": 3.0},
        "seed": 5,
        "out": str(out)})
    result = invoke("convergence", cfg)
    assert result.exit_code == 1
    assert "rate unavailable" in result.output
    doc = json.loads((out / "convergence.json").read_text())
    assert doc["fit"]["rate"] is None
    assert all(r["diverged"] == 64 for r in doc["records"])


def test_mlmc_zcb_command(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "zcb.yaml", {
        "model": {"family": "cir",
                  "params": {"kappa": 2.0, "theta": 1.0, "xi": 0.5, "x0": 1.0}},
        "mlmc": {"payoff": "zcb", "epsilons": [1e-3]},
        "seed": 11,
        "out": str(out)})
    result = invoke("mlmc", cfg)
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "epsilon estimator std_error rmse savings"

    csv_lines = (out / "mlmc_0.001.csv").read_text().splitlines()
    assert csv_lines[0] == "l,h_l,N_l,mean_diff,V_l,cost"
    assert all(line.count(",") == 5 for line in csv_lines)
    assert not any(";" in line for line in csv_lines)

    doc = json.loads((out / "mlmc_0.001.json").read_text())
    assert doc["spec_version"] == "1.0"
    assert doc["estimator"] == 0.3723877755735076
    assert doc["seed"] == 11
    active = [lv for lv in doc["levels"] if lv["var_diff"] > 0]
    assert len(active) >= 3
    assert doc["savings"] > 1.0


def test_mlmc_spread_command(tmp_path):
    out = tmp_path / "run"
    mapping = spread_models()
    mapping.update({"mlmc": {"payoff": "spread", "epsilons": ["1e-4"],
                             "strike": 0.001, "correlation": 0.0},
                    "seed": 21, "out": str(out)})
    cfg = write_config(tmp_path, "spread.yaml", mapping)
    result = invoke("mlmc", cfg)
    assert result.exit_code == 0
    doc = json.loads((out / "mlmc_0.0001.json").read_text())
    assert doc["savings"] >= 2.0
    assert abs(doc["estimator"] - REFERENCE_SPREAD) <= 3.0 * doc["rmse_estimate"]
    assert doc["metadata"]["payoff"] == "spread"


def test_price_closed_form(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "price.yaml", {
        "model": {"family": "cir",
                  "params": {"kappa": 2.0, "theta": 1.0, "xi": 0.5, "x0": 1.0}},
        "price": {"mode": "zcb-closed-form"},
        "out": str(out)})
    result = invoke("price", cfg)
    assert result.exit_code == 0
    assert "price 0.3721963545473621" in result.output
    doc = json.loads((out / "price.json").read_text())
    assert doc["price"] == 0.3721963545473621
    assert doc["half_width"] is None
    assert doc["mode"] == "zcb-closed-form"


def test_price_gl_exact_deterministic(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "glprice.yaml", {
        "model": {"family": "ginzburg-landau",
                  "params": {"lambda": 0.5, "sigma": 0.0, "x0": 1.0}},
        "price": {"mode": "gl-exact", "fine_exponent": 14},
        "out": str(out)})
    result = invoke("price", cfg)
    assert result.exit_code == 0
    doc = json.loads((out / "price.json").read_text())
    assert doc["half_width"] == 0.0
    closed = math.exp(0.5) / math.sqrt(2.0 * math.e - 1.0)
    assert doc["price"] == pytest.approx(closed, rel=1e-3)


def test_price_spread_mc(tmp_path):
    out = tmp_path / "run"
    mapping = spread_models()
    mapping.update({"price": {"mode": "spread-mc", "strike": 0.001,
                              "paths": 2000, "fine_exponent": 6},
                    "seed": 9, "out": str(out)})
    cfg = write_config(tmp_path, "spreadprice.yaml", mapping)
    result = invoke("price", cfg)
    assert result.exit_code == 0
    doc = json.loads((out / "price.json").read_text())
    assert doc["half_width"] > 0.0
    assert abs(doc["price"] - REFERENCE_SPREAD) <= 3.0 * doc["half_width"]


def _outputs(out):
    return {path.name: path.read_text() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("command, section", [
    ("price", {"price": {"mode": "spread-mc", "strike": 0.001,
                         "correlation": -0.7, "paths": 4196,
                         "fine_exponent": 6}}),
    ("mlmc", {"mlmc": {"payoff": "spread", "epsilons": ["1e-4"],
                       "strike": 0.001, "correlation": -0.7, "max_level": 3,
                       "pilot_paths": 4096}}),
])
def test_threads_change_only_the_echoed_setting(tmp_path, monkeypatch, command,
                                                section):
    from sdeproj import workers

    # Two usable cores on any machine, so that --threads 2 runs a pool.
    monkeypatch.setattr(workers, "available_cores", lambda: 2)
    mapping = spread_models()
    mapping.update(section, seed=9)
    cfg = write_config(tmp_path, "exp.yaml", mapping)
    out = tmp_path / "run"
    runs = {}
    for threads in (1, 2):
        result = invoke(command, cfg, "--out", str(out), "--threads", str(threads))
        assert result.exit_code == 0, result.output
        runs[threads] = (_outputs(out), result.output)
        shutil.rmtree(out)
    (files_1, echo_1), (files_2, echo_2) = runs[1], runs[2]
    assert echo_1 == echo_2
    assert files_1.keys() == files_2.keys()
    for name, text in files_1.items():
        if name.endswith(".json"):
            doc_1, doc_2 = json.loads(text), json.loads(files_2[name])
            assert (doc_1["config"].pop("threads"), doc_2["config"].pop("threads")) \
                == (1, 2)
            assert doc_1 == doc_2
        else:
            assert text == files_2[name]


def test_non_finite_price_exits_3_and_writes_nothing(tmp_path):
    # sigma = 1000 overflows the exact solution on every path: the price is
    # refused, as a multilevel estimate is, instead of printed as nan.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "hot.yaml", {
        "model": {"family": "ginzburg-landau",
                  "params": {"lambda": 0.5, "sigma": 1000.0, "x0": 1.0}},
        "price": {"mode": "gl-exact", "paths": 64, "fine_exponent": 6},
        "seed": 3,
        "out": str(out)})
    result = invoke("price", cfg)
    assert result.exit_code == 3
    assert result.stderr.startswith("error: non-finite payoff at level 6, block 0, row 0")
    assert "nan" not in result.stdout
    assert not out.exists()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command, mapping", [
    ("convergence", conv_mapping(None, exponents=[3, 4], paths=500, fine_exponent=6)),
    ("convergence", {"model": {"family": "ginzburg-landau",
                               "params": {"lambda": 0.0, "sigma": 7.0, "x0": 1.0}},
                     "scheme": {"variant": "classical"},
                     "study": {"exponents": [3, 4], "reference": "closed-form",
                               "paths": 64, "fine_exponent": 8, "horizon": 3.0},
                     "seed": 5}),
    ("mlmc", {"model": {"family": "cir",
                        "params": {"kappa": 2.0, "theta": 1.0, "xi": 0.5, "x0": 1.0}},
              "mlmc": {"payoff": "zcb", "epsilons": [1e-2]}}),
    ("mlmc", dict(spread_models(), mlmc={"payoff": "spread", "epsilons": [1e-3],
                                         "strike": 0.001, "max_level": 2})),
    ("price", {"model": {"family": "cir",
                         "params": {"kappa": 2.0, "theta": 1.0, "xi": 0.5, "x0": 1.0}},
               "price": {"mode": "zcb-closed-form"}}),
    ("price", {"model": {"family": "ginzburg-landau",
                         "params": {"lambda": 0.5, "sigma": 1.0, "x0": 1.0}},
               "price": {"mode": "gl-exact", "paths": 500, "fine_exponent": 6}}),
    ("price", dict(spread_models(), price={"mode": "spread-mc", "strike": 0.001,
                                           "paths": 500, "fine_exponent": 5})),
], ids=["convergence", "convergence-divergent", "mlmc-zcb", "mlmc-spread",
        "price-zcb-closed-form", "price-gl-exact", "price-spread-mc"])
def test_every_json_output_is_strict_json(tmp_path, command, mapping):
    # NaN and Infinity are Python's extensions, which strict parsers refuse.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "exp.yaml", dict(mapping, out=str(out)))
    assert invoke(command, cfg).exit_code in (0, 1)
    written = sorted(out.glob("*.json"))
    assert written
    for path in written:
        json.loads(path.read_text(), parse_constant=_refuse_constant)
