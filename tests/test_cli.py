import json
import math
import shutil
from pathlib import Path

import pytest

from dpeflow import cli
from dpeflow.cli import main
from dpeflow.predictors import RegressionModel

DATA = Path(__file__).parent.parent / "data"


@pytest.fixture
def scenario_file(tmp_path):
    dst = tmp_path / "two_routes.scenario.json"
    shutil.copy(DATA / "two_routes.scenario.json", dst)
    return dst


def test_run_writes_metrics_and_events(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "commodity,predictor,total_tt,avg_tt,inflow_mass,outflow_mass"
    fields = metrics[1].split(",")
    assert fields[0] == "0" and fields[1] == "zero"
    assert float(fields[3]) == pytest.approx(3.0, abs=1e-6)
    events = (out / "events.csv").read_text().splitlines()
    assert events[0] == "time,kind,edge,commodity,detail"
    assert len(events) > 1


def test_run_is_byte_deterministic(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out1)]) == 0
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out2)]) == 0
    for name in ("metrics.csv", "events.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_json_format_and_flow_dump(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario_file), "--out", str(out),
                 "--format", "json", "--dump-flow"])
    assert code == 0
    payload = json.loads((out / "run.json").read_text())
    assert payload["metrics"][0]["predictor"] == "zero"
    flow = json.loads((out / "flow.json").read_text())
    assert flow["format"] == "dpe-flow/1"
    assert len(flow["edges"]) == 5


def test_run_predictor_override_and_epsilon(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario_file), "--out", str(out),
                 "--epsilon", "0.5", "--horizon", "60",
                 "--predictor-overrides", '{"*": {"kind": "constant"}}'])
    assert code == 0
    line = (out / "metrics.csv").read_text().splitlines()[1]
    assert line.split(",")[1] == "constant"


def test_missing_scenario_is_an_input_error(tmp_path):
    code = main(["run", "--scenario", str(tmp_path / "nope.json")])
    assert code == 1


def test_invalid_scenario_is_an_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "dpe-scenario/1"}))
    assert main(["run", "--scenario", str(bad)]) == 1


def test_infinite_horizon_is_an_input_error(scenario_file, tmp_path):
    doc = json.loads(scenario_file.read_text())
    doc["horizon"] = math.inf
    scenario_file.write_text(json.dumps(doc))  # writes Infinity
    assert "Infinity" in scenario_file.read_text()
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 1
    assert not out.exists()


def test_non_finite_inflow_time_is_an_input_error(scenario_file, tmp_path,
                                                  capsys):
    doc = json.loads(scenario_file.read_text())
    doc["commodities"][0]["inflow"] = {"times": [-math.inf, 5.0],
                                       "rates": [1.0, 0.0]}
    scenario_file.write_text(json.dumps(doc))  # writes -Infinity
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 1
    assert "non-finite breakpoint time -inf" in capsys.readouterr().err
    assert not out.exists()


def test_inflow_profile_starting_after_zero_runs(scenario_file, tmp_path):
    # the profile is 0 before its first time: 1 on [2, 5) enters 3 units
    doc = json.loads(scenario_file.read_text())
    doc["commodities"][0]["inflow"] = {"times": [2, 5], "rates": [1, 0]}
    scenario_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    fields = (out / "metrics.csv").read_text().splitlines()[1].split(",")
    assert float(fields[3]) == pytest.approx(3.0)   # avg_tt, uncongested
    assert float(fields[4]) == 3.0                  # inflow_mass


def test_negative_inflow_time_is_an_input_error(scenario_file, tmp_path,
                                                capsys):
    doc = json.loads(scenario_file.read_text())
    doc["commodities"][0]["inflow"] = {"times": [-2, 5], "rates": [1, 0]}
    scenario_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: commodity 0: inflow times must be >= 0, got -2.0\n"
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    ('{"*": "linear"}', "commodity 0: predictor must be an object"),
    ('{"0": ["linear"]}', "commodity 0: predictor must be an object"),
    ('["x"]', "bad --predictor-overrides [\"x\"]; expected a JSON object"),
    ("{", "bad --predictor-overrides: Expecting"),
    ('{"0": {"kind": "reg_linear", "delta": 0}}',
     "commodity 0: predictor.delta must be finite and > 0, got 0\n"),
    ('{"*": {"kind": "nosuch"}}',
     "commodity 0: predictor.kind must be one of zero, constant, linear, "
     "reg_linear, threshold, perfect, regression, got 'nosuch'\n"),
], ids=["string-spec", "list-spec", "list-table", "not-json", "bad-delta",
        "unknown-kind"])
def test_bad_predictor_overrides_are_input_errors(scenario_file, tmp_path,
                                                  capsys, overrides, message):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario_file), "--out", str(out),
                 "--predictor-overrides", overrides])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_non_object_predictor_in_scenario_is_an_input_error(
        scenario_file, tmp_path, capsys):
    doc = json.loads(scenario_file.read_text())
    doc["commodities"][0]["predictor"] = "linear"
    scenario_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: commodity 0: predictor must be an object like "
        "{\"kind\": \"linear\"}, got 'linear'\n")
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ({"kind": "linear", "prediction_horizon": "x"},
     "predictor.prediction_horizon must be > 0, got 'x'"),
    ({"kind": "threshold", "threshold": "x"},
     "predictor.threshold must be a finite number, got 'x'"),
    ({"kind": "regression", "model": 5},
     "predictor.model must be a string, got 5"),
    ({"kind": "threshold", "threshold": 0.5, "high_value": -50},
     "predictor.high_value must be a finite number >= 0, got -50"),
], ids=["prediction_horizon", "threshold", "model", "high_value"])
def test_bad_predictor_spec_in_scenario_is_an_input_error(
        scenario_file, tmp_path, capsys, spec, message):
    # each of these used to end in a traceback
    doc = json.loads(scenario_file.read_text())
    doc["commodities"][0]["predictor"] = spec
    scenario_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: commodity 0: {message}\n"
    assert not out.exists()


def test_mistyped_scalar_in_scenario_is_an_input_error(scenario_file,
                                                       tmp_path, capsys):
    doc = json.loads(scenario_file.read_text())
    doc["network"]["edges"][2]["capacity"] = None
    scenario_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: network edge 2: capacity must be a number, got None\n")
    assert not out.exists()


def test_transit_time_within_eps_is_an_input_error(scenario_file, tmp_path,
                                                  capsys):
    doc = json.loads(scenario_file.read_text())
    doc["network"]["edges"][4]["transit_time"] = 1e-13
    scenario_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: edge 4 ('s'->'t'): transit_time must be finite and > 1e-12, "
        "got 1e-13\n")
    assert not out.exists()


@pytest.mark.parametrize("path, value, message", [
    ((), [], "a scenario must be an object, got []"),
    (("network",), [], "'network' must be an object, got []"),
    (("network", "edges"), {}, "'network.edges' must be an array, got {}"),
    (("network", "edges", 0), 3, "network edge 0 must be an object, got 3"),
    (("network", "nodes"), "svwt",
     "'network.nodes' must be an array, got 'svwt'"),
    (("commodities",), {}, "'commodities' must be an array, got {}"),
    (("commodities", 0), "s->t", "commodity 0 must be an object, got 's->t'"),
    (("commodities", 0, "inflow"), 5,
     "commodity 0: inflow must be an object, got 5"),
    (("commodities", 0, "inflow"), {"times": 0.0, "rates": [1.0]},
     "commodity 0: inflow times must be an array, got 0.0"),
    (("predictor_params",), [], "'predictor_params' must be an object, got []"),
], ids=["scenario", "network", "edges", "edge", "nodes", "commodities",
        "commodity", "inflow", "inflow-times", "predictor-params"])
def test_mistyped_scenario_section_is_an_input_error(
        scenario_file, tmp_path, capsys, path, value, message):
    doc = json.loads(scenario_file.read_text())
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    scenario_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_bad_predictor_param_is_an_input_error(scenario_file, tmp_path,
                                               capsys):
    # the regression commodity used to end in an IndexError traceback
    doc = json.loads(scenario_file.read_text())
    doc["commodities"][0]["predictor"] = {"kind": "regression"}
    doc["predictor_params"]["samples"] = 0
    scenario_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: predictor_params.samples must be an integer >= 1, got 0\n")
    assert not out.exists()


def test_model_without_an_edge_is_an_input_error(scenario_file, tmp_path,
                                                 capsys):
    width = 1 + (1 + 1) * 2
    (tmp_path / "model.json").write_text(json.dumps({
        "format": "dpe-model/1", "lags": 2, "samples": 1, "sample_step": 1.0,
        "neighborhood_radius": 1,
        "coefficients": {"0": [[0.0, 1.0] + [0.0] * (width - 2)]}}))
    doc = json.loads(scenario_file.read_text())
    doc["commodities"][0]["predictor"] = {"kind": "regression",
                                          "model": "model.json"}
    scenario_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: regression model has no coefficients for edge 1 ")
    assert not out.exists()


def test_sweep_csv(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--grid", "0.5:2:2", "--predictors", "zero,constant",
                 "--horizon", "60"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "total_inflow,predictor,avg_tt"
    assert len(lines) == 5
    assert lines[1].startswith("0.5,zero,")
    assert lines[4].startswith("2,constant,")


def test_sweep_rejects_bad_grid(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    for grid in ("5:1:3", "1:2", "1:2:x", "1:2:0", "a:2:3", "1:2:3:4"):
        code = main(["sweep", "--scenario", str(scenario_file),
                     "--out", str(out), "--grid", grid])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: bad grid {grid!r}; expected LO:HI:N\n")
        assert not out.exists()


def test_sweep_jobs(scenario_file, tmp_path, capsys, pool_sizes):
    out = tmp_path / "out"
    args = ["sweep", "--scenario", str(scenario_file), "--out", str(out),
            "--grid", "0.5:2:2", "--predictors", "zero", "--horizon", "30"]
    for jobs in ("0", "-1"):
        assert main(args + ["--jobs", jobs]) == 1
        assert capsys.readouterr().err == (
            f"error: jobs must be at least 1, got {jobs}\n")
        assert not out.exists()
    assert main(args + ["--jobs", "5000"]) == 0
    assert pool_sizes == [2]
    assert len((out / "sweep.csv").read_text().splitlines()) == 3


def test_train_writes_model(scenario_file, tmp_path):
    model_path = tmp_path / "model.json"
    code = main(["train", "--scenario", str(scenario_file),
                 "--out", str(model_path), "--shared"])
    assert code == 0
    doc = json.loads(model_path.read_text())
    assert doc["format"] == "dpe-model/1"
    assert "-1" in doc["coefficients"]
    assert RegressionModel.load(model_path).lags == doc["lags"]


@pytest.mark.parametrize("option, message", [
    (["--lags", "0"], "lags must be an integer >= 1, got 0"),
    (["--grid-step", "0"], "grid_step must be finite and > 0, got 0.0"),
    (["--grid-step", "-1"], "grid_step must be finite and > 0, got -1.0"),
], ids=["lags-0", "grid-step-0", "grid-step-negative"])
def test_bad_train_option_is_an_input_error(scenario_file, tmp_path, capsys,
                                            monkeypatch, option, message):
    # --lags 0 used to write a model that does not load; the grid steps
    # ended in a ZeroDivisionError and an IndexError traceback.  The options
    # are checked before any simulation runs.
    def no_run(*args, **kwargs):
        raise AssertionError("simulated before checking the options")

    monkeypatch.setattr(cli, "run", no_run)
    model_path = tmp_path / "out" / "model.json"
    code = main(["train", "--scenario", str(scenario_file),
                 "--out", str(model_path)] + option)
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not model_path.parent.exists()


def test_demo_counterexample(tmp_path, capsys):
    out = tmp_path / "demo.txt"
    code = main(["demo-counterexample", "--horizon", "10", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "route flips" in text
    assert capsys.readouterr().out.strip() == text.strip()


def test_generate_commodities_round_trip(tmp_path):
    out = tmp_path / "sioux.scenario.json"
    code = main(["generate-commodities",
                 "--network", str(DATA / "sioux_falls_net.tntp"),
                 "--out", str(out), "--count", "3", "--seed", "7"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "dpe-scenario/1"
    assert len(doc["commodities"]) == 3
    # regenerating with the same seed gives the identical file
    out2 = tmp_path / "again.json"
    main(["generate-commodities",
          "--network", str(DATA / "sioux_falls_net.tntp"),
          "--out", str(out2), "--count", "3", "--seed", "7"])
    assert out.read_bytes() == out2.read_bytes()


def test_generate_commodities_rejects_a_bad_json_edge_list(tmp_path, capsys):
    edges = tmp_path / "e.json"
    edges.write_text(json.dumps([{"tail": "a", "head": "b"}]))
    out = tmp_path / "s.json"
    code = main(["generate-commodities", "--network", str(edges),
                 "--out", str(out), "--count", "1"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {edges}: edge 0: missing field 'transit_time'\n")
    assert not out.exists()


def test_perfect_predictor_in_live_loop_exits_2(scenario_file, tmp_path):
    code = main(["run", "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "o"),
                 "--predictor-overrides", '{"*": {"kind": "perfect"}}'])
    assert code == 2
