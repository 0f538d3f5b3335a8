import json
import math
from pathlib import Path

import pytest

from dpeflow.network import (
    Commodity,
    Network,
    ParseError,
    Scenario,
    ValidationError,
    block_inflow,
    import_edge_list,
    import_tntp,
    load_scenario,
    random_commodities,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from dpeflow.pwl import EPS

DATA = Path(__file__).resolve().parent.parent / "data"


def simple_net():
    return Network(["a", "b", "c"], [("a", "b", 1.0, 2.0), ("b", "c", 2.0, 1.0)])


# -------------------------------------------------------------------- network


def test_network_adjacency():
    net = simple_net()
    assert [e.head for e in net.out_edges["a"]] == ["b"]
    assert [e.tail for e in net.in_edges["c"]] == ["b"]
    assert net.min_transit_time == 1.0


@pytest.mark.parametrize("transit_time", [4e-13, EPS, math.inf, math.nan])
def test_network_rejects_transit_times_not_finite_and_above_eps(
        transit_time):
    with pytest.raises(ValidationError) as info:
        Network(["a", "b"], [("a", "b", transit_time, 1.0)])
    assert str(info.value) == ("edge 0 ('a'->'b'): transit_time must be "
                               f"finite and > 1e-12, got {transit_time}")


def test_network_rejects_nonpositive_attributes():
    with pytest.raises(ValidationError, match="transit_time"):
        Network(["a", "b"], [("a", "b", 0.0, 1.0)])
    with pytest.raises(ValidationError, match="capacity"):
        Network(["a", "b"], [("a", "b", 1.0, -1.0)])


def test_network_rejects_unknown_endpoint_and_self_loop():
    with pytest.raises(ValidationError, match="unknown head"):
        Network(["a"], [("a", "zz", 1.0, 1.0)])
    with pytest.raises(ValidationError, match="self-loop"):
        Network(["a"], [("a", "a", 1.0, 1.0)])


def test_parallel_edges_allowed():
    net = Network(["a", "b"], [("a", "b", 1.0, 1.0), ("a", "b", 2.0, 2.0)])
    assert len(net.out_edges["a"]) == 2


def test_reachability():
    net = simple_net()
    assert net.reachable_from("a") == {"a", "b", "c"}
    assert net.reachable_from("c") == {"c"}


# ------------------------------------------------------------------- scenario


def test_scenario_file_round_trip(tmp_path):
    scenario = load_scenario(DATA / "two_routes.scenario.json")
    assert len(scenario.network.edges) == 5
    assert scenario.commodities[0].predictor_spec == {"kind": "zero"}
    out = tmp_path / "copy.json"
    save_scenario(scenario, out)
    again = load_scenario(out)
    assert scenario_to_dict(again) == scenario_to_dict(scenario)


def test_scenario_file_with_an_inflow_cutoff_loads_as_without():
    # the parser ignores keys it does not read, such as "inflow_cutoff"
    doc = json.loads((DATA / "two_routes.scenario.json").read_text())
    assert "inflow_cutoff" not in doc
    plain = scenario_to_dict(scenario_from_dict(doc))
    for cutoff in (25.0, "x", 1e9):
        doc["inflow_cutoff"] = cutoff
        assert scenario_to_dict(scenario_from_dict(doc)) == plain


def test_scenario_requires_format_tag():
    with pytest.raises(ParseError, match="format"):
        scenario_from_dict({"network": {"edges": []}})


def test_scenario_rejects_unreachable_sink():
    net_doc = {"nodes": ["a", "b"], "edges": [{"tail": "a", "head": "b",
                                               "transit_time": 1, "capacity": 1}]}
    doc = {"format": "dpe-scenario/1", "network": net_doc,
           "commodities": [{"source": "b", "sink": "a",
                            "inflow": {"rate": 1, "until": 1}}],
           "prediction_step": 1, "horizon": 10}
    with pytest.raises(ValidationError, match="unreachable"):
        scenario_from_dict(doc)


def test_scenario_rejects_negative_and_unbounded_inflow():
    net = Network(["a", "b"], [("a", "b", 1.0, 1.0)])
    with pytest.raises(ValidationError, match="non-negative"):
        Scenario(net, (Commodity(0, "a", "b",
                                 block_inflow(-1.0, 5.0)),), 1.0, 10.0)
    from dpeflow.pwl import RightConstantFn
    with pytest.raises(ValidationError, match="finite support"):
        Scenario(net, (Commodity(0, "a", "b",
                                 RightConstantFn((0.0,), (1.0,))),), 1.0, 10.0)


def test_scenario_rejects_bad_steps():
    net = Network(["a", "b"], [("a", "b", 1.0, 1.0)])
    with pytest.raises(ValidationError, match="prediction_step"):
        Scenario(net, (), 0.0, 10.0)
    for step, horizon in ((math.inf, 10.0), (math.nan, 10.0),
                          (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValidationError, match="finite"):
            Scenario(net, (), step, horizon)
    for tol in (-1e-9, math.nan, math.inf):
        with pytest.raises(ValidationError, match="active_tolerance"):
            Scenario(net, (), 1.0, 10.0, active_tolerance=tol)
    Scenario(net, (), 1.0, 10.0, active_tolerance=0.0)


@pytest.mark.parametrize("field, value, bound", [
    ("delta", 0.0, "finite and > 0"),
    ("delta", math.inf, "finite and > 0"),
    ("delta", "x", "finite and > 0"),
    ("prediction_horizon", 0, "> 0"),
    ("prediction_horizon", "x", "> 0"),
    ("samples", 0, "an integer >= 1"),
    ("samples", 2.5, "an integer >= 1"),
    ("samples", True, "an integer >= 1"),
    ("sample_step", 0, "finite and > 0"),
    ("sample_step", -1, "finite and > 0"),
    ("neighborhood_radius", -1, "an integer >= 0"),
    ("neighborhood_radius", "5", "an integer >= 0"),
])
def test_predictor_params_checked_where_made(field, value, bound):
    doc = json.loads((DATA / "two_routes.scenario.json").read_text())
    doc["predictor_params"][field] = value
    message = f"predictor_params.{field} must be {bound}, got {value!r}"
    with pytest.raises(ValidationError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == message


def test_predictor_params_bounds_admit_their_edges():
    doc = json.loads((DATA / "two_routes.scenario.json").read_text())
    doc["predictor_params"] = {"delta": 1e-6, "prediction_horizon": None,
                               "samples": 1, "sample_step": 1e-6,
                               "neighborhood_radius": 0}
    params = scenario_from_dict(doc).predictor_params
    assert params.prediction_horizon == math.inf
    assert (params.samples, params.neighborhood_radius) == (1, 0)


KINDS = "zero, constant, linear, reg_linear, threshold, perfect, regression"


@pytest.mark.parametrize("spec, message", [
    ({"kind": "nosuch"}, f"predictor.kind must be one of {KINDS}, got 'nosuch'"),
    ({"delta": 1.0}, f"predictor.kind must be one of {KINDS}, got None"),
    ({"kind": ["linear"]},
     f"predictor.kind must be one of {KINDS}, got ['linear']"),
    ({"kind": "linear", "prediction_horizon": "x"},
     "predictor.prediction_horizon must be > 0, got 'x'"),
    ({"kind": "linear", "prediction_horizon": 0},
     "predictor.prediction_horizon must be > 0, got 0"),
    ({"kind": "reg_linear", "delta": 0},
     "predictor.delta must be finite and > 0, got 0"),
    ({"kind": "reg_linear", "delta": math.inf},
     "predictor.delta must be finite and > 0, got inf"),
    ({"kind": "threshold", "threshold": "x"},
     "predictor.threshold must be a finite number, got 'x'"),
    ({"kind": "threshold", "high_value": math.nan},
     "predictor.high_value must be a finite number >= 0, got nan"),
    ({"kind": "regression", "model": 5},
     "predictor.model must be a string, got 5"),
    ({"kind": "threshold", "high_value": -3.0},
     "predictor.high_value must be a finite number >= 0, got -3.0"),
])
def test_predictor_spec_checked_where_read(spec, message):
    doc = json.loads((DATA / "two_routes.scenario.json").read_text())
    doc["commodities"][0]["predictor"] = spec
    with pytest.raises(ValidationError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == f"commodity 0: {message}"


def test_predictor_spec_bounds_admit_their_edges():
    doc = json.loads((DATA / "two_routes.scenario.json").read_text())
    specs = [{"kind": k} for k in KINDS.split(", ")] + [
        {"kind": "linear", "prediction_horizon": math.inf},
        {"kind": "reg_linear", "delta": 1e-6, "prediction_horizon": 1},
        {"kind": "threshold", "threshold": -1, "high_value": 0.0},
        {"kind": "regression", "model": "m.json"},
        {"kind": "zero", "note": None}]   # keys no predictor reads
    for spec in specs:
        doc["commodities"][0]["predictor"] = spec
        assert scenario_from_dict(doc).commodities[0].predictor_spec == spec


@pytest.mark.parametrize("path, value, message", [
    (("network", "edges", 0, "transit_time"), "x",
     "network edge 0: transit_time must be a number, got 'x'"),
    (("network", "edges", 0, "capacity"), None,
     "network edge 0: capacity must be a number, got None"),
    (("network", "edges", 0, "capacity"), True,
     "network edge 0: capacity must be a number, got True"),
    (("network", "edges", 0, "tail"), ["s"],
     "network edge 0: tail must be a string or an integer, got ['s']"),
    (("network", "edges", 0, "id"), [0],
     "network edge 0: id must be an integer, got [0]"),
    (("network", "nodes", 1), ["v"],
     "network node 1 must be a string or an integer, got ['v']"),
    (("commodities", 0, "sink"), {"t": 1},
     "commodity 0: sink must be a string or an integer, got {'t': 1}"),
    (("commodities", 0, "inflow", "until"), "x",
     "commodity 0: inflow 'until' must be a number, got 'x'"),
    (("commodities", 0, "inflow", "rate"), None,
     "commodity 0: inflow rate must be a number, got None"),
    (("commodities", 0, "inflow"), {"times": [0.0, None], "rates": [1, 0]},
     "commodity 0: inflow times[1] must be a number, got None"),
    (("horizon",), None, "'horizon' must be a number, got None"),
    (("prediction_step",), "0.25",
     "'prediction_step' must be a number, got '0.25'"),
    (("active_tolerance",), [0], "'active_tolerance' must be a number, got [0]"),
    (("seed",), 1.5, "'seed' must be an integer, got 1.5"),
], ids=["transit_time", "capacity", "capacity-bool", "tail", "edge-id",
        "node", "sink", "until", "rate", "inflow-times", "horizon",
        "prediction_step", "active_tolerance", "seed"])
def test_mistyped_scalar_is_a_parse_error(path, value, message):
    doc = json.loads((DATA / "two_routes.scenario.json").read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ParseError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == message


def test_duplicate_edge_ids_rejected():
    doc = {"format": "dpe-scenario/1",
           "network": {"nodes": ["a", "b"],
                       "edges": [{"id": 0, "tail": "a", "head": "b",
                                  "transit_time": 1, "capacity": 1},
                                 {"id": 0, "tail": "b", "head": "a",
                                  "transit_time": 1, "capacity": 1}]},
           "commodities": [], "prediction_step": 1, "horizon": 10}
    with pytest.raises(ValidationError, match="duplicate edge id"):
        scenario_from_dict(doc)


# ----------------------------------------------------------------------- TNTP


def test_import_tntp_sioux_falls_counts():
    net = import_tntp(DATA / "sioux_falls_net.tntp")
    assert len(net.nodes) == 24
    assert len(net.edges) == 75
    assert all(e.transit_time > 0 and e.capacity > 0 for e in net.edges)


def test_import_tntp_empty_table(tmp_path):
    p = tmp_path / "empty.tntp"
    p.write_text("<NUMBER OF NODES> 0\n<NUMBER OF LINKS> 0\n<END OF METADATA>\n")
    net = import_tntp(p)
    assert len(net.edges) == 0


@pytest.mark.parametrize("metadata, links, nodes", [
    # isolated nodes 3 and 5 are declared, so they stay
    ("<NUMBER OF NODES> 5\n<END OF METADATA>\n", [(2, 1), (4, 2)],
     (1, 2, 3, 4, 5)),
    # no metadata: the endpoints, sorted
    ("", [(7, 3), (3, 1)], (1, 3, 7)),
    # an endpoint beyond the declared count joins the declared nodes
    ("<NUMBER OF NODES> 3\n<END OF METADATA>\n", [(6, 1), (1, 2)],
     (1, 2, 3, 6)),
])
def test_import_tntp_node_order(tmp_path, metadata, links, nodes):
    p = tmp_path / "net.tntp"
    p.write_text(metadata + "".join(f"{a} {b} 2.0 1 1.5 0.15 4 0 0 1 ;\n"
                                    for a, b in links))
    net = import_tntp(p)
    assert net.nodes == nodes
    assert [(e.tail, e.head) for e in net.edges] == links


def test_import_tntp_rejects_zero_capacity(tmp_path):
    p = tmp_path / "bad.tntp"
    p.write_text("<END OF METADATA>\n1 2 0.0 1 1.0 0.15 4 0 0 1 ;\n")
    with pytest.raises(ValidationError, match="capacity"):
        import_tntp(p)


@pytest.mark.parametrize("fft", ["0.0", "4e-13", "inf", "nan"])
def test_import_tntp_rejects_free_flow_times_not_above_eps(tmp_path, fft):
    p = tmp_path / "bad.tntp"
    p.write_text(f"<END OF METADATA>\n1 2 1.0 1 1.0 ;\n2 1 1.0 1 {fft} ;\n")
    with pytest.raises(ValidationError) as info:
        import_tntp(p)
    assert str(info.value) == (f"{p}:3: edge 2->1 free-flow time must be "
                               "finite and > 1e-12")


def test_import_tntp_rejects_short_rows(tmp_path):
    p = tmp_path / "bad.tntp"
    p.write_text("<END OF METADATA>\n1 2 3\n")
    with pytest.raises(ParseError, match="columns"):
        import_tntp(p)


# -------------------------------------------------------------------- CSV/JSON


def test_edge_list_round_trip(tmp_path):
    p = tmp_path / "edges.csv"
    p.write_text("tail,head,transit_time,capacity\na,b,1.0,2.0\n"
                 "b,c,2.0,1.0\n")
    again = import_edge_list(p)
    assert len(again.edges) == 2
    assert again.edges[0].transit_time == 1.0
    assert again.edges[1].capacity == 1.0


def test_edge_list_rejects_an_infinite_transit_time(tmp_path):
    p = tmp_path / "edges.csv"
    p.write_text("tail,head,transit_time,capacity\na,b,1.0,2.0\n"
                 "b,c,inf,1.0\n")
    with pytest.raises(ValidationError, match=r"^edge 1 \('b'->'c'\): "
                                              "transit_time must be finite"):
        import_edge_list(p)


def test_edge_list_header_enforced(tmp_path):
    p = tmp_path / "edges.csv"
    p.write_text("from,to,time,cap\na,b,1,1\n")
    with pytest.raises(ParseError, match="header"):
        import_edge_list(p)


def test_edge_list_json(tmp_path):
    p = tmp_path / "edges.json"
    p.write_text(json.dumps([
        {"tail": "x", "head": "y", "transit_time": 1.5, "capacity": 2.5}]))
    net = import_edge_list(p)
    assert net.edges[0].capacity == 2.5


@pytest.mark.parametrize("doc, message", [
    ([{"tail": "a", "head": "b"}], "{p}: edge 0: missing field 'transit_time'"),
    ([{"tail": "a", "head": "b", "transit_time": 1, "capacity": 1}, ["a"]],
     "{p}: edge 1 must be an object, got ['a']"),
    ([{"tail": "a", "head": "b", "transit_time": "1", "capacity": 1}],
     "{p}: edge 0: transit_time must be a number, got '1'"),
    ([{"tail": None, "head": "b", "transit_time": 1, "capacity": 1}],
     "{p}: edge 0: tail must be a string or an integer, got None"),
    ({"edges": []}, "{p} must be an array, got {{'edges': []}}"),
    ('[{"tail": "a",', "{p}: invalid JSON at line 1 col 15"),
], ids=["missing-field", "not-an-object", "not-a-number", "tail", "not-a-list",
        "not-json"])
def test_edge_list_json_names_the_bad_entry(tmp_path, doc, message):
    p = tmp_path / "edges.json"
    p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(ParseError) as info:
        import_edge_list(p)
    assert str(info.value) == message.format(p=p)


# ------------------------------------------------------------------ generator


def test_random_commodities_deterministic():
    net = import_tntp(DATA / "sioux_falls_net.tntp")
    a = random_commodities(net, 12, seed=7, inflow_cutoff=25.0)
    b = random_commodities(net, 12, seed=7, inflow_cutoff=25.0)
    assert [(c.source, c.sink, c.inflow.values[0]) for c in a] == \
           [(c.source, c.sink, c.inflow.values[0]) for c in b]
    c = random_commodities(net, 12, seed=8, inflow_cutoff=25.0)
    assert [(x.source, x.sink) for x in a] != [(x.source, x.sink) for x in c]


def test_random_commodities_inflow_law():
    net = simple_net()
    (c,) = random_commodities(net, 1, seed=1, inflow_factor=0.5, inflow_cutoff=10.0)
    out_cap = sum(e.capacity for e in net.out_edges[c.source])
    assert c.inflow(0.0) == pytest.approx(0.5 * out_cap)


def test_random_commodities_predictor_cycle():
    net = import_tntp(DATA / "sioux_falls_net.tntp")
    kinds = ({"kind": "zero"}, {"kind": "constant"})
    cs = random_commodities(net, 4, seed=3, inflow_cutoff=5.0, predictor_kinds=kinds)
    assert [c.predictor_spec["kind"] for c in cs] == ["zero", "constant", "zero", "constant"]
