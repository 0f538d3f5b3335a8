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
    export_edge_list,
    import_edge_list,
    import_tntp,
    load_scenario,
    random_commodities,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def simple_net():
    return Network(["a", "b", "c"], [("a", "b", 1.0, 2.0), ("b", "c", 2.0, 1.0)])


# -------------------------------------------------------------------- network


def test_network_adjacency():
    net = simple_net()
    assert [e.head for e in net.out_edges["a"]] == ["b"]
    assert [e.tail for e in net.in_edges["c"]] == ["b"]
    assert net.min_transit_time == 1.0


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
    assert scenario.inflow_cutoff == 25.0
    out = tmp_path / "copy.json"
    save_scenario(scenario, out)
    again = load_scenario(out)
    assert scenario_to_dict(again) == scenario_to_dict(scenario)


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
    with pytest.raises(ValidationError, match="exceeds horizon"):
        Scenario(net, (), 1.0, 10.0, inflow_cutoff=11.0)
    for step, horizon in ((math.inf, 10.0), (math.nan, 10.0),
                          (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValidationError, match="finite"):
            Scenario(net, (), step, horizon)
    for tol in (-1e-9, math.nan, math.inf):
        with pytest.raises(ValidationError, match="active_tolerance"):
            Scenario(net, (), 1.0, 10.0, active_tolerance=tol)
    Scenario(net, (), 1.0, 10.0, active_tolerance=0.0)


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


def test_import_tntp_scaling():
    net = import_tntp(DATA / "sioux_falls_net.tntp", time_scale=2.0, capacity_scale=0.5)
    base = import_tntp(DATA / "sioux_falls_net.tntp")
    assert net.edges[0].transit_time == pytest.approx(2.0 * base.edges[0].transit_time)
    assert net.edges[0].capacity == pytest.approx(0.5 * base.edges[0].capacity)


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


def test_import_tntp_rejects_short_rows(tmp_path):
    p = tmp_path / "bad.tntp"
    p.write_text("<END OF METADATA>\n1 2 3\n")
    with pytest.raises(ParseError, match="columns"):
        import_tntp(p)


# -------------------------------------------------------------------- CSV/JSON


def test_edge_list_round_trip(tmp_path):
    net = simple_net()
    p = tmp_path / "edges.csv"
    export_edge_list(net, p)
    again = import_edge_list(p)
    assert len(again.edges) == 2
    assert again.edges[0].transit_time == 1.0
    assert again.edges[1].capacity == 1.0


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
