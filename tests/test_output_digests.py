"""Bit-for-bit digests of run outputs: the 20 two-route sweep cells, the
C1 scenarios of seeds 0-9, two Sioux Falls runs and three runs on the C10b
network.  The
Sioux Falls runs are cut from the benchmark's workloads: 12 commodities
cycling the five predictors to horizon 20 (mixed exit tables, many of whose
edges are shifts) and 48 zero-predictor commodities to horizon 8 (shift-only
tables shared between sinks).  C10b is the constant-predictor run of the
3538-node / 4803-edge network, whose exit tables are flat forecasts of a few
queued edges among thousands of empty ones; it is pinned also at active
tolerance 0, where an exact tie is decided by the last bit, and cut to the
benchmark's ``metro_constant`` cell (commodity 1 -> 5, inflow 4 until 4,
horizon 8).

A digest is the SHA-256 of one run's outputs written out with every float
as ``float.hex``: the per-commodity metrics, the event log in order, every
round's active queries in the order they were asked, and every edge's
queue, aggregate outflow and per-commodity inflow and outflow functions.  A
change that moves any of these by one bit fails here.  Only a change meant
to move outputs may replace the stored digests, and it must say so.  Print
the digests of the working tree with

    PYTHONPATH=src python tests/test_output_digests.py
"""

import dataclasses
import functools
import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import (  # noqa: E402
    PREDICTOR_CYCLE,
    metro_tntp_text,
    random_scenario,
)
from dpeflow.network import (  # noqa: E402
    Commodity,
    Scenario,
    block_inflow,
    import_tntp,
    load_scenario,
    random_commodities,
)
from dpeflow.simulation import compute_metrics, run, sweep_variant  # noqa: E402

DATA = Path(__file__).parent.parent / "data"
SWEEP_TOTALS = (1.0, 4.0, 7.0, 10.0)


@functools.cache
def cases():
    """Case name -> scenario, in a fixed order."""
    two_routes = load_scenario(DATA / "two_routes.scenario.json")
    out = {}
    for total in SWEEP_TOTALS:
        for spec in PREDICTOR_CYCLE:
            out[f"sweep {total:g}/{spec['kind']}"] = sweep_variant(
                two_routes, total, spec["kind"])
    for seed in range(10):
        out[f"c1 seed {seed}"] = random_scenario(seed)
    sioux = import_tntp(DATA / "sioux_falls_net.tntp")
    for name, count, factor, cutoff, kinds, horizon in (
            ("sioux mixed", 12, 0.5, 20.0, PREDICTOR_CYCLE, 20.0),
            ("sioux zero", 48, 0.1, 5.0, ({"kind": "zero"},), 8.0)):
        comms = random_commodities(sioux, count, seed=12,
                                   inflow_factor=factor, inflow_cutoff=cutoff,
                                   predictor_kinds=kinds)
        out[name] = Scenario(network=sioux, commodities=comms,
                             prediction_step=1.0, horizon=horizon)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metro.tntp"
        path.write_text(metro_tntp_text())
        metro = import_tntp(path)
    out["c10b"] = c10b = Scenario(   # as in test_acceptance's C10b
        network=metro, prediction_step=1.0, horizon=60.0,
        commodities=(Commodity(0, 1, 16, block_inflow(4.0, 20.0),
                               {"kind": "constant"}),))
    out["c10b tolerance 0"] = dataclasses.replace(c10b, active_tolerance=0.0)
    out["metro constant"] = dataclasses.replace(
        c10b, horizon=8.0, commodities=(Commodity(
            0, 1, 5, block_inflow(4.0, 4.0), {"kind": "constant"}),))
    return out


def output_text(scenario) -> str:
    """Every output of one run, one line each, floats as hex."""
    result = run(scenario)
    state, net = result.state, scenario.network

    def fn(f):
        parts = [x.hex() for x in (*f.times, *f.values)]
        for s in ("slope_before_first", "slope_after_last"):
            if hasattr(f, s):
                parts.append(getattr(f, s).hex())
        return " ".join(parts)

    lines = []
    for row in compute_metrics(result).rows:
        lines.append(f"metrics {row.commodity} {row.predictor} "
                     f"{row.total_tt.hex()} {row.avg_tt.hex()} "
                     f"{row.inflow_mass.hex()} {row.outflow_mass.hex()}")
    for e in result.events:
        lines.append(f"event {e.time.hex()} {e.kind} {e.edge} {e.commodity} "
                     f"{e.detail}")
    for record in result.rounds:
        for (i, v), ids in record.active_queries.items():
            lines.append(f"round {record.index} {record.time.hex()} "
                         f"{i} {v} {list(ids)}")
    for e in net.edges:
        lines.append(f"queue {e.id} {fn(state.queue_fn(e.id))}")
        lines.append(f"aggregate {e.id} "
                     f"{fn(state.aggregate_outflow_fn(e.id))}")
        for i in range(state.n_commodities):
            lines.append(f"inflow {e.id} {i} {fn(state.inflow_fn(i, e.id))}")
            lines.append(f"outflow {e.id} {i} "
                         f"{fn(state.outflow_fn(i, e.id))}")
    return "\n".join(lines) + "\n"


def digest(scenario) -> str:
    return hashlib.sha256(output_text(scenario).encode()).hexdigest()


DIGESTS = {
    'sweep 1/zero': '45f42dfc644c97651be8867ec7a55b2ef235a0300a1453dab5d1ea3f0dadf47a',
    'sweep 1/constant': '7a3cb155049cc3c8a47cdeba1179eb1ca4944a49ae00c6fe4d1f04a7ba194d98',
    'sweep 1/linear': '750b9f343b15502c3ca79cc81c4bccbf24f4253355f56326748b5df9dca1c0bf',
    'sweep 1/reg_linear': 'e7e104005f306bb6fe6156c7fe7fec309b341011504fc3f432a2417702e9cdbb',
    'sweep 1/regression': '6aef9cf137b6959fb5ab1b984f3c9a1ad580611047421c5d3ee0687e536db397',
    'sweep 4/zero': '43f08a8e4944b3de9761b47dea9b930bdbbd223ab5aeea12171759eceb45b1fd',
    'sweep 4/constant': '7e3ea66a522255f47c51ca4d60e2db763ef5a6da7579a83d9133a290476d35a5',
    'sweep 4/linear': '40d6debf97f8385d04299d9fd4741b8da2998a1483b10bf3786b3329625ab07b',
    'sweep 4/reg_linear': '0e926b18643af05659f9594faa607d5bdc6d8f5a85950f46b0da42420a948578',
    'sweep 4/regression': 'bf779ffc4b5c658e2ccfec17ac7067a640026145956341d375376bef85173f4c',
    'sweep 7/zero': '9a822c8fc189f168f34139eafc7241f9a374010c962d3bc09643d03ffd5ed50b',
    'sweep 7/constant': '5ea0826fee806fcef003abf9847c1f18478658b321e6164f74160e964cbedab3',
    'sweep 7/linear': '9920645c9ab96702ffdfd552cd261cfbdb70875205a49df4607b8d909a745631',
    'sweep 7/reg_linear': 'd3b5c31ee17acd08290788708f0535f68b439097577bb1d1d8a4069df1559e20',
    'sweep 7/regression': '3c0c41b1023e9a00337c31d0732fec6ec81c3bff077f1a10548fff47ae2c30a4',
    'sweep 10/zero': 'c0835212febae12e01dd3c70f604501e0a973b2d668a037d5f5b0ded765b09ce',
    'sweep 10/constant': '2928f74af03577277b6f6ce4fc5a2a9101181f625226861b826bf1a3c170d781',
    'sweep 10/linear': 'b369048b304ada5e4dad6df298b796db666bc5fd34f42f3c8809b27e4f24f1c8',
    'sweep 10/reg_linear': '2e37b055d0cc299f35f3b13402d9d37bef93e7d398efa8eb56b0828226af6172',
    'sweep 10/regression': '3d804d69df42f34d5af3d0adf49be4a693e3f01887bbdd67727759edb07399c7',
    'c1 seed 0': '7aa4a8902c3cf4f6beee0d3b3804ddab9b4021998819e4bbbb178c543b2f2bd7',
    'c1 seed 1': 'ee3c948c8a2be760c10c1302dfdd1e254f2638846222c9ad3a0083c651484727',
    'c1 seed 2': 'b094d93fc23c876af194e07ab4708b7b7debbcfe3ee30238e34337944444c5d1',
    'c1 seed 3': '54413812fd7e0199a66620ba1332433d95673c677e03426870a6ae73c10cbcd2',
    'c1 seed 4': '4b0f470a75e9b437400fe33d40e103e7375f6dc3368455eec9f33479c8a72238',
    'c1 seed 5': '237b38f38dbffab22e3f85023731ff332d1eb26a158b6e87405e89651cd8d192',
    'c1 seed 6': 'c993078575c324dc0b0e079a29ab6f9f059edb6897535eacaf7afa2ca3dde009',
    'c1 seed 7': '56fc1263f6b1d15d22f56349fd6af15a64b4e8aaf3856bbefea77e34c3d926a8',
    'c1 seed 8': '06275a064abe13f9a76763ccae8787f92e4eb3e8809f5abe0bd5f998f3b95daa',
    'c1 seed 9': '4cde36a51d0c1a5637a12209e419c8d5b1bf4aa9dff061d5f2c560f78c73824d',
    'sioux mixed': '5bebb863c35a38a82f23c13cd2ac5d05f9042133fb2e7ffac555add960520ba2',
    'sioux zero': 'cec099eca88ff7e60d382a598320be9d9e7f3ee9f126e69b45977fc74d4ab021',
    'c10b': '623e91e71f1ec7a2d1f39cc210198cc33a647422b8b3ddc2b6df7a4841d384ac',
    'c10b tolerance 0': '623e91e71f1ec7a2d1f39cc210198cc33a647422b8b3ddc2b6df7a4841d384ac',
    'metro constant': '7eeadfc4daf9243496f3fe51a704a5abff5cd4570e29071281a770f9be2af451',
}


@pytest.mark.parametrize("name", list(DIGESTS))
def test_outputs_match_their_stored_digest(name):
    assert digest(cases()[name]) == DIGESTS[name]


def test_every_case_has_a_stored_digest():
    assert list(DIGESTS) == list(cases())


if __name__ == "__main__":
    for name, scenario in cases().items():
        print(f"    {name!r}: {digest(scenario)!r},")
