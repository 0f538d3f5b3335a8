from pathlib import Path

import numpy as np
import pytest

from dpeflow.network import (
    Commodity,
    Network,
    Scenario,
    block_inflow,
    import_tntp,
    random_commodities,
)
from dpeflow.simulation import run

DATA = Path(__file__).parent.parent / "data"

PREDICTOR_CYCLE = (
    {"kind": "zero"},
    {"kind": "constant"},
    {"kind": "linear"},
    {"kind": "reg_linear"},
    {"kind": "regression"},
)


def random_scenario(seed: int) -> Scenario:
    """Seeded random instance: small network, a few block-inflow commodities.

    Transit times stay >= 0.5 and inflows end well before the horizon so
    every instance is comfortably simulable at step 0.5.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n - 1):  # spine keeps everything connected
        edges.append((nodes[i], nodes[i + 1],
                      float(rng.uniform(0.5, 3.0)),
                      float(rng.uniform(0.5, 3.0))))
    for _ in range(int(rng.integers(n, 3 * n))):
        a, b = rng.integers(0, n, 2)
        if a == b:
            continue
        edges.append((nodes[a], nodes[b],
                      float(rng.uniform(0.5, 3.0)),
                      float(rng.uniform(0.5, 3.0))))
    net = Network(nodes, edges)

    n_comm = int(rng.integers(1, 4))
    comms = []
    for ci in range(n_comm):
        source = nodes[int(rng.integers(0, n - 1))]
        reachable = sorted(net.reachable_from(source) - {source})
        sink = reachable[int(rng.integers(0, len(reachable)))]
        rate = float(rng.uniform(0.3, 4.0))
        duration = float(rng.uniform(3.0, 10.0))
        spec = PREDICTOR_CYCLE[int(rng.integers(0, 4))]  # no regression here
        comms.append(Commodity(ci, source, sink,
                               block_inflow(rate, duration), dict(spec)))
    return Scenario(network=net, commodities=tuple(comms),
                    prediction_step=0.5,
                    horizon=float(rng.uniform(20.0, 30.0)),
                    seed=seed)


def metro_tntp_text(seed=47):
    """The 3538-node / 4803-link ring-plus-chords network of C10b, as TNTP."""
    n, n_chords = 3538, 1265
    rng = np.random.default_rng(seed)
    lines = [f"<NUMBER OF NODES> {n}",
             f"<NUMBER OF LINKS> {n + n_chords}",
             "<END OF METADATA>"]

    def link(a, b):
        cap = rng.uniform(2.0, 6.0)
        fft = rng.uniform(0.5, 2.5)
        lines.append(f"{a} {b} {cap:.2f} 1 {fft:.2f} 0.15 4 0 0 1 ;")

    for i in range(1, n + 1):
        link(i, i % n + 1)
    added = 0
    while added < n_chords:
        a, b = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        if a == b:
            continue
        link(a, b)
        added += 1
    return "\n".join(lines) + "\n"


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces ``ProcessPoolExecutor`` by a pool that records the size it
    is asked for and runs the tasks in this process, starting no worker.
    Returns the recorded sizes."""
    import concurrent.futures
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return sizes


@pytest.fixture(scope="session")
def sioux_network():
    return import_tntp(DATA / "sioux_falls_net.tntp")


@pytest.fixture(scope="session")
def sioux_scenario(sioux_network):
    commodities = random_commodities(
        sioux_network, 12, seed=12, inflow_factor=0.5, inflow_cutoff=25.0,
        predictor_kinds=PREDICTOR_CYCLE)
    return Scenario(network=sioux_network, commodities=commodities,
                    prediction_step=1.0, horizon=100.0, seed=12)


@pytest.fixture(scope="session")
def sioux_training_corpus(sioux_network):
    """Constant-predictor traces over re-drawn commodities, the training corpus."""
    states = []
    for seed in (12, 13, 14):
        comms = random_commodities(
            sioux_network, 12, seed=seed, inflow_factor=0.5,
            inflow_cutoff=25.0, predictor_kinds=({"kind": "constant"},))
        scenario = Scenario(network=sioux_network, commodities=comms,
                            prediction_step=1.0, horizon=100.0, seed=seed)
        states.append(run(scenario, record_rounds=False).state)
    return states
