"""The benchmark's four workloads and how their inputs are built.

Each workload is one fixed instance, fixed by the workload seeds (commodity
seed 12 and metro generator seed 47 unless overridden).  The run seed renames
the instance's nodes by a random permutation and keeps every order (nodes,
edges, commodities) as built.  So a seed changes the scenario the program
receives but not the work it does or its results, and a defect of the
instance (the node-conservation gap of ``sioux_mixed``) shows on every seed.
Edge and commodity order are not shuffled because they steer label
correction: a reordered copy of ``sioux_mixed`` can raise ConvergenceError,
so reordering would change the workload itself.

Sizes are cut from the acceptance scenarios (C10a, C10b) to a few seconds per
repetition, so that one benchmark run repeats each workload several times.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dpeflow.network import (
    Commodity,
    Network,
    Scenario,
    block_inflow,
    import_tntp,
    load_scenario,
    random_commodities,
)
from dpeflow.simulation import sweep_variant

PREDICTOR_CYCLE = ("zero", "constant", "linear", "reg_linear", "regression")
SWEEP_TOTALS = (1.0, 4.0, 7.0, 10.0)
TIE_TOTAL = 1.0      # uncongested: both routes tie at travel time 3.0
TIE_AVG_TT = 3.0

WORKLOADS = ("sioux_mixed", "metro_constant", "two_route_sweep",
             "sioux_shared_zero")


@dataclass(frozen=True)
class Seeds:
    run: int                  # picks the renaming of the nodes
    commodity: int = 12       # random_commodities on Sioux Falls
    metro: int = 47           # ring-plus-chords generator


@dataclass(frozen=True)
class Cell:
    """One simulation of a workload: a built scenario and its label."""

    label: str
    scenario: Scenario
    tie_check: bool = False   # avg_tt must equal TIE_AVG_TT


def build(name: str, root: Path, work_dir: Path, seeds: Seeds) -> list[Cell]:
    """Build the scenarios of one workload from scratch."""
    rng = np.random.default_rng(seeds.run)
    data = root / "data"
    if name == "sioux_mixed":
        net = import_tntp(data / "sioux_falls_net.tntp")
        comms = random_commodities(
            net, 12, seed=seeds.commodity, inflow_factor=0.5,
            inflow_cutoff=25.0,
            predictor_kinds=tuple({"kind": k} for k in PREDICTOR_CYCLE))
        return [Cell(name, _renamed(net, comms, rng, prediction_step=1.0,
                                 horizon=30.0))]
    if name == "sioux_shared_zero":
        net = import_tntp(data / "sioux_falls_net.tntp")
        comms = random_commodities(
            net, 48, seed=seeds.commodity, inflow_factor=0.1,
            inflow_cutoff=5.0, predictor_kinds=({"kind": "zero"},))
        return [Cell(name, _renamed(net, comms, rng, prediction_step=1.0,
                                 horizon=8.0))]
    if name == "metro_constant":
        path = work_dir / "metro.tntp"
        path.write_text(metro_tntp_text(seeds.metro))
        net = import_tntp(path)
        comms = (Commodity(0, 1, 5, inflow=block_inflow(4.0, 4.0),
                           predictor_spec={"kind": "constant"}),)
        return [Cell(name, _renamed(net, comms, rng, prediction_step=1.0,
                                 horizon=8.0))]
    if name == "two_route_sweep":
        base = load_scenario(data / "two_routes.scenario.json")
        base = _renamed(base.network, base.commodities, rng,
                     prediction_step=base.prediction_step,
                     horizon=base.horizon,
                     predictor_params=base.predictor_params,
                     active_tolerance=base.active_tolerance)
        return [Cell(f"{total:g}/{kind}", sweep_variant(base, total, kind),
                     tie_check=total == TIE_TOTAL)
                for total in SWEEP_TOTALS for kind in PREDICTOR_CYCLE]
    raise ValueError(f"unknown workload {name!r}")


def metro_tntp_text(seed: int) -> str:
    """The 3538-node / 4803-link ring-plus-chords network of criterion C10b."""
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


def _renamed(net: Network, comms, rng, **scenario_args) -> Scenario:
    """The instance with its nodes renamed by a random permutation."""
    names = list(net.nodes)
    rename = dict(zip(names, (names[k] for k in rng.permutation(len(names)))))
    copy = Network([rename[v] for v in names],
                   [(rename[e.tail], rename[e.head], e.transit_time,
                     e.capacity) for e in net.edges])
    comms = tuple(Commodity(c.id, rename[c.source], rename[c.sink], c.inflow,
                            dict(c.predictor_spec)) for c in comms)
    return Scenario(network=copy, commodities=comms, **scenario_args)
