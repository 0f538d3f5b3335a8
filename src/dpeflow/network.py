"""Network, commodity and scenario types plus file import/export.

A scenario bundles everything one simulation run needs: the network, the
commodities with their inflow profiles and predictor configurations, the
prediction step and the evaluation horizon.  Scenario files are JSON
documents tagged ``dpe-scenario/1`` (see docs/scenario-format.md).
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .pwl import RightConstantFn

SCENARIO_FORMAT = "dpe-scenario/1"

ACTIVE_TOLERANCE = 1e-9
"""Default slack, in time units, by which an active edge's predicted arrival
may exceed the node label."""

NodeId = str | int


class ValidationError(ValueError):
    """A model invariant is violated; the message names invariant and field."""


class ParseError(ValueError):
    """An input file could not be parsed; the message points at the spot."""


@dataclass(frozen=True)
class Edge:
    id: int
    tail: NodeId
    head: NodeId
    transit_time: float
    capacity: float


class Network:
    """Directed multigraph with positive transit times and capacities.

    Parallel edges and opposing edge pairs are allowed; self-loops are not.
    """

    def __init__(self, nodes, edges):
        self.nodes: tuple[NodeId, ...] = tuple(dict.fromkeys(nodes))
        self.node_index = {v: i for i, v in enumerate(self.nodes)}
        built = []
        for i, e in enumerate(edges):
            if isinstance(e, Edge):
                tail, head, tt, cap = e.tail, e.head, e.transit_time, e.capacity
            else:
                tail, head, tt, cap = e
            if tail not in self.node_index:
                raise ValidationError(f"edge {i}: unknown tail node {tail!r}")
            if head not in self.node_index:
                raise ValidationError(f"edge {i}: unknown head node {head!r}")
            if tail == head:
                raise ValidationError(f"edge {i}: self-loop at {tail!r} not allowed")
            if not (tt > 0):
                raise ValidationError(
                    f"edge {i} ({tail!r}->{head!r}): transit_time must be > 0, got {tt}")
            if not (cap > 0):
                raise ValidationError(
                    f"edge {i} ({tail!r}->{head!r}): capacity must be > 0, got {cap}")
            built.append(Edge(i, tail, head, float(tt), float(cap)))
        self.edges: tuple[Edge, ...] = tuple(built)
        out: dict[NodeId, list[Edge]] = {v: [] for v in self.nodes}
        inc: dict[NodeId, list[Edge]] = {v: [] for v in self.nodes}
        for e in self.edges:
            out[e.tail].append(e)
            inc[e.head].append(e)
        self.out_edges = {v: tuple(es) for v, es in out.items()}
        self.in_edges = {v: tuple(es) for v, es in inc.items()}

    @property
    def min_transit_time(self) -> float:
        return min((e.transit_time for e in self.edges), default=math.inf)

    def reachable_from(self, source: NodeId) -> set[NodeId]:
        seen = {source}
        frontier = deque([source])
        while frontier:
            v = frontier.popleft()
            for e in self.out_edges[v]:
                if e.head not in seen:
                    seen.add(e.head)
                    frontier.append(e.head)
        return seen

    def __repr__(self):
        return f"Network(|V|={len(self.nodes)}, |E|={len(self.edges)})"


@dataclass(frozen=True)
class Commodity:
    id: int
    source: NodeId
    sink: NodeId
    inflow: RightConstantFn
    predictor_spec: dict = field(default_factory=lambda: {"kind": "constant"})


@dataclass(frozen=True)
class PredictorParams:
    """Shared predictor hyperparameters; individual specs may override."""

    delta: float = 1.0                 # sampling step for backward differences
    prediction_horizon: float = math.inf
    samples: int = 10                  # past samples per neighbourhood edge
    sample_step: float = 1.0
    neighborhood_radius: int = 5       # incoming edges of the tail, zero-padded


@dataclass(frozen=True)
class Scenario:
    network: Network
    commodities: tuple[Commodity, ...]
    prediction_step: float
    horizon: float
    inflow_cutoff: float | None = None
    predictor_params: PredictorParams = field(default_factory=PredictorParams)
    active_tolerance: float = ACTIVE_TOLERANCE
    seed: int = 0
    base_dir: Path | None = None       # resolves relative model paths

    def __post_init__(self):
        if not (0 < self.prediction_step < math.inf):
            raise ValidationError(
                f"prediction_step must be finite and > 0, got {self.prediction_step}")
        if not (0 < self.horizon < math.inf):
            raise ValidationError(
                f"horizon must be finite and > 0, got {self.horizon}")
        if not (0 <= self.active_tolerance < math.inf):
            raise ValidationError("active_tolerance must be finite and >= 0, "
                                  f"got {self.active_tolerance}")
        if not (self.predictor_params.delta > 0):
            raise ValidationError("predictor_params.delta must be > 0")
        cutoff = self.inflow_cutoff
        if cutoff is None:
            cutoff = max((c.inflow.times[-1] for c in self.commodities), default=0.0)
            object.__setattr__(self, "inflow_cutoff", cutoff)
        if cutoff > self.horizon:
            raise ValidationError(
                f"inflow_cutoff {cutoff} exceeds horizon {self.horizon}")
        for c in self.commodities:
            self._check_commodity(c)

    def _check_commodity(self, c: Commodity):
        name = f"commodity {c.id}"
        _check_predictor_spec(c.predictor_spec, name)
        if c.source == c.sink:
            raise ValidationError(f"{name}: source equals sink ({c.source!r})")
        if c.source not in self.network.node_index:
            raise ValidationError(f"{name}: unknown source {c.source!r}")
        if c.sink not in self.network.node_index:
            raise ValidationError(f"{name}: unknown sink {c.sink!r}")
        if c.sink not in self.network.reachable_from(c.source):
            raise ValidationError(
                f"{name}: sink {c.sink!r} unreachable from source {c.source!r}")
        if any(r < 0 for r in c.inflow.values):
            raise ValidationError(f"{name}: inflow rates must be non-negative")
        if c.inflow.values[-1] != 0.0:
            raise ValidationError(
                f"{name}: inflow must have finite support (last rate must be 0)")
        if c.inflow.times[-1] > self.horizon:
            raise ValidationError(
                f"{name}: inflow support extends past the horizon")


def _check_predictor_spec(spec, where: str):
    if not isinstance(spec, dict):
        raise ValidationError(f"{where}: predictor must be an object like "
                              f'{{"kind": "linear"}}, got {spec!r}')


def block_inflow(rate: float, until: float) -> RightConstantFn:
    """Constant rate on [0, until), zero afterwards."""
    if until <= 0:
        raise ValidationError(f"inflow block must end after 0, got {until}")
    return RightConstantFn((0.0, float(until)), (float(rate), 0.0))


# ------------------------------------------------------------------- scenarios


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} col {exc.colno}") from exc
    return scenario_from_dict(doc, base_dir=path.parent)


def scenario_from_dict(doc: dict, base_dir: Path | None = None) -> Scenario:
    fmt = doc.get("format")
    if fmt != SCENARIO_FORMAT:
        raise ParseError(f"unsupported scenario format tag {fmt!r}, expected {SCENARIO_FORMAT!r}")
    net_doc = doc.get("network")
    if net_doc is None:
        raise ParseError("scenario is missing the 'network' section")
    seen_ids = set()
    edges = []
    for i, e in enumerate(net_doc.get("edges", [])):
        eid = e.get("id", i)
        if eid in seen_ids:
            raise ValidationError(f"duplicate edge id {eid}")
        seen_ids.add(eid)
        for key in ("tail", "head", "transit_time", "capacity"):
            if key not in e:
                raise ParseError(f"network edge {i}: missing field {key!r}")
        edges.append((e["tail"], e["head"], e["transit_time"], e["capacity"]))
    nodes = net_doc.get("nodes")
    if nodes is None:
        nodes = list(dict.fromkeys(n for t, h, *_ in edges for n in (t, h)))
    network = Network(nodes, edges)

    commodities = []
    for i, c in enumerate(doc.get("commodities", [])):
        for key in ("source", "sink", "inflow"):
            if key not in c:
                raise ParseError(f"commodity {i}: missing field {key!r}")
        spec = c.get("predictor", {"kind": "constant"})
        _check_predictor_spec(spec, f"commodity {i}")
        commodities.append(Commodity(
            id=i,
            source=c["source"],
            sink=c["sink"],
            inflow=_inflow_from_dict(c["inflow"], where=f"commodity {i}"),
            predictor_spec=dict(spec),
        ))

    pp = doc.get("predictor_params", {})
    horizon_pred = pp.get("prediction_horizon", None)
    params = PredictorParams(
        delta=pp.get("delta", 1.0),
        prediction_horizon=math.inf if horizon_pred is None else float(horizon_pred),
        samples=int(pp.get("samples", 10)),
        sample_step=pp.get("sample_step", pp.get("delta", 1.0)),
        neighborhood_radius=int(pp.get("neighborhood_radius", 5)),
    )
    if "prediction_step" not in doc or "horizon" not in doc:
        raise ParseError("scenario must declare 'prediction_step' and 'horizon'")
    return Scenario(
        network=network,
        commodities=tuple(commodities),
        prediction_step=float(doc["prediction_step"]),
        horizon=float(doc["horizon"]),
        inflow_cutoff=doc.get("inflow_cutoff"),
        predictor_params=params,
        active_tolerance=float(doc.get("active_tolerance", ACTIVE_TOLERANCE)),
        seed=int(doc.get("seed", 0)),
        base_dir=base_dir,
    )


def _inflow_from_dict(spec, where: str) -> RightConstantFn:
    if "rate" in spec:
        if "until" not in spec:
            raise ParseError(f"{where}: block inflow needs 'until'")
        return block_inflow(spec["rate"], spec["until"])
    if "times" in spec and "rates" in spec:
        return RightConstantFn(tuple(spec["times"]), tuple(spec["rates"]))
    raise ParseError(f"{where}: inflow must give rate/until or times/rates")


def scenario_to_dict(scenario: Scenario) -> dict:
    pp = scenario.predictor_params
    horizon_pred = None if math.isinf(pp.prediction_horizon) else pp.prediction_horizon
    return {
        "format": SCENARIO_FORMAT,
        "network": {
            "nodes": list(scenario.network.nodes),
            "edges": [
                {"tail": e.tail, "head": e.head,
                 "transit_time": e.transit_time, "capacity": e.capacity}
                for e in scenario.network.edges
            ],
        },
        "commodities": [
            {"source": c.source, "sink": c.sink,
             "inflow": {"times": list(c.inflow.times), "rates": list(c.inflow.values)},
             "predictor": dict(c.predictor_spec)}
            for c in scenario.commodities
        ],
        "prediction_step": scenario.prediction_step,
        "horizon": scenario.horizon,
        "inflow_cutoff": scenario.inflow_cutoff,
        "predictor_params": {
            "delta": pp.delta,
            "prediction_horizon": horizon_pred,
            "samples": pp.samples,
            "sample_step": pp.sample_step,
            "neighborhood_radius": pp.neighborhood_radius,
        },
        "active_tolerance": scenario.active_tolerance,
        "seed": scenario.seed,
    }


def save_scenario(scenario: Scenario, path: str | Path):
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


# --------------------------------------------------------------------- imports


def import_tntp(path: str | Path, *, time_scale: float = 1.0,
                capacity_scale: float = 1.0) -> Network:
    """Read the network subset of a TNTP file.

    Consumes the capacity and free-flow-time columns of the standard link
    table; all other columns are ignored.  Scaling factors convert the file's
    units into simulation units (both default to 1.0).
    """
    path = Path(path)
    n_nodes = None
    edges = []
    in_table = False
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("~", 1)[0].strip()
        if not line:
            continue
        if line.startswith("<"):
            key, _, value = line.partition(">")
            key = key.strip("< ").upper()
            value = value.strip()
            if key == "NUMBER OF NODES" and value:
                n_nodes = int(value)
            if key == "END OF METADATA":
                in_table = True
            continue
        if not in_table:
            in_table = True  # tolerate files without the metadata sentinel
        row = line.rstrip(";").split()
        if len(row) < 5:
            raise ParseError(f"{path}:{lineno}: expected at least 5 link columns, got {len(row)}")
        try:
            tail, head = int(row[0]), int(row[1])
            capacity = float(row[2]) * capacity_scale
            fft = float(row[4]) * time_scale
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: malformed link row: {raw!r}") from exc
        if not (capacity > 0):
            raise ValidationError(
                f"{path}:{lineno}: edge {tail}->{head} capacity must be > 0 after scaling")
        if not (fft > 0):
            raise ValidationError(
                f"{path}:{lineno}: edge {tail}->{head} free-flow time must be > 0 after scaling")
        edges.append((tail, head, fft, capacity))
    # the declared nodes 1..n, isolated ones included, and every endpoint
    nodes = sorted(set(range(1, (n_nodes or 0) + 1)).union(
        *((t, h) for t, h, *_ in edges)))
    return Network(nodes, edges)


def import_edge_list(path: str | Path) -> Network:
    """Read a ``tail,head,transit_time,capacity`` CSV (or a JSON edge array)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        doc = json.loads(path.read_text())
        rows = [(e["tail"], e["head"], e["transit_time"], e["capacity"]) for e in doc]
        nodes = list(dict.fromkeys(n for t, h, *_ in rows for n in (t, h)))
        return Network(nodes, rows)
    edges = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["tail", "head", "transit_time", "capacity"]
        if header is None or [h.strip() for h in header] != expected:
            raise ParseError(f"{path}: expected header {','.join(expected)!r}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            try:
                edges.append((row[0], row[1], float(row[2]), float(row[3])))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: malformed row {row!r}") from exc
    nodes = list(dict.fromkeys(n for t, h, *_ in edges for n in (t, h)))
    return Network(nodes, edges)


def export_edge_list(network: Network, path: str | Path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tail", "head", "transit_time", "capacity"])
        for e in network.edges:
            writer.writerow([e.tail, e.head, repr(e.transit_time), repr(e.capacity)])


# ----------------------------------------------------------------- commodities


def random_commodities(network: Network, count: int, *, seed: int,
                       inflow_factor: float = 0.2, inflow_cutoff: float,
                       predictor_kinds: tuple[dict, ...] = ({"kind": "constant"},),
                       ) -> tuple[Commodity, ...]:
    """Seeded stand-in for demand data: uniform source/sink pairs among
    connected node pairs; each inflow rate is ``inflow_factor`` times the sum
    of the source's outgoing capacities.  Predictor specs are assigned
    round-robin from ``predictor_kinds``.
    """
    rng = np.random.default_rng(seed)
    sources = [v for v in network.nodes if network.out_edges[v]]
    if not sources:
        raise ValidationError("network has no node with outgoing edges")
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ValidationError("could not sample enough connected source/sink pairs")
        s = sources[int(rng.integers(len(sources)))]
        targets = sorted(network.reachable_from(s) - {s}, key=str)
        if not targets:
            continue
        t = targets[int(rng.integers(len(targets)))]
        rate = inflow_factor * sum(e.capacity for e in network.out_edges[s])
        spec = dict(predictor_kinds[len(out) % len(predictor_kinds)])
        out.append(Commodity(
            id=len(out), source=s, sink=t,
            inflow=block_inflow(rate, inflow_cutoff),
            predictor_spec=spec,
        ))
    return tuple(out)
