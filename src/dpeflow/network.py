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

from .predictors import PREDICTOR_KINDS, check_settings
from .pwl import EPS, RightConstantFn

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
    """Directed multigraph with positive capacities and transit times
    finite and > ``pwl.EPS``.

    Parallel edges and opposing edge pairs are allowed; self-loops are not.
    ``edges`` are (tail, head, transit_time, capacity) rows; edge ids are
    their positions.
    """

    def __init__(self, nodes, edges):
        self.nodes: tuple[NodeId, ...] = tuple(dict.fromkeys(nodes))
        self.node_index = {v: i for i, v in enumerate(self.nodes)}
        built = []
        for i, (tail, head, tt, cap) in enumerate(edges):
            if tail not in self.node_index:
                raise ValidationError(f"edge {i}: unknown tail node {tail!r}")
            if head not in self.node_index:
                raise ValidationError(f"edge {i}: unknown head node {head!r}")
            if tail == head:
                raise ValidationError(f"edge {i}: self-loop at {tail!r} not allowed")
            if not (EPS < tt < math.inf):
                raise ValidationError(
                    f"edge {i} ({tail!r}->{head!r}): transit_time must be "
                    f"finite and > {EPS:g}, got {tt}")
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
        self.min_transit_time = min(
            (e.transit_time for e in self.edges), default=math.inf)

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
    """Shared predictor hyperparameters; individual specs may override.

    Checked when made, against the setting rules (``predictors.SETTINGS``);
    a ValidationError names the field."""

    delta: float = 1.0                 # sampling step for backward differences
    prediction_horizon: float = math.inf
    samples: int = 10                  # past samples per neighbourhood edge
    sample_step: float = 1.0
    neighborhood_radius: int = 5       # incoming edges of the tail, zero-padded

    def __post_init__(self):
        check_settings(vars(self), "predictor_params.", ValidationError)


@dataclass(frozen=True)
class Scenario:
    network: Network
    commodities: tuple[Commodity, ...]
    prediction_step: float
    horizon: float
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
        reach: dict[NodeId, set[NodeId]] = {}   # one search per source
        for c in self.commodities:
            self._check_commodity(c, reach)

    def _check_commodity(self, c: Commodity, reach: dict):
        name = f"commodity {c.id}"
        _check_predictor_spec(c.predictor_spec, name)
        if c.source == c.sink:
            raise ValidationError(f"{name}: source equals sink ({c.source!r})")
        if c.source not in self.network.node_index:
            raise ValidationError(f"{name}: unknown source {c.source!r}")
        if c.sink not in self.network.node_index:
            raise ValidationError(f"{name}: unknown sink {c.sink!r}")
        reachable = reach.get(c.source)
        if reachable is None:
            reachable = reach[c.source] = self.network.reachable_from(c.source)
        if c.sink not in reachable:
            raise ValidationError(
                f"{name}: sink {c.sink!r} unreachable from source {c.source!r}")
        if c.inflow.times[0] < 0:
            raise ValidationError(f"{name}: inflow times must be >= 0, got "
                                  f"{c.inflow.times[0]}")
        if any(r < 0 for r in c.inflow.values):
            raise ValidationError(f"{name}: inflow rates must be non-negative")
        if c.inflow.values[-1] != 0.0:
            raise ValidationError(
                f"{name}: inflow must have finite support (last rate must be 0)")
        if c.inflow.times[-1] > self.horizon:
            raise ValidationError(
                f"{name}: inflow support extends past the horizon")


def _check_predictor_spec(spec, where: str):
    """Check the spec's kind, and each key that names a setting, against
    the setting rules; a kind-only spec costs one lookup."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{where}: predictor must be an object like "
                              f'{{"kind": "linear"}}, got {spec!r}')
    if len(spec) > 1 or spec.get("kind") not in PREDICTOR_KINDS:
        check_settings({"kind": spec.get("kind"), **spec},
                       f"{where}: predictor.", ValidationError)


def block_inflow(rate: float, until: float) -> RightConstantFn:
    """Constant rate on [0, until), zero afterwards."""
    if until <= 0:
        raise ValidationError(f"inflow block must end after 0, got {until}")
    return RightConstantFn((0.0, float(until)), (float(rate), 0.0))


# ------------------------------------------------------------------- scenarios


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return scenario_from_dict(_read_json(path), base_dir=path.parent)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} col {exc.colno}") from exc


def _json(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind`` (dict or list), else a
    ParseError naming ``what``."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise ParseError(f"{what} must be {name}, got {value!r}")
    return value


# Scalar checks: ``value`` if it has the JSON type, else a ParseError naming
# ``what.format(*args)``, formatted only then.  A bool is not a number.

def _number(value, what: str, *args):
    if isinstance(value, (int, float)) and type(value) is not bool:
        return value
    raise ParseError(f"{what.format(*args)} must be a number, got {value!r}")


def _int(value, what: str, *args):
    if isinstance(value, int) and type(value) is not bool:
        return value
    raise ParseError(f"{what.format(*args)} must be an integer, got {value!r}")


def _node(value, what: str, *args):
    if isinstance(value, (str, int)) and type(value) is not bool:
        return value
    raise ParseError(f"{what.format(*args)} must be a string or an integer, "
                     f"got {value!r}")


def _edge_row(e, where: str) -> tuple:
    """(tail, head, transit_time, capacity) of the JSON edge entry ``e``,
    else a ParseError naming ``where`` and the field."""
    _json(e, dict, where)
    for key in ("tail", "head", "transit_time", "capacity"):
        if key not in e:
            raise ParseError(f"{where}: missing field {key!r}")
    return (_node(e["tail"], "{}: tail", where),
            _node(e["head"], "{}: head", where),
            _number(e["transit_time"], "{}: transit_time", where),
            _number(e["capacity"], "{}: capacity", where))


def scenario_from_dict(doc: dict, base_dir: Path | None = None) -> Scenario:
    _json(doc, dict, "a scenario")
    fmt = doc.get("format")
    if fmt != SCENARIO_FORMAT:
        raise ParseError(f"unsupported scenario format tag {fmt!r}, expected {SCENARIO_FORMAT!r}")
    net_doc = doc.get("network")
    if net_doc is None:
        raise ParseError("scenario is missing the 'network' section")
    _json(net_doc, dict, "'network'")
    seen_ids = set()
    edges = []
    for i, e in enumerate(_json(net_doc.get("edges", []), list,
                                "'network.edges'")):
        where = f"network edge {i}"
        edges.append(_edge_row(e, where))
        eid = _int(e.get("id", i), "{}: id", where)
        if eid in seen_ids:
            raise ValidationError(f"duplicate edge id {eid}")
        seen_ids.add(eid)
    nodes = net_doc.get("nodes")
    if nodes is None:
        nodes = list(dict.fromkeys(n for t, h, *_ in edges for n in (t, h)))
    else:
        nodes = [_node(v, "network node {}", k) for k, v in
                 enumerate(_json(nodes, list, "'network.nodes'"))]
    network = Network(nodes, edges)

    commodities = []
    for i, c in enumerate(_json(doc.get("commodities", []), list,
                                "'commodities'")):
        _json(c, dict, f"commodity {i}")
        for key in ("source", "sink", "inflow"):
            if key not in c:
                raise ParseError(f"commodity {i}: missing field {key!r}")
        spec = c.get("predictor", {"kind": "constant"})
        _check_predictor_spec(spec, f"commodity {i}")
        commodities.append(Commodity(
            id=i,
            source=_node(c["source"], "commodity {}: source", i),
            sink=_node(c["sink"], "commodity {}: sink", i),
            inflow=_inflow_from_dict(c["inflow"], where=f"commodity {i}"),
            predictor_spec=dict(spec),
        ))

    pp = _json(doc.get("predictor_params", {}), dict, "'predictor_params'")
    horizon_pred = pp.get("prediction_horizon", None)
    params = PredictorParams(
        delta=pp.get("delta", 1.0),
        prediction_horizon=math.inf if horizon_pred is None else horizon_pred,
        samples=pp.get("samples", 10),
        sample_step=pp.get("sample_step", pp.get("delta", 1.0)),
        neighborhood_radius=pp.get("neighborhood_radius", 5),
    )
    if "prediction_step" not in doc or "horizon" not in doc:
        raise ParseError("scenario must declare 'prediction_step' and 'horizon'")
    return Scenario(
        network=network,
        commodities=tuple(commodities),
        prediction_step=float(_number(doc["prediction_step"],
                                      "'prediction_step'")),
        horizon=float(_number(doc["horizon"], "'horizon'")),
        predictor_params=params,
        active_tolerance=float(_number(doc.get("active_tolerance",
                                               ACTIVE_TOLERANCE),
                                       "'active_tolerance'")),
        seed=_int(doc.get("seed", 0), "'seed'"),
        base_dir=base_dir,
    )


def _inflow_from_dict(spec, where: str) -> RightConstantFn:
    _json(spec, dict, f"{where}: inflow")
    if "rate" in spec:
        if "until" not in spec:
            raise ParseError(f"{where}: block inflow needs 'until'")
        return block_inflow(_number(spec["rate"], "{}: inflow rate", where),
                            _number(spec["until"], "{}: inflow 'until'", where))
    if "times" in spec and "rates" in spec:
        return RightConstantFn(*(
            tuple(_number(x, "{}: inflow {}[{}]", where, key, k) for k, x in
                  enumerate(_json(spec[key], list, f"{where}: inflow {key}")))
            for key in ("times", "rates")))
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


def import_tntp(path: str | Path) -> Network:
    """Read the network subset of a TNTP file.

    Consumes the capacity and free-flow-time columns of the standard link
    table, in simulation units; all other columns are ignored.
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
            capacity = float(row[2])
            fft = float(row[4])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: malformed link row: {raw!r}") from exc
        if not (capacity > 0):
            raise ValidationError(
                f"{path}:{lineno}: edge {tail}->{head} capacity must be > 0")
        if not (EPS < fft < math.inf):
            raise ValidationError(
                f"{path}:{lineno}: edge {tail}->{head} free-flow time must be "
                f"finite and > {EPS:g}")
        edges.append((tail, head, fft, capacity))
    # the declared nodes 1..n, isolated ones included, and every endpoint
    nodes = sorted(set(range(1, (n_nodes or 0) + 1)).union(
        *((t, h) for t, h, *_ in edges)))
    return Network(nodes, edges)


def import_edge_list(path: str | Path) -> Network:
    """Read a ``tail,head,transit_time,capacity`` CSV (or a JSON edge array,
    whose entries are checked as a scenario's network edges are)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        doc = _json(_read_json(path), list, str(path))
        rows = [_edge_row(e, f"{path}: edge {i}") for i, e in enumerate(doc)]
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
    targets_of: dict[NodeId, list[NodeId]] = {}   # one search per source
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ValidationError("could not sample enough connected source/sink pairs")
        s = sources[int(rng.integers(len(sources)))]
        targets = targets_of.get(s)
        if targets is None:
            targets = targets_of[s] = sorted(network.reachable_from(s) - {s},
                                             key=str)
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
