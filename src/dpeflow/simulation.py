"""Flow rollout under predictive routing.

Time is cut into rounds of length ``prediction_step``.  At the start of a
round every commodity may refresh its queue forecasts and the earliest
arrival labels derived from them; the resulting active edges stay fixed for
the round.  Labels are asked for at the round start only, so they are
computed exactly from that time on and not before it (see ``routing``).
Within a round the flow evolves exactly: sub-phases advance from
one known rate change to the next, and the node inflow of every commodity is
split equally over its active out-edges.  Work follows the rate changes: a
commodity's node inflows are read again only when its outflows or inflow
profile changed, a (commodity, node) pair is split again only at a round
start or when its rate changed, and assigned rates hold, so only changes
are assigned (0 where a pair's split no longer reaches).

Sub-phase boundaries never overrun the shortest transit time, so every rate
change that could affect a decision is already materialized when it is
needed; no discretization error enters below the round level.

Forecasts are made for every edge in each round that needs labels.  Every
predictor forecasts an edge that stays empty as the shared zero
``constant_fn(0.0)``, whose exit time t + transit time depends on the edge
alone; a run builds that free-flow exit function once per edge and shares
it between all predictor specs, so an idle edge costs a forecast call and a
lookup per round.  Skipping the forecasts of idle edges as well would need
``perfbench/test_trace.py`` changed, which expects the number of forecasts
to be a multiple of the edge count.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .flow_state import FlowOverTime, SimEvent
from .network import Commodity, Network, Scenario, block_inflow
from .predictors import (
    PredictorModeError,
    QueueHistory,
    build_predictor,
    exit_time_fn,
)
from .pwl import EPS, PiecewiseLinearFn, constant_fn, linear_combination
from .routing import LabelSet, compute_labels

log = logging.getLogger(__name__)


class StrandedFlowError(Exception):
    """Raised when flow sits at a node with no active edge to leave by."""


@dataclass
class RoundRecord:
    """Active-edge queries of one round, kept for post-hoc equilibrium audits."""

    index: int
    time: float
    active_queries: dict[tuple[int, str], tuple[int, ...]] = field(
        default_factory=dict)


@dataclass
class RunResult:
    scenario: Scenario
    state: FlowOverTime
    rounds: list[RoundRecord]
    events: list[SimEvent]


@dataclass(frozen=True)
class CommodityMetrics:
    commodity: int
    predictor: str
    total_tt: float
    avg_tt: float
    inflow_mass: float
    outflow_mass: float


@dataclass(frozen=True)
class MetricsReport:
    horizon: float
    rows: tuple[CommodityMetrics, ...]

    @property
    def total_tt(self) -> float:
        return sum(r.total_tt for r in self.rows)

    @property
    def avg_tt(self) -> float:
        mass = sum(r.inflow_mass for r in self.rows)
        return self.total_tt / mass if mass > 0 else 0.0


def run(scenario: Scenario, *, realized_state: FlowOverTime | None = None,
        record_rounds: bool = True) -> RunResult:
    """Roll the scenario forward to its horizon and return the full record.

    ``realized_state`` feeds the perfect predictor for post-hoc best-response
    runs; without it, a scenario using the perfect predictor is refused.
    """
    net = scenario.network
    comms = scenario.commodities
    for c in comms:
        if c.predictor_spec.get("kind") == "perfect" and realized_state is None:
            raise PredictorModeError(
                f"commodity {c.id} uses the perfect predictor, which needs a "
                "realized flow; run another predictor first")
    predictors = [build_predictor(c.predictor_spec, scenario.predictor_params,
                                  base_dir=scenario.base_dir,
                                  final_state=realized_state)
                  for c in comms]
    # forecasts are shared per predictor spec, labels per (spec, sink)
    spec_keys = [json.dumps(c.predictor_spec, sort_keys=True) for c in comms]
    # edge id -> exit function of an empty forecast, for every spec
    free_flow: dict[int, PiecewiseLinearFn] = {}

    state = FlowOverTime(net, len(comms))
    events: list[SimEvent] = []
    rounds: list[RoundRecord] = []
    prev_active: dict[tuple[int, str], tuple[int, ...]] = {}

    eps = scenario.prediction_step
    horizon = scenario.horizon
    tau_min = net.min_transit_time
    profile_marks = sorted({t for c in comms for t in c.inflow.times})
    # per commodity, node inflows last read and node -> (rate, active ids)
    inflows: list[dict[str, float]] = [{} for _ in comms]
    splits: list[dict[str, tuple[float, tuple[int, ...]]]] = [
        {} for _ in comms]
    last_at = -math.inf

    # at least one round, so that injected flow is always routed
    n_rounds = max(1, math.ceil(horizon / eps - EPS))
    for k in range(n_rounds):
        round_start = k * eps
        round_end = min((k + 1) * eps, horizon)
        record = RoundRecord(k, round_start)
        history = QueueHistory(state, round_start)
        label_cache: dict[tuple[str, str], LabelSet] = {}
        # spec key -> its exit table and what the spec's label sets read of
        # it, the shifts or the table cut at the round start, shared by them
        exit_cache: dict[str, tuple[dict, dict]] = {}
        exit_built = 0

        def labels_for(i: int) -> LabelSet:
            nonlocal exit_built
            spec_key, sink = spec_keys[i], comms[i].sink
            ls = label_cache.get((spec_key, sink))
            if ls is None:
                tables = exit_cache.get(spec_key)
                if tables is None:
                    exit_fns, built = _exit_fns(predictors[i], history, net,
                                                free_flow)
                    exit_built += built
                    tables = exit_cache[spec_key] = (exit_fns, {})
                ls = compute_labels(net, sink, tables[0],
                                    scenario.active_tolerance,
                                    start=round_start, restricted=tables[1])
                label_cache[(spec_key, sink)] = ls
            return ls

        t = round_start
        sub_phases, advanced, resplit = 0, state.edges_advanced, 0
        while t < round_end - EPS:
            b = min(round_end, t + tau_min)
            nxt = state.next_rate_change(t)
            if nxt is not None:
                b = min(b, nxt)
            j = bisect_right(profile_marks, t + EPS)
            if j < len(profile_marks):
                b = min(b, profile_marks[j])

            at = t   # the time the node inflows of the sub-phase are read at
            for i, c in enumerate(comms):
                marks = c.inflow.times
                if (state.outflow_changed(i, last_at, at)
                        or bisect_right(marks, last_at)
                        < bisect_right(marks, at)):
                    inflows[i] = _node_inflows(state, net, c, i, at)
                elif t != round_start:
                    continue   # same rates and active sets: the splits hold
                rates, split = inflows[i], splits[i]
                for v, rate in rates.items():
                    if v == c.sink or rate <= EPS:
                        continue
                    key = (i, v)
                    active_ids = record.active_queries.get(key)
                    if active_ids is None:
                        active = labels_for(i).active_edges(v, round_start)
                        active_ids = tuple(e.id for e in active)
                        record.active_queries[key] = active_ids
                        old = prev_active.get(key)
                        if old is not None and old != active_ids:
                            events.append(SimEvent(
                                round_start, "route_change", None, i,
                                f"{v}: {list(old)}->{list(active_ids)}"))
                    if not active_ids:
                        raise StrandedFlowError(
                            f"commodity {c.id} has inflow {rate:g} at {v!r} "
                            f"at time {t:g} but no active edge")
                    old = split.get(v)
                    if old == (rate, active_ids):
                        continue
                    share = rate / len(active_ids)
                    for eid in active_ids:
                        state.assign_inflow(i, eid, share)
                    for eid in old[1] if old else ():
                        if eid not in active_ids:
                            state.assign_inflow(i, eid, 0.0)
                    split[v] = (rate, active_ids)
                    resplit += 1
                for v in [v for v in split if not rates.get(v, 0.0) > EPS]:
                    for eid in split.pop(v)[1]:
                        state.assign_inflow(i, eid, 0.0)
                    resplit += 1
            last_at = at

            events.extend(state.advance(b))
            sub_phases += 1
            t = b

        log.debug("round %d at t=%g: %d sub-phases, %d pairs re-split, %d "
                  "edges advanced, %d exit functions built, %d label sets, "
                  "%d active queries", k, round_start, sub_phases, resplit,
                  state.edges_advanced - advanced, exit_built,
                  len(label_cache), len(record.active_queries))
        prev_active.update(record.active_queries)
        if record_rounds:
            rounds.append(record)

    if state.built_until < horizon - EPS:
        events.extend(state.advance(horizon))
    events.sort(key=lambda e: (e.time, e.kind, e.edge if e.edge is not None
                               else -1, e.commodity if e.commodity is not None
                               else -1))
    return RunResult(scenario, state, rounds, events)


def _exit_fns(predictor, history, net, free_flow):
    """Predicted exit-time function of every edge under one predictor, and
    how many of them were built.

    ``free_flow`` maps an edge id to the exit function of an empty forecast,
    the shared ``constant_fn(0.0)``, and is filled on first use.
    """
    zero = constant_fn(0.0)
    exit_fns = {}
    built = 0
    for e in net.edges:
        predicted = predictor.predict(history, e.id)
        idle = predicted.fn is zero
        fn = free_flow.get(e.id) if idle else None
        if fn is None:
            fn = exit_time_fn(predicted, e.transit_time, e.capacity)
            built += 1
            if idle:
                free_flow[e.id] = fn
        exit_fns[e.id] = fn
    return exit_fns, built


def _node_inflows(state, net, commodity, i, t):
    """Per-node inflow rates of one commodity at time ``t``; its inflow
    profile is 0 before its first time."""
    rates: dict[str, float] = {}
    u = commodity.inflow(t) if t >= commodity.inflow.times[0] else 0.0
    if u > EPS:
        rates[commodity.source] = u
    for eid, r in state.outflows_at(i, t):
        if r > EPS:
            head = net.edges[eid].head
            rates[head] = rates.get(head, 0.0) + r
    return rates


# -------------------------------------------------------------------- metrics


def compute_metrics(result: RunResult) -> MetricsReport:
    """Total and average travel time per commodity.

    Travel time spent in the network is the area between the cumulative
    network inflow and the cumulative sink arrivals up to the horizon; mass
    still in transit at the horizon is charged for its time so far.
    """
    scenario = result.scenario
    net = scenario.network
    horizon = scenario.horizon
    rows = []
    for i, c in enumerate(scenario.commodities):
        arrived = [result.state.outflow_fn(i, e.id).cumulative()
                   for e in net.in_edges[c.sink]]
        entered = c.inflow.cumulative()
        in_transit = linear_combination([entered] + arrived,
                                        [1.0] + [-1.0] * len(arrived))
        total = in_transit.integral(0.0, horizon)
        mass_in = entered(horizon)
        mass_out = sum(f(horizon) for f in arrived)
        rows.append(CommodityMetrics(
            commodity=c.id,
            predictor=c.predictor_spec.get("kind", "?"),
            total_tt=total,
            avg_tt=total / mass_in if mass_in > 0 else 0.0,
            inflow_mass=mass_in,
            outflow_mass=mass_out,
        ))
    return MetricsReport(horizon, tuple(rows))


# --------------------------------------------------------------------- audits


def audit_dpe(result: RunResult, *, max_rounds: int | None = None) -> int:
    """Re-derive every recorded routing decision from the finished flow.

    Predictors only read queues up to the prediction time, so rebuilding the
    forecast from the final state must reproduce the live decision exactly.
    Returns the number of verified queries; raises on any mismatch.
    """
    scenario = result.scenario
    net = scenario.network
    comms = scenario.commodities
    predictors = [build_predictor(c.predictor_spec, scenario.predictor_params,
                                  base_dir=scenario.base_dir,
                                  final_state=result.state)
                  for c in comms]
    checked = 0
    for record in result.rounds[:max_rounds]:
        history = QueueHistory(result.state, record.time)
        by_commodity: dict[int, LabelSet] = {}
        for (i, v), live_ids in sorted(record.active_queries.items()):
            ls = by_commodity.get(i)
            if ls is None:
                # a fresh free-flow table: the replay builds its own exit
                # functions and trusts none of the live run's
                exit_fns, _ = _exit_fns(predictors[i], history, net, {})
                ls = compute_labels(net, comms[i].sink, exit_fns,
                                    scenario.active_tolerance)
                by_commodity[i] = ls
            replay_ids = tuple(e.id for e in ls.active_edges(v, record.time))
            if replay_ids != live_ids:
                raise AssertionError(
                    f"round {record.index} commodity {i} node {v!r}: live "
                    f"active set {live_ids} vs replayed {replay_ids}")
            checked += 1
    return checked


def audit_ide(result: RunResult, tol: float = 1e-9) -> int:
    """Check rounds against instantaneous shortest paths.

    Under the constant predictor every decision must match a static shortest
    path on edge costs transit_time + queue(now)/capacity.  Compares the
    recorded active sets against a scalar Bellman-Ford run per round.
    Returns the number of verified queries.
    """
    scenario = result.scenario
    for c in scenario.commodities:
        if c.predictor_spec.get("kind") != "constant":
            raise ValueError("instantaneous audit requires the constant "
                             f"predictor; commodity {c.id} uses "
                             f"{c.predictor_spec.get('kind')!r}")
    net = scenario.network
    state = result.state
    checked = 0
    for record in result.rounds:
        costs = {e.id: e.transit_time + state.queue_at(e.id, record.time)
                 / e.capacity for e in net.edges}
        dist_cache: dict[str, dict[str, float]] = {}
        for (i, v), live_ids in sorted(record.active_queries.items()):
            sink = scenario.commodities[i].sink
            dist = dist_cache.get(sink)
            if dist is None:
                dist = _scalar_distances(net, sink, costs)
                dist_cache[sink] = dist
            want = tuple(
                e.id for e in net.out_edges[v]
                if e.head in dist and costs[e.id] + dist[e.head]
                <= dist[v] + scenario.active_tolerance)
            if want != live_ids:
                raise AssertionError(
                    f"round {record.index} commodity {i} node {v!r}: active "
                    f"set {live_ids} vs instantaneous shortest {want}")
            for eid in live_ids:
                e = net.edges[eid]
                gap = costs[eid] + dist[e.head] - dist[v]
                if abs(gap) > tol + scenario.active_tolerance:
                    raise AssertionError(
                        f"round {record.index} edge {eid}: active edge is "
                        f"{gap:g} above the shortest path")
            checked += 1
    return checked


def _scalar_distances(net: Network, sink: str, costs: dict[int, float]):
    dist = {sink: 0.0}
    for _ in range(len(net.nodes) - 1):
        changed = False
        for e in net.edges:
            d = dist.get(e.head)
            if d is None:
                continue
            nd = costs[e.id] + d
            if nd < dist.get(e.tail, math.inf):
                dist[e.tail] = nd
                changed = True
        if not changed:
            break
    return dist


# ------------------------------------------------------------ counterexample


def counterexample_scenario(epsilon: float = 0.25,
                            horizon: float = 50.0) -> Scenario:
    """Two parallel routes whose discontinuous forecasts never settle.

    The short route is predicted by a threshold rule that jumps as soon as
    its queue reaches 1.  All inflow then piles onto whichever route looks
    cheaper, pushing the short queue back and forth across the threshold
    forever; the routing decision flips every round from time 1 on.
    """
    net = Network(["s", "t"], [("s", "t", 1.0, 1.0), ("s", "t", 2.0, 2.0)])
    commodity = Commodity(
        id=0, source="s", sink="t",
        inflow=block_inflow(2.0, horizon),
        predictor_spec={"kind": "threshold", "threshold": 1.0,
                        "high_value": 2.0})
    return Scenario(network=net, commodities=(commodity,),
                    prediction_step=epsilon, horizon=horizon)


def run_counterexample_demo(epsilon: float = 0.25, horizon: float = 50.0):
    """Run the oscillation example and summarize how unstable it is."""
    scenario = counterexample_scenario(epsilon, horizon)
    result = run(scenario)
    flips = sum(1 for e in result.events
                if e.kind == "route_change" and e.detail.startswith("s:"))
    trace = [(r.time, result.state.queue_at(0, r.time)) for r in result.rounds]
    return {
        "result": result,
        "flips": flips,
        "rounds": len(result.rounds),
        "short_queue_at_1": result.state.queue_at(0, 1.0),
        "queue_trace": trace,
    }


# ---------------------------------------------------------------------- sweep


def sweep_variant(scenario: Scenario, total_inflow: float,
                  predictor_kind: str) -> Scenario:
    """The same scenario with inflow rescaled and one predictor for all."""
    comms = []
    for c in scenario.commodities:
        support_end = c.inflow.times[-1]
        comms.append(Commodity(
            id=c.id, source=c.source, sink=c.sink,
            inflow=block_inflow(total_inflow / len(scenario.commodities),
                                support_end),
            predictor_spec={"kind": predictor_kind}))
    return Scenario(network=scenario.network, commodities=tuple(comms),
                    prediction_step=scenario.prediction_step,
                    horizon=scenario.horizon,
                    predictor_params=scenario.predictor_params,
                    active_tolerance=scenario.active_tolerance,
                    seed=scenario.seed, base_dir=scenario.base_dir)


def _sweep_task(args):
    scenario, total, kind = args
    report = compute_metrics(run(sweep_variant(scenario, total, kind),
                                 record_rounds=False))
    return total, kind, report.avg_tt


def run_sweep(scenario: Scenario, totals, predictor_kinds, jobs: int = 1):
    """Average travel time over an inflow grid, one curve per predictor.

    Simulates in up to ``jobs`` worker processes, never more than there are
    runs.  Returns rows (total_inflow, predictor, avg_tt) in grid-major
    order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [(scenario, total, kind)
             for total in totals for kind in predictor_kinds]
    # a fork-started pool launches all its workers at the first submit
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_task, tasks))
    return [_sweep_task(t) for t in tasks]
