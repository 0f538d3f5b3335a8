"""Evolving multi-commodity flow state on a network.

Each edge is a point queue behind a server of fixed capacity: flow entering
at time t leaves the edge at t + transit_time + waiting.  The server drains
the queue at capacity whenever it is non-empty; otherwise the outflow equals
the inflow capped at capacity.  Commodities share each edge under FIFO, so an
exit interval carries the commodity mix of the matching entry interval.

The flow is extended one sub-phase at a time, from one rate change to the
next: an inflow rate is assigned at the built horizon and holds until the
next assignment, so an advance extends each live edge over one piece of
constant inflow, with no search for inflow breakpoints.  Queues are the
induced piecewise-linear trajectories, and outflows are derived while
advancing by mapping each entry piece through the edge's exit-time function
via a running cursor (flat stretches of the exit-time map carry no entering
mass, so earlier entries keep discharging).

State is made on first assignment.  An edge's state is made on the edge's
first ``assign_inflow``, and a commodity's breakpoint lists on an edge on
that commodity's first assignment to it; until then every reader answers
with what a built, never-assigned edge or commodity gives (no inflow, no
outflow, an empty queue up to the built horizon) and builds nothing.  So a
run holds state only for the edges and commodities its flow reached, and
``queues_at`` reads the queues of those edges only (all others are +0.0).

Advancing is sparse in edges and in commodities.  Only live edges are
advanced, in edge-id order.  An edge goes dormant once a free-flow piece
has emitted the outflow rates its inflow rates give (all 0 on an idle
edge): every later piece at those rates emits them again, so advancing it
would only move its flat, empty queue to the built horizon and its exit
cursor to the horizon plus the transit time.  A dormant edge does exactly
that when it wakes, on its next ``assign_inflow``, and when its queue is
read as a function (``queue_fn``, ``queue_left_slope``, ``audit_flow``), so
every recorded breakpoint is the one a full sweep would have produced; an
edge made at time T wakes the same way, with the queue breakpoints [0, T].
On each edge only the commodities that ever had a non-zero inflow there are
visited; all other commodities carry exact zeros, whose omission leaves
every sum unchanged.

An edge is steady while its last extension was one queued piece at the
inflow rates that hold, raised no event and emitted its outflow if it had
inflow: the next piece repeats those outflow rates, so it is made in
constant time (not counted in ``edges_advanced``), unless it may deplete.

The times of the outflow breakpoints go into one sorted index, and per
commodity into another, as they are recorded; so the next rate change after
a time, and whether a commodity's rates changed between two, are bisections.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .network import Network
from .pwl import EPS, PiecewiseLinearFn, RightConstantFn


@dataclass(frozen=True)
class SimEvent:
    """One entry of a run's event log."""

    time: float
    kind: str            # "outflow_change" | "queue_depleted" | "route_change"
    edge: int | None = None
    commodity: int | None = None
    detail: str = ""


class _EdgeState:
    __slots__ = (
        "edge", "live", "steady", "in_total", "commodities", "in_times",
        "in_rates", "out_times", "out_rates", "agg_times", "agg_rates",
        "q_times", "q_values", "q_slope_last", "exit_cursor",
    )

    def __init__(self, edge):
        self.edge = edge
        self.live = False
        self.steady = False   # see the module docstring
        self.in_total = 0.0   # the inflow rates' sum at the last full extension
        self.commodities: list[int] = []   # sorted, ever had inflow > 0
        # keyed by the commodities ever assigned to the edge
        self.in_times: dict[int, list[float]] = {}
        self.in_rates: dict[int, list[float]] = {}
        self.out_times: dict[int, list[float]] = {}
        self.out_rates: dict[int, list[float]] = {}
        self.agg_times = [0.0]
        self.agg_rates = [0.0]
        self.q_times = [0.0]
        self.q_values = [0.0]
        self.q_slope_last = None
        self.exit_cursor = edge.transit_time


class FlowOverTime:
    """Append-only record of all edge in/outflow rates and queues.

    One sub-phase is one ``assign_inflow`` per (commodity, edge) whose rate
    changes, then one ``advance``: an assigned rate holds from the built
    horizon until the next assignment, and a commodity never assigned to an
    edge enters it at rate 0.  An assignment wakes a dormant edge.  Every
    queue starts empty, and edge state is made on first assignment (see the
    module docstring).
    """

    def __init__(self, network: Network, n_commodities: int):
        self.network = network
        self.n_commodities = n_commodities
        self.built_until = 0.0
        self.edges_advanced = 0
        # edge id -> its state, None until the edge's first assignment
        self._edges: list[_EdgeState | None] = [None] * len(network.edges)
        self._made: list[int] = []          # sorted ids of edges with state
        self._live: list[int] = []          # sorted ids of live edges
        # sorted times of every outflow breakpoint recorded by _emit
        self._rate_changes: list[float] = []
        # per commodity, sorted times its outflow rates changed at
        self._outflow_changes: list[list[float]] = [
            [] for _ in range(n_commodities)]
        # per commodity, sorted ids of the edges it ever entered
        self._commodity_edges: list[list[int]] = [
            [] for _ in range(n_commodities)]

    # ------------------------------------------------------------ assignment

    def assign_inflow(self, commodity: int, edge: int, rate: float):
        """Set the commodity's inflow rate on the edge from the built horizon
        on; it holds until the next assignment.

        Re-assigning before an advance moves the horizon overwrites it; an
        advance within EPS of the built horizon extends nothing.
        """
        if not (rate >= 0.0) or not math.isfinite(rate):
            raise ValueError(f"inflow rate must be finite and >= 0, got {rate}")
        if not 0 <= edge < len(self._edges):
            raise IndexError(f"no edge {edge}")
        es = self._edges[edge]
        times = None if es is None else es.in_times.get(commodity)
        if times is None:   # the commodity's first assignment to the edge
            if not 0 <= commodity < self.n_commodities:
                raise IndexError(f"no commodity {commodity}")
            if es is None:
                es = self._edges[edge] = _EdgeState(self.network.edges[edge])
                insort(self._made, edge)
            times = es.in_times[commodity] = [0.0]
            es.in_rates[commodity] = [0.0]
            es.out_times[commodity] = [0.0]
            es.out_rates[commodity] = [0.0]
        if rate != es.in_rates[commodity][-1]:
            es.steady = False
        self._rc_append(times, es.in_rates[commodity], self.built_until, rate)
        if rate > 0.0 and commodity not in es.commodities:
            insort(es.commodities, commodity)
            insort(self._commodity_edges[commodity], edge)
        if not es.live:
            self._catch_up(es)   # wake up
            es.live = True
            insort(self._live, edge)

    @staticmethod
    def _rc_append(times, rates, t, value):
        if abs(t - times[-1]) <= EPS:
            if value != rates[-1]:
                if len(rates) >= 2 and rates[-2] == value:
                    times.pop()
                    rates.pop()
                else:
                    rates[-1] = value
            return
        if value != rates[-1]:
            times.append(t)
            rates.append(value)

    # --------------------------------------------------------------- advance

    def advance(self, until: float) -> list[SimEvent]:
        """Extend the queues and outflows of the live edges to the new built
        horizon at the inflow rates that hold; dormant edges are skipped.
        An advance to within EPS of the built horizon extends nothing.

        Returns the outflow-change and queue-depletion events discovered along
        the way (their times may lie beyond ``until``: outflows are knowable
        up to each edge's exit time of the built horizon).
        """
        if until < self.built_until - EPS:
            raise ValueError(f"cannot advance backwards to {until}")
        if until <= self.built_until + EPS:
            # the horizon moves only with the live edges, or it would run
            # ahead of their queue breakpoints
            return []
        events = []
        t0, t1 = self.built_until, until
        still_live = []
        for eid in self._live:
            es = self._edges[eid]
            if not (es.steady and self._extend_steady(es, t0, t1)):
                self.edges_advanced += 1
                if not self._advance_edge(es, t0, t1, events):
                    es.live = False
                    continue
            still_live.append(eid)
        self._live = still_live
        self.built_until = until
        return events

    def _catch_up(self, es):
        """Bring a dormant edge to the built horizon as advancing it would
        have: the empty queue stays flat and the exit cursor follows."""
        if not es.live:
            self._q_append(es, self.built_until, 0.0, 0.0)
            es.exit_cursor = self.built_until + es.edge.transit_time

    def _advance_edge(self, es, t0, t1, events):
        """Extend the edge over [t0, t1) at the inflow rates that hold, and
        return whether it stays live (see the module docstring)."""
        tau = es.edge.transit_time
        cap = es.edge.capacity
        rates = [es.in_rates[i][-1] for i in es.commodities]
        r = es.in_total = sum(rates)
        n_events = len(events)
        es.steady = asleep = False
        # the last queue breakpoint of a live edge lies within EPS before t0
        q0 = es.q_values[-1]
        p = t0
        while p < t1 - EPS:
            if q0 <= EPS:
                q0 = 0.0
            if q0 > 0.0 or r > cap + EPS:
                # a queue exists or builds up: the server runs at capacity
                slope = r - cap
                pe = t1
                depleted = False
                if slope < -EPS:
                    t_zero = p + q0 / -slope
                    if t_zero <= t1 - EPS:
                        pe, depleted = t_zero, True
                    elif t_zero <= t1 + EPS:
                        pe, depleted = t1, True
                q1 = 0.0 if depleted else q0 + slope * (pe - p)
                self._q_append(es, pe, q1, slope)
                emitted = r <= EPS or self._emit(   # no inflow, no outflow
                    es, [cap * ri / r for ri in rates], cap,
                    pe + tau + q1 / cap, events)
                if depleted:
                    events.append(SimEvent(
                        time=pe, kind="queue_depleted", edge=es.edge.id))
                # an undepleted queued piece reaches t1: it is the only one
                es.steady = emitted and not depleted and len(events) == n_events
                q0 = q1
                p = pe
            else:
                self._q_append(es, t1, 0.0, 0.0)
                asleep = self._emit(es, rates, min(r, cap), t1 + tau, events)
                p = t1
        return not asleep

    def _extend_steady(self, es, t0, t1):
        """Make a steady edge's queued piece over [t0, t1) as
        ``_advance_edge`` would, in constant time: its outflow rates are the
        ones last emitted.  False, changing nothing, unless it is queued and
        does not deplete by t1 + EPS."""
        cap, r, q0 = es.edge.capacity, es.in_total, es.q_values[-1]
        q0 = 0.0 if q0 <= EPS else q0
        slope = r - cap
        if not (q0 > 0.0 or r > cap + EPS) \
                or slope < -EPS and t0 + q0 / -slope <= t1 + EPS:
            return False
        q1 = q0 + slope * (t1 - t0)
        self._q_append(es, t1, q1, slope)
        exit_end = t1 + es.edge.transit_time + q1 / cap
        if r > EPS and exit_end > es.exit_cursor + EPS:
            es.exit_cursor = exit_end
        return True

    def _emit(self, es, comm_rates, agg_rate, exit_end, events):
        """Set the outflow rates from the exit cursor to ``exit_end``; False,
        doing nothing, unless that is past the cursor by more than EPS."""
        start = es.exit_cursor
        if exit_end <= start + EPS:
            return False
        # the cursor starts at the transit time (> EPS) and each emission
        # moves it on by more than EPS, so each changed rate is appended at
        # ``start``, more than EPS past every outflow breakpoint of the edge
        n_events = len(events)
        for i, rate in zip(es.commodities, comm_rates):
            times, rates = es.out_times[i], es.out_rates[i]
            before = rates[-1]
            if rate != before:
                insort(self._outflow_changes[i], start)
                self._rc_append(times, rates, start, rate)
                events.append(SimEvent(
                    time=start, kind="outflow_change", edge=es.edge.id,
                    commodity=i, detail=f"{before:g}->{rate:g}"))
        before = es.agg_rates[-1]
        self._rc_append(es.agg_times, es.agg_rates, start, agg_rate)
        if agg_rate != before:
            events.append(SimEvent(
                time=start, kind="outflow_change", edge=es.edge.id,
                detail=f"{before:g}->{agg_rate:g}"))
        if len(events) > n_events:
            insort(self._rate_changes, start)
        es.exit_cursor = exit_end
        return True

    def _q_append(self, es, t, v, slope):
        v = max(v, 0.0)
        if t <= es.q_times[-1] + EPS:
            return
        if es.q_slope_last is not None \
                and abs(es.q_slope_last - slope) <= EPS * max(1.0, abs(slope)) \
                and len(es.q_times) >= 2:
            es.q_times[-1] = t
            es.q_values[-1] = v
        else:
            es.q_times.append(t)
            es.q_values.append(v)
        es.q_slope_last = slope

    def _queue_value(self, es, t):
        qt, qv = es.q_times, es.q_values
        i = bisect_right(qt, t) - 1
        if i < 0:
            return qv[0]
        if i + 1 >= len(qt):
            return qv[-1]
        w = (t - qt[i]) / (qt[i + 1] - qt[i])
        return qv[i] * (1.0 - w) + qv[i + 1] * w

    # ----------------------------------------------------------------- access

    def queue_at(self, edge: int, t: float) -> float:
        es = self._edges[edge]
        return 0.0 if es is None else self._queue_value(es, t)

    def queues_at(self, t: float) -> list[tuple[int, float]]:
        """(edge id, ``queue_at(edge, t)``) of every edge with state, in
        edge-id order; every other edge's queue is +0.0."""
        edges, value = self._edges, self._queue_value
        return [(eid, value(edges[eid], t)) for eid in self._made]

    def exit_time(self, edge: int, t: float) -> float:
        e = self.network.edges[edge]
        return t + e.transit_time + self.queue_at(edge, t) / e.capacity

    def inflow_rate_at(self, commodity: int, edge: int, t: float) -> float:
        times, rates = self._inflow(commodity, edge)
        return rates[max(bisect_right(times, t) - 1, 0)]

    def outflow_rate_at(self, commodity: int, edge: int, t: float) -> float:
        times, rates = self._outflow(commodity, edge)
        return rates[max(bisect_right(times, t) - 1, 0)]

    def outflows_at(self, commodity: int, t: float) -> list[tuple[int, float]]:
        """(edge id, outflow rate at ``t``) of the commodity on every edge it
        ever entered, in edge-id order; it has no outflow elsewhere."""
        out = []
        for eid in self._commodity_edges[commodity]:
            es = self._edges[eid]
            times = es.out_times[commodity]
            out.append((eid, es.out_rates[commodity][
                max(bisect_right(times, t) - 1, 0)]))
        return out

    def inflow_fn(self, commodity: int, edge: int) -> RightConstantFn:
        times, rates = self._inflow(commodity, edge)
        return RightConstantFn(tuple(times), tuple(rates))

    def outflow_fn(self, commodity: int, edge: int) -> RightConstantFn:
        times, rates = self._outflow(commodity, edge)
        return RightConstantFn(tuple(times), tuple(rates))

    def aggregate_outflow_fn(self, edge: int) -> RightConstantFn:
        es = self._edges[edge]
        if es is None:
            return RightConstantFn(*_UNASSIGNED)
        return RightConstantFn(tuple(es.agg_times), tuple(es.agg_rates))

    def _inflow(self, commodity, edge):
        """The commodity's inflow breakpoints on the edge: times, rates."""
        es = self._edges[edge]
        if es is None or commodity not in es.in_times:
            return _UNASSIGNED
        return es.in_times[commodity], es.in_rates[commodity]

    def _outflow(self, commodity, edge):
        """The commodity's outflow breakpoints on the edge: times, rates."""
        es = self._edges[edge]
        if es is None or commodity not in es.out_times:
            return _UNASSIGNED
        return es.out_times[commodity], es.out_rates[commodity]

    def queue_fn(self, edge: int) -> PiecewiseLinearFn:
        es = self._edges[edge]
        if es is None:
            # what catching up an edge made now would record
            times = (0.0, self.built_until) if self.built_until > EPS \
                else (0.0,)
            return PiecewiseLinearFn(times, (0.0,) * len(times), 0.0, 0.0)
        # once caught up, the last queue breakpoint lies within EPS of the
        # built horizon, so the breakpoints cover it
        self._catch_up(es)
        return PiecewiseLinearFn(tuple(es.q_times), tuple(es.q_values),
                                 0.0, 0.0)

    def queue_left_slope(self, edge: int, t: float) -> float:
        """Left derivative of ``queue_fn(edge)`` at ``t``; past its last
        breakpoint, the slope of its last piece.  Read off the queue
        breakpoints without building the function."""
        es = self._edges[edge]
        if es is None:
            return 0.0   # an empty queue throughout
        self._catch_up(es)
        times, values = es.q_times, es.q_values
        if t > times[-1]:
            t = times[-1]
        if t <= times[0]:
            return 0.0
        i = bisect_left(times, t) - 1
        return (values[i + 1] - values[i]) / (times[i + 1] - times[i])

    def next_rate_change(self, after: float) -> float | None:
        """Earliest outflow breakpoint past ``after`` by more than EPS on any
        edge, aggregate or per commodity (commodity shares can shift while
        the aggregate stays flat), or None; ``after`` >= 0.  One bisection
        of the sorted index of every breakpoint recorded so far, so queries
        may come in any order."""
        changes = self._rate_changes
        j = bisect_right(changes, after + EPS)
        return changes[j] if j < len(changes) else None

    def outflow_changed(self, commodity: int, after: float,
                        until: float) -> bool:
        """Whether an outflow rate of the commodity changed at a time in
        (after, until]."""
        changes = self._outflow_changes[commodity]
        return bisect_right(changes, after) < bisect_right(changes, until)

    # ------------------------------------------------------------------ audit

    def audit_flow(self, tol: float = 1e-6):
        """Self-check of the queueing invariants from first principles.

        Recomputes, per edge, the queue from cumulative in/outflows (rather
        than from the incremental dynamics), checks non-negativity, the
        capacity bound, and the per-commodity FIFO identity
        cumulative_in(t) == cumulative_out(exit_time(t)).  Returns the worst
        relative deviation per invariant; raises AssertionError on breach.
        """
        worst = {"queue_identity": 0.0, "queue_nonneg": 0.0,
                 "capacity": 0.0, "fifo": 0.0}
        for es in self._edges:
            if es is None:
                continue   # an empty, flowless edge breaks no invariant
            self._catch_up(es)
            e = es.edge
            cum_in = [self.inflow_fn(i, e.id).cumulative() for i in range(self.n_commodities)]
            cum_out = [self.outflow_fn(i, e.id).cumulative() for i in range(self.n_commodities)]
            scale = max(1.0, max(es.q_values, default=0.0))
            for t, q in zip(es.q_times, es.q_values):
                if t > self.built_until:
                    continue
                worst["queue_nonneg"] = max(worst["queue_nonneg"], -q)
                total_in = sum(F(t) for F in cum_in)
                shifted = t + e.transit_time
                total_out = sum(F(shifted) for F in cum_out)
                dev = abs(q - (total_in - total_out))
                worst["queue_identity"] = max(worst["queue_identity"], dev / scale)
                exit_t = t + e.transit_time + q / e.capacity
                for i in range(self.n_commodities):
                    dev = abs(cum_in[i](t) - cum_out[i](exit_t))
                    worst["fifo"] = max(worst["fifo"], dev / max(1.0, cum_in[i](t)))
            for rate in es.agg_rates:
                worst["capacity"] = max(worst["capacity"], rate - e.capacity)
        for name, dev in worst.items():
            if dev > tol:
                raise AssertionError(f"flow invariant {name} violated by {dev}")
        return worst


# the breakpoints (times, rates) of a rate never assigned: 0 from time 0 on
_UNASSIGNED = ((0.0,), (0.0,))
