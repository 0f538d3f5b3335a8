"""Evolving multi-commodity flow state on a network.

Each edge is a point queue behind a server of fixed capacity: flow entering
at time t leaves the edge at t + transit_time + waiting.  The server drains
the queue at capacity whenever it is non-empty; otherwise the outflow equals
the inflow capped at capacity.  Commodities share each edge under FIFO, so an
exit interval carries the commodity mix of the matching entry interval.

Inflow rates are assigned piecewise-constant and append-only; queues are the
induced piecewise-linear trajectories.  Outflows are derived while
advancing, by walking entry intervals and mapping them through the edge's
exit-time function via a running cursor (flat stretches of the exit-time map
carry no entering mass, so the earlier entries simply keep discharging).

Advancing is sparse in edges and in commodities.  An edge is live while its
queue, its last inflow rate of some commodity, or one of its last outflow
rates (per commodity or aggregate) is non-zero; only live edges are
advanced, in edge-id order.  Once all of these are 0 the edge goes dormant:
advancing it would only move its flat, empty queue to the built horizon and
its exit cursor to the horizon plus the transit time.  A dormant edge does
exactly that when it wakes, on its next ``assign_inflow``, and when its queue
is read as a function (``queue_fn``, ``audit_flow``), so every recorded
breakpoint is the one a full sweep would have produced.  On each edge only
the commodities that ever had a non-zero inflow there are visited; all other
commodities carry exact zeros, whose omission leaves every sum unchanged.
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
        "edge", "live", "commodities", "in_times", "in_rates",
        "assigned_until", "out_times", "out_rates", "agg_times", "agg_rates",
        "q_times", "q_values", "q_slope_last", "exit_cursor",
    )

    def __init__(self, edge, n_commodities: int):
        self.edge = edge
        self.live = False
        self.commodities: list[int] = []   # sorted, ever had inflow > 0
        self.in_times = [[0.0] for _ in range(n_commodities)]
        self.in_rates = [[0.0] for _ in range(n_commodities)]
        self.assigned_until = [0.0] * n_commodities
        self.out_times = [[0.0] for _ in range(n_commodities)]
        self.out_rates = [[0.0] for _ in range(n_commodities)]
        self.agg_times = [0.0]
        self.agg_rates = [0.0]
        self.q_times = [0.0]
        self.q_values = [0.0]
        self.q_slope_last = None
        self.exit_cursor = edge.transit_time


class FlowOverTime:
    """Append-only record of all edge in/outflow rates and queues.

    ``assign_inflow`` declares a commodity's edge inflow on [a, b); rates left
    unassigned fall back to zero once the assignment window expires, and an
    assignment wakes a dormant edge.  ``advance`` extends the queues and
    outflows of the live edges, and of their commodities with inflow, up to
    a new built horizon; ``edges_advanced`` counts the edge extensions made.
    Every queue starts empty and every edge dormant.
    """

    def __init__(self, network: Network, n_commodities: int):
        self.network = network
        self.n_commodities = n_commodities
        self.built_until = 0.0
        self.edges_advanced = 0
        self._edges = [_EdgeState(e, n_commodities) for e in network.edges]
        self._live: list[int] = []          # sorted ids of live edges
        self._used: list[int] = []          # ids of edges that carried flow
        # per commodity, sorted ids of the edges it ever entered
        self._commodity_edges: list[list[int]] = [
            [] for _ in range(n_commodities)]

    # ------------------------------------------------------------ assignment

    def assign_inflow(self, commodity: int, edge: int, rate: float,
                      start: float, end: float):
        """Set the commodity's inflow rate on [start, end).

        ``start`` must not precede the built horizon or any earlier
        assignment on this edge; re-assigning at exactly the last assignment
        time overwrites it.
        """
        if not (rate >= 0.0) or not math.isfinite(rate):
            raise ValueError(f"inflow rate must be finite and >= 0, got {rate}")
        if not math.isfinite(start):
            raise ValueError(f"assignment start must be finite, got {start}")
        if not (end > start):
            raise ValueError(f"empty assignment interval [{start}, {end})")
        if start < self.built_until - EPS:
            raise ValueError(
                f"assignment at {start} before built horizon {self.built_until}")
        es = self._edges[edge]
        times, rates = es.in_times[commodity], es.in_rates[commodity]
        if start < times[-1] - EPS:
            raise ValueError(
                f"assignment at {start} before existing breakpoint {times[-1]}")
        self._close_expired(es, commodity, start)
        self._rc_append(times, rates, start, rate)
        es.assigned_until[commodity] = max(es.assigned_until[commodity], end)
        if rate > 0.0 and commodity not in es.commodities:
            if not es.commodities:
                self._used.append(edge)
            insort(es.commodities, commodity)
            insort(self._commodity_edges[commodity], edge)
        if not es.live:
            self._catch_up(es)   # wake up
            es.live = True
            insort(self._live, edge)

    def _close_expired(self, es, i, t):
        """Drop commodity i's inflow on ``es`` to 0 where its assignment ended,
        if that lies before ``t``."""
        until = es.assigned_until[i]
        times, rates = es.in_times[i], es.in_rates[i]
        if t > until + EPS and rates[-1] != 0.0 and times[-1] <= until + EPS:
            self._rc_append(times, rates, until, 0.0)

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
        horizon; dormant edges are skipped.

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
            self._advance_edge(es, t0, t1, events)
            if self._is_busy(es, t1):
                still_live.append(eid)
            else:
                es.live = False
        self.edges_advanced += len(self._live)
        self._live = still_live
        self.built_until = until
        return events

    @staticmethod
    def _is_busy(es, t):
        """Whether advancing the edge past ``t`` could do more than keep an
        empty queue empty."""
        if es.q_values[-1] != 0.0 or es.agg_rates[-1] != 0.0:
            return True
        return any(es.in_rates[i][-1] != 0.0 or es.in_times[i][-1] > t
                   or es.out_rates[i][-1] != 0.0 for i in es.commodities)

    def _catch_up(self, es):
        """Bring a dormant edge to the built horizon as advancing it would
        have: the empty queue stays flat and the exit cursor follows."""
        if not es.live:
            self._q_append(es, self.built_until, 0.0, 0.0)
            es.exit_cursor = self.built_until + es.edge.transit_time

    def _advance_edge(self, es, t0, t1, events):
        tau = es.edge.transit_time
        cap = es.edge.capacity
        comms = es.commodities

        marks = {t0, t1}
        for i in comms:
            self._close_expired(es, i, t1)
            ts = es.in_times[i]
            j = bisect_right(ts, t0)
            while j < len(ts) and ts[j] < t1 - EPS:
                marks.add(ts[j])
                j += 1

        q0 = self._queue_value(es, t0)
        for p, p2 in _pairwise(sorted(marks)):
            rates = [es.in_rates[i][max(bisect_right(es.in_times[i], p) - 1, 0)]
                     for i in comms]
            r = sum(rates)
            while p < p2 - EPS:
                if q0 <= EPS:
                    q0 = 0.0
                if q0 > 0.0 or r > cap + EPS:
                    # a queue exists or builds up: the server runs at capacity
                    slope = r - cap
                    pe = p2
                    depleted = False
                    if slope < -EPS:
                        t_zero = p + q0 / -slope
                        if t_zero <= p2 - EPS:
                            pe, depleted = t_zero, True
                        elif t_zero <= p2 + EPS:
                            pe, depleted = p2, True
                    q1 = 0.0 if depleted else q0 + slope * (pe - p)
                    self._q_append(es, pe, q1, slope)
                    if r > EPS:
                        exit_end = pe + tau + q1 / cap
                        self._emit(es, [cap * ri / r for ri in rates], cap, exit_end, events)
                    if depleted:
                        events.append(SimEvent(
                            time=pe, kind="queue_depleted", edge=es.edge.id))
                    q0 = q1
                    p = pe
                else:
                    self._q_append(es, p2, 0.0, 0.0)
                    self._emit(es, rates, min(r, cap), p2 + tau, events)
                    p = p2

    def _emit(self, es, comm_rates, agg_rate, exit_end, events):
        start = es.exit_cursor
        if exit_end <= start + EPS:
            return
        for i, rate in zip(es.commodities, comm_rates):
            times, rates = es.out_times[i], es.out_rates[i]
            before = rates[-1]
            self._rc_append(times, rates, start, rate)
            if rate != before:
                events.append(SimEvent(
                    time=start, kind="outflow_change", edge=es.edge.id,
                    commodity=i, detail=f"{before:g}->{rate:g}"))
        before = es.agg_rates[-1]
        self._rc_append(es.agg_times, es.agg_rates, start, agg_rate)
        if agg_rate != before:
            events.append(SimEvent(
                time=start, kind="outflow_change", edge=es.edge.id,
                detail=f"{before:g}->{agg_rate:g}"))
        es.exit_cursor = exit_end

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
        return self._queue_value(self._edges[edge], t)

    def exit_time(self, edge: int, t: float) -> float:
        e = self._edges[edge].edge
        return t + e.transit_time + self.queue_at(edge, t) / e.capacity

    def inflow_rate_at(self, commodity: int, edge: int, t: float) -> float:
        es = self._edges[edge]
        ts = es.in_times[commodity]
        return es.in_rates[commodity][max(bisect_right(ts, t) - 1, 0)]

    def outflow_rate_at(self, commodity: int, edge: int, t: float) -> float:
        es = self._edges[edge]
        ts = es.out_times[commodity]
        return es.out_rates[commodity][max(bisect_right(ts, t) - 1, 0)]

    def outflows_at(self, commodity: int, t: float) -> list[tuple[int, float]]:
        """(edge id, outflow rate at ``t``) of the commodity on every edge it
        ever entered, in edge-id order; it has no outflow elsewhere."""
        return [(eid, self.outflow_rate_at(commodity, eid, t))
                for eid in self._commodity_edges[commodity]]

    def inflow_fn(self, commodity: int, edge: int) -> RightConstantFn:
        es = self._edges[edge]
        return RightConstantFn(tuple(es.in_times[commodity]),
                               tuple(es.in_rates[commodity]))

    def outflow_fn(self, commodity: int, edge: int) -> RightConstantFn:
        es = self._edges[edge]
        return RightConstantFn(tuple(es.out_times[commodity]),
                               tuple(es.out_rates[commodity]))

    def aggregate_outflow_fn(self, edge: int) -> RightConstantFn:
        es = self._edges[edge]
        return RightConstantFn(tuple(es.agg_times), tuple(es.agg_rates))

    def queue_fn(self, edge: int) -> PiecewiseLinearFn:
        es = self._edges[edge]
        self._catch_up(es)
        times, values = es.q_times, es.q_values
        if times[-1] < self.built_until - EPS:
            times = times + [self.built_until]
            values = values + [values[-1]]
        return PiecewiseLinearFn(tuple(times), tuple(values), 0.0, 0.0)

    def queue_left_slope(self, edge: int, t: float) -> float:
        """Left derivative of ``queue_fn(edge)`` at ``t``; past its last
        breakpoint, the slope of its last piece.  Read off the queue
        breakpoints without building the function."""
        es = self._edges[edge]
        self._catch_up(es)
        times, values = es.q_times, es.q_values
        if t > times[-1]:
            if times[-1] < self.built_until - EPS:
                return 0.0   # queue_fn's flat piece up to the built horizon
            t = times[-1]
        if t <= times[0]:
            return 0.0
        i = bisect_left(times, t) - 1
        return (values[i + 1] - values[i]) / (times[i + 1] - times[i])

    def next_rate_change(self, after: float) -> float | None:
        """Earliest known outflow breakpoint strictly after ``after`` on any
        edge, aggregate or per commodity.  Commodity shares can shift while
        the aggregate stays flat, so both kinds of lists are scanned, on the
        edges that ever carried flow and for their commodities with inflow
        (all other lists hold a single 0 at time 0)."""
        best = math.inf
        for eid in self._used:
            es = self._edges[eid]
            best = _first_after(es.agg_times, after, best)
            for i in es.commodities:
                best = _first_after(es.out_times[i], after, best)
        return None if best == math.inf else best

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


def _first_after(times, after, best):
    """The smaller of ``best`` and the first of the sorted ``times`` past
    ``after`` by more than EPS."""
    j = bisect_right(times, after + EPS)
    return times[j] if j < len(times) and times[j] < best else best


def _pairwise(seq):
    return zip(seq, seq[1:])
