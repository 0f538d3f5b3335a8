import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpeflow.flow_state import FlowOverTime
from dpeflow.network import Network
from dpeflow.pwl import EPS


def one_edge_net(transit_time=1.0, capacity=1.0):
    return Network(["a", "b"], [("a", "b", transit_time, capacity)])


def grid_reference(inflows, capacity, transit_time, horizon, dt=1e-4):
    """Fixed-step reference for a single edge: per-commodity step inflows in,
    queue trajectory and aggregate cumulative outflow out."""
    n_steps = int(round(horizon / dt))
    q = 0.0
    queue = [0.0]
    cum_out = {}
    for k in range(n_steps):
        t = k * dt
        r = sum(f(t) for f in inflows)
        out_rate = capacity if q > 0.0 else min(r, capacity)
        cum_out[round(t + transit_time, 7)] = out_rate * dt
        q = max(q + (r - out_rate) * dt, 0.0)
        queue.append(q)
    acc = 0.0
    cum = {}
    for t in sorted(cum_out):
        acc += cum_out[t]
        cum[t] = acc
    return queue, cum


# ------------------------------------------------------------ queue dynamics


def test_depletion_time_with_residual_inflow():
    # rate 3 into capacity 2 builds a queue of 0.5 by t=0.5; the residual
    # inflow 1 then drains it at 2 - 1 = 1 per unit of time
    state = FlowOverTime(one_edge_net(capacity=2.0), 1)
    state.assign_inflow(0, 0, 3.0)
    events = state.advance(0.5)
    state.assign_inflow(0, 0, 1.0)
    events += state.advance(2.0)
    depletions = [e for e in events if e.kind == "queue_depleted"]
    assert len(depletions) == 1
    assert depletions[0].time == pytest.approx(1.0)  # 0.5 + 0.5/(2-1)
    assert state.queue_at(0, 0.5) == pytest.approx(0.5)
    assert state.queue_at(0, 1.0) == pytest.approx(0.0)
    assert state.queue_at(0, 2.0) == pytest.approx(0.0)  # stays empty


def test_pulse_inflow_queue_and_outflow():
    # rate 2 into capacity 1 for one unit of time: queue ramps to 1, drains to 0
    state = FlowOverTime(one_edge_net(1.0, 1.0), 1)
    state.assign_inflow(0, 0, 2.0)
    state.advance(1.0)
    state.assign_inflow(0, 0, 0.0)
    state.advance(3.0)
    assert state.queue_at(0, 1.0) == pytest.approx(1.0)
    assert state.queue_at(0, 2.0) == pytest.approx(0.0)
    f = state.outflow_fn(0, 0)
    assert f(0.5) == 0.0            # nothing exits before the transit time
    assert f(1.0) == pytest.approx(1.0)
    assert f(2.9) == pytest.approx(1.0)
    assert f(3.0) == pytest.approx(0.0)
    # exits stop exactly at T(1) = 1 + 1 + 1/1 = 3
    assert state.exit_time(0, 1.0) == pytest.approx(3.0)


def test_subcapacity_inflow_passes_through():
    state = FlowOverTime(one_edge_net(2.0, 3.0), 1)
    state.assign_inflow(0, 0, 1.5)
    state.advance(4.0)
    state.assign_inflow(0, 0, 0.0)
    state.advance(7.0)
    assert state.queue_at(0, 4.0) == 0.0
    f = state.outflow_fn(0, 0)
    assert f(1.9) == 0.0
    assert f(2.0) == pytest.approx(1.5)
    assert f(5.9) == pytest.approx(1.5)
    assert f(6.0) == 0.0


# ----------------------------------------------------------------- FIFO split


def test_fifo_commodity_shares():
    # two commodities at rates 1 and 3 into capacity 2: exits carry 1/4 and 3/4
    state = FlowOverTime(one_edge_net(1.0, 2.0), 2)
    state.assign_inflow(0, 0, 1.0)
    state.assign_inflow(1, 0, 3.0)
    state.advance(1.0)
    state.assign_inflow(0, 0, 0.0)
    state.assign_inflow(1, 0, 0.0)
    state.advance(4.0)
    f0, f1 = state.outflow_fn(0, 0), state.outflow_fn(1, 0)
    for t in (1.0, 1.5, 2.0, 2.9):
        assert f0(t) == pytest.approx(0.5)
        assert f1(t) == pytest.approx(1.5)
    # entry at time 1 exits at 1 + 1 + q(1)/cap = 3
    assert state.exit_time(0, 1.0) == pytest.approx(3.0)
    assert f0(3.0) == 0.0 and f1(3.0) == 0.0
    state.audit_flow()


def test_fifo_share_change_travels_with_the_queue():
    # composition switches at t=1; the switch appears at exit time T(1)
    state = FlowOverTime(one_edge_net(1.0, 1.0), 2)
    state.assign_inflow(0, 0, 2.0)
    state.assign_inflow(1, 0, 0.0)
    state.advance(1.0)
    state.assign_inflow(0, 0, 0.0)
    state.assign_inflow(1, 0, 2.0)
    state.advance(2.0)
    state.advance(6.0)
    T1 = state.exit_time(0, 1.0)
    assert T1 == pytest.approx(3.0)
    f0, f1 = state.outflow_fn(0, 0), state.outflow_fn(1, 0)
    assert f0(2.9) == pytest.approx(1.0) and f1(2.9) == 0.0
    assert f0(3.1) == 0.0 and f1(3.1) == pytest.approx(1.0)
    state.audit_flow()


# ----------------------------------------------------------------- assignment


def test_assignment_holds_until_the_next_one():
    state = FlowOverTime(one_edge_net(1.0, 5.0), 1)
    state.assign_inflow(0, 0, 1.0)
    state.advance(1.0)
    state.advance(3.0)
    state.assign_inflow(0, 0, 0.0)
    state.advance(4.0)
    f = state.inflow_fn(0, 0)
    assert f(0.5) == 1.0
    assert f(2.5) == 1.0
    assert f(3.5) == 0.0


def test_each_commodity_keeps_its_rate_until_it_is_re_assigned():
    # commodity 0 is not assigned at 1, so its rate 1 holds on [1, 2)
    state = FlowOverTime(one_edge_net(1.0, 5.0), 2)
    state.assign_inflow(0, 0, 1.0)
    state.assign_inflow(1, 0, 2.0)
    state.advance(1.0)
    state.assign_inflow(1, 0, 3.0)
    state.advance(2.0)
    state.assign_inflow(0, 0, 0.0)
    state.assign_inflow(1, 0, 0.0)
    state.advance(3.0)
    f0, f1 = state.inflow_fn(0, 0), state.inflow_fn(1, 0)
    assert (f0.times, f0.values) == ((0.0, 2.0), (1.0, 0.0))
    assert (f1.times, f1.values) == ((0.0, 1.0, 2.0), (2.0, 3.0, 0.0))
    state.audit_flow()


def test_advance_within_eps_keeps_the_pending_assignments():
    state = FlowOverTime(one_edge_net(1.0, 1.0), 1)
    state.assign_inflow(0, 0, 2.0)
    assert state.advance(0.5 * EPS) == []
    assert state.built_until == 0.0
    state.advance(1.0)
    state.assign_inflow(0, 0, 0.0)
    state.advance(2.0)
    f = state.inflow_fn(0, 0)
    assert (f.times, f.values) == ((0.0, 1.0), (2.0, 0.0))
    assert state.queue_at(0, 1.0) == 1.0


def test_negative_rate_rejected():
    state = FlowOverTime(one_edge_net(), 1)
    with pytest.raises(ValueError, match=">= 0"):
        state.assign_inflow(0, 0, -1.0)


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_non_finite_rate_rejected(rate):
    state = FlowOverTime(one_edge_net(), 1)
    with pytest.raises(ValueError, match="finite"):
        state.assign_inflow(0, 0, rate)
    state.advance(3.0)
    assert state.inflow_fn(0, 0).values == (0.0,)


def test_reassignment_at_same_time_overwrites():
    state = FlowOverTime(one_edge_net(), 1)
    state.assign_inflow(0, 0, 1.0)
    state.assign_inflow(0, 0, 2.5)
    assert state.inflow_fn(0, 0)(0.0) == 2.5


# --------------------------------------------------------------------- events


def test_events_cover_saturation_and_depletion():
    state = FlowOverTime(one_edge_net(1.0, 1.0), 1)
    state.assign_inflow(0, 0, 2.0)
    events = state.advance(1.0)
    state.assign_inflow(0, 0, 0.0)
    events += state.advance(4.0)
    kinds = {(e.kind, round(e.time, 9)) for e in events}
    assert ("queue_depleted", 2.0) in kinds
    changes = sorted(e.time for e in events if e.kind == "outflow_change"
                     and e.commodity is None)
    assert changes[0] == pytest.approx(1.0)
    assert changes[-1] == pytest.approx(3.0)


# ------------------------------------------------------------ dormant edges


def test_edge_drains_sleeps_and_refills():
    # a burst at rate 2 into capacity 1 queues up to 1 and drains by t=2;
    # the outflow (rate 1 on [1, 3)) ends at 3, after which the edge is idle
    state = FlowOverTime(one_edge_net(1.0, 1.0), 1)
    state.assign_inflow(0, 0, 2.0)
    state.advance(1.0)
    state.assign_inflow(0, 0, 0.0)
    for t in (2.0, 3.0):
        state.advance(t)
    assert state.edges_advanced == 3
    for t in (4.0, 5.0, 6.5):
        assert state.advance(t) == []
    assert state.edges_advanced == 3
    # the empty queue's flat last piece reaches the built horizon
    q = state.queue_fn(0)
    assert q.times == (0.0, 1.0, 2.0, 6.5)
    assert q.values == (0.0, 1.0, 0.0, 0.0)

    # the second burst wakes the edge at 6.5; its outflow starts at 6.5 + 1
    state.assign_inflow(0, 0, 2.0)
    events = []
    events += state.advance(7.5)
    state.assign_inflow(0, 0, 0.0)
    for t in (8.5, 10.0):
        events += state.advance(t)
    assert state.edges_advanced == 6
    assert min(e.time for e in events if e.kind == "outflow_change") == 7.5
    assert [e.time for e in events if e.kind == "queue_depleted"] == [8.5]
    out = state.outflow_fn(0, 0)
    assert out.times == (0.0, 1.0, 3.0, 7.5, 9.5)
    assert out.values == (0.0, 1.0, 0.0, 1.0, 0.0)
    assert state.aggregate_outflow_fn(0) == out
    q = state.queue_fn(0)
    assert q.times == (0.0, 1.0, 2.0, 6.5, 7.5, 8.5, 10.0)
    assert q.values == (0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    assert state.exit_time(0, 7.5) == 9.5
    state.audit_flow()


def first_breakpoint_after(state, after):
    """The first outflow breakpoint past ``after`` by more than EPS on any
    edge, aggregate or per commodity, read off every outflow function."""
    fns = [f for e in range(len(state.network.edges))
           for f in [state.aggregate_outflow_fn(e)]
           + [state.outflow_fn(i, e) for i in range(state.n_commodities)]]
    return min((t for f in fns for t in f.times if t > after + EPS),
               default=None)


def test_next_rate_change_sees_edges_drain_and_wake():
    net = Network(["a", "b", "c"], [("a", "b", 1.0, 1.0),
                                    ("b", "c", 0.5, 2.0),
                                    ("a", "c", 2.0, 1.0)])
    state = FlowOverTime(net, 2)

    # commodity 0 sends a burst over edges 0 and 1, which drain by 3 and 3.5;
    # commodity 1 keeps flowing on edge 2 and wakes edge 0 again at 5.
    # (commodity, edge, rate, first and last sub-phase end of the burst)
    bursts = [(0, 0, 2.0, 0.5, 1.0), (1, 2, 0.5, 0.5, 8.0),
              (0, 1, 1.0, 1.0, 3.0), (1, 0, 1.5, 5.5, 6.0)]
    for k in range(1, 21):
        t = 0.5 * k   # the sub-phase [t - 0.5, t)
        for i, e, rate, first, last in bursts:
            if t == first:
                state.assign_inflow(i, e, rate)
            elif t == last + 0.5:
                state.assign_inflow(i, e, 0.0)
        state.advance(t)
        assert state.next_rate_change(t) == first_breakpoint_after(state, t), t
    assert state.outflow_fn(1, 0).times == (0.0, 6.0, 7.5)
    # a query before the last one still sees the drained edges' breakpoints
    for after in (0.0, 2.5, 6.0, 9.0):
        assert state.next_rate_change(after) == \
            first_breakpoint_after(state, after), after


# per round, (commodity, edge, rate) assignments for [t, t + 0.5); rates
# hold until re-assigned, so an assignment of 0 lets an edge drain and a
# later one wakes it
assignment_rounds = st.lists(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                       st.sampled_from((0.0, 0.5, 1.0, 2.5))), max_size=3),
    min_size=1, max_size=8)


@settings(max_examples=40, deadline=None)
@given(assignment_rounds,
       st.lists(st.sampled_from((0.25, 0.5, 1.0, 1.5)), min_size=3,
                max_size=3))
def test_next_rate_change_equals_the_brute_force(rounds, transit_times):
    net = Network(["a", "b", "c"],
                  [(a, b, tau, cap) for (a, b, cap), tau in zip(
                      (("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 0.5)),
                      transit_times)])
    state = FlowOverTime(net, 3)

    def check(after):
        assert state.next_rate_change(after) == \
            first_breakpoint_after(state, after), after

    step, ends = 0.5, []
    for k, assigned in enumerate(rounds + [[]] * 4):
        t = k * step
        for i, e, rate in assigned:
            state.assign_inflow(i, e, rate)
        state.advance(t + step)
        ends.append(t + step)
        for after in reversed(ends):   # forward, then backward
            check(after)
    breakpoints = sorted({t for e in range(3) for i in range(3)
                          for t in state.outflow_fn(i, e).times})
    for b in breakpoints + [0.0]:
        for after in (b, b - 2 * EPS, b - EPS, b - EPS / 2, b + EPS / 2,
                      b + 2 * EPS):
            check(max(after, 0.0))
    for b in reversed(breakpoints):
        check(b)


def outflow_breakpoint_in(state, commodity, after, until):
    """Whether an outflow breakpoint of the commodity on some edge lies in
    (after, until], read off its outflow functions."""
    return any(after < t <= until
               for e in range(len(state.network.edges))
               for t in state.outflow_fn(commodity, e).times)


@settings(max_examples=40, deadline=None)
@given(assignment_rounds,
       st.lists(st.sampled_from((0.25, 0.5, 1.0, 1.5)), min_size=3,
                max_size=3))
def test_outflow_changed_equals_the_brute_force(rounds, transit_times):
    net = Network(["a", "b", "c"],
                  [(a, b, tau, cap) for (a, b, cap), tau in zip(
                      (("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 0.5)),
                      transit_times)])
    state = FlowOverTime(net, 3)
    step, ends = 0.5, [0.0]
    for k, assigned in enumerate(rounds + [[]] * 4):
        for i, e, rate in assigned:
            state.assign_inflow(i, e, rate)
        state.advance((k + 1) * step)
        ends.append((k + 1) * step)
        for i in range(3):
            for after in ends:
                for until in (after, after + step, after + 2.5, 1e9):
                    assert state.outflow_changed(i, after, until) == \
                        outflow_breakpoint_in(state, i, after, until)


def test_outflow_changed_sees_a_change_merged_within_eps():
    # a transit time below EPS puts the first outflow breakpoint within EPS
    # of the initial one at 0, so the new rate is merged into that one: no
    # breakpoint lies in (0, 1], yet the rate read at 0 changed
    net = Network(["a", "b"], [("a", "b", 0.4 * EPS, 1.0)])
    state = FlowOverTime(net, 1)
    state.assign_inflow(0, 0, 1.0)
    before = state.outflows_at(0, 0.0)
    state.advance(1.0)
    assert state.outflow_fn(0, 0).times == (0.0,)
    assert not outflow_breakpoint_in(state, 0, 0.0, 1.0)
    assert state.outflows_at(0, 0.0) != before
    # the change counts at the time it was recorded at and at the breakpoint
    # it was merged into
    assert state.outflow_changed(0, 0.0, 1.0)
    assert state.outflow_changed(0, 0.0, 0.5 * EPS)
    assert state.outflow_changed(0, -1.0, 0.0)
    assert not state.outflow_changed(0, EPS, 1.0)


class FullExtensions(FlowOverTime):
    """Clears the steadiness of every edge before each advance, so that
    every live edge is extended in full."""

    def advance(self, until):
        for es in self._edges:
            if es is not None:
                es.steady = False
        return super().advance(until)


# per segment, the two commodities' rates and the sub-phase lengths they
# hold for
segments = st.lists(
    st.tuples(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
              st.lists(st.floats(0.01, 1.5), min_size=1, max_size=6)),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(segments, st.floats(0.25, 2.0), st.floats(0.5, 3.0))
# a queue of 1 drains at rate 1/2 with steady outflow shares, to 0 at 3
@example([((2.0, 0.0), [1.0]), ((0.5, 0.0), [0.5] * 4)], 1.0, 1.0)
def test_steady_extension_matches_the_full_extension(segments, tau,
                                                     capacity):
    net = one_edge_net(tau, capacity)
    steady, full = FlowOverTime(net, 2), FullExtensions(net, 2)
    t = 0.0
    for rates, lengths in segments + [((0.0, 0.0), [2.0] * 6)]:
        for state in (steady, full):
            for i, rate in enumerate(rates):
                state.assign_inflow(i, 0, rate)
        for length in lengths:
            t += length
            assert [(e.time.hex(), e.kind, e.edge, e.commodity, e.detail)
                    for e in steady.advance(t)] == \
                [(e.time.hex(), e.kind, e.edge, e.commodity, e.detail)
                 for e in full.advance(t)]
    assert readings(steady, [0.0, t / 3, t]) == readings(full, [0.0, t / 3, t])
    assert steady.edges_advanced <= full.edges_advanced


THREE_EDGES = Network(["a", "b", "c"], [("a", "b", 1.0, 1.0),
                                        ("b", "c", 0.5, 2.0),
                                        ("a", "c", 2.0, 1.0)])


def readings(state, times):
    """Every reader's answer on every edge and commodity, floats as hex."""
    def hexed(f):
        slopes = [getattr(f, s) for s in ("slope_before_first",
                                          "slope_after_last") if hasattr(f, s)]
        return [x.hex() for x in (*f.times, *f.values, *slopes)]

    n = state.n_commodities
    out = []
    for e in range(len(state.network.edges)):
        out.append(("queue_fn", e, hexed(state.queue_fn(e))))
        out.append(("aggregate", e, hexed(state.aggregate_outflow_fn(e))))
        for i in range(n):
            out.append(("inflow_fn", e, i, hexed(state.inflow_fn(i, e))))
            out.append(("outflow_fn", e, i, hexed(state.outflow_fn(i, e))))
        for t in times:
            out.append((e, t, state.queue_at(e, t).hex(),
                        state.exit_time(e, t).hex(),
                        state.queue_left_slope(e, t).hex(),
                        [state.inflow_rate_at(i, e, t).hex() for i in range(n)],
                        [state.outflow_rate_at(i, e, t).hex()
                         for i in range(n)]))
    for t in times:
        out.append(("next", t, state.next_rate_change(t)))
    out.append(sorted((k, v.hex()) for k, v in state.audit_flow().items()))
    return out


def test_untouched_edges_and_commodities_read_as_zero_rate_ones():
    # ``lazy`` builds state for edge 0 and commodity 0 only; ``built`` also
    # assigns rate 0 to commodity 1 on edge 0 and to edges 1 and 2
    lazy, built = FlowOverTime(THREE_EDGES, 2), FlowOverTime(THREE_EDGES, 2)
    for state in (lazy, built):
        state.assign_inflow(0, 0, 2.0)
    built.assign_inflow(1, 0, 0.0)
    built.assign_inflow(0, 1, 0.0)
    built.assign_inflow(1, 2, 0.0)

    def made():
        return [eid for eid, es in enumerate(lazy._edges) if es is not None]

    before = (0.0, 0.5, 1.0, 2.5)
    assert readings(lazy, before) == readings(built, before)
    assert made() == [0] and list(lazy._edges[0].in_times) == [0]

    # the queue functions read above end at 3; edge 2 wakes at 5
    assert lazy.advance(1.0) == built.advance(1.0)
    for state in (lazy, built):
        state.assign_inflow(0, 0, 0.0)
    assert lazy.advance(3.0) == built.advance(3.0)
    after = (0.0, 1.0, 2.0, 3.0, 4.0)
    assert readings(lazy, after) == readings(built, after)
    assert made() == [0] and list(lazy._edges[0].in_times) == [0]

    assert lazy.advance(5.0) == built.advance(5.0)
    for state in (lazy, built):
        state.assign_inflow(1, 2, 1.5)
        assert state.queue_fn(2).times == (0.0, 5.0)
    assert lazy.advance(6.0) == built.advance(6.0)
    for state in (lazy, built):
        state.assign_inflow(1, 2, 0.0)
    assert lazy.advance(8.0) == built.advance(8.0)
    assert lazy.queue_fn(2).times == (0.0, 5.0, 6.0, 6.5, 8.0)
    later = (0.0, 4.5, 5.0, 5.5, 6.0, 7.0, 8.0)
    assert readings(lazy, later) == readings(built, later)
    assert made() == [0, 2] and list(lazy._edges[2].in_times) == [1]


def test_assignment_names_a_known_commodity():
    state = FlowOverTime(THREE_EDGES, 2)
    for commodity in (-1, 2):
        with pytest.raises(IndexError, match="no commodity"):
            state.assign_inflow(commodity, 0, 1.0)
    assert state._edges == [None, None, None]


def test_assignment_names_a_known_edge():
    # a negative id would alias the last edge and list itself as edge -1
    state = FlowOverTime(THREE_EDGES, 2)
    for edge in (-1, 3):
        with pytest.raises(IndexError, match="no edge"):
            state.assign_inflow(0, edge, 1.0)
    assert state._edges == [None, None, None]
    assert state.outflows_at(0, 0.5) == []


def test_queue_left_slope_matches_the_queue_function():
    def slope_of_queue_fn(state, t):
        q = state.queue_fn(0)
        return q.left_slope(min(t, q.times[-1]))

    grid = [0.0, 0.5, 1.0, 1.5, 2.0, 4.0, 6.5, 9.0]
    # the queue rises at 1 on [0, 1) and drains at -1 on [1, 2); the edge is
    # dormant from 3 on, so its slope is read after catching up to 6.5
    state = FlowOverTime(one_edge_net(1.0, 1.0), 1)
    state.assign_inflow(0, 0, 2.0)
    state.advance(1.0)
    state.assign_inflow(0, 0, 0.0)
    for t in (2.0, 3.0, 6.5):
        state.advance(t)
    slopes = [state.queue_left_slope(0, t) for t in grid]
    assert slopes == [0.0, 1.0, 1.0, -1.0, -1.0, 0.0, 0.0, 0.0]
    assert slopes == [slope_of_queue_fn(state, t) for t in grid]
    # advances shorter than EPS leave the built horizon at the last queue
    # breakpoint, so past it both readers extend the rising piece; the
    # second one moves the horizon by 1.8e-12 at the rate that holds
    state = FlowOverTime(one_edge_net(1.0, 1.0), 1)
    state.assign_inflow(0, 0, 2.0)
    state.advance(0.5)
    for k in (1, 2, 3):
        state.advance(0.5 + k * 0.9e-12)
    assert state.queue_fn(0).times[-1] == state.built_until
    slopes = [state.queue_left_slope(0, t) for t in grid]
    assert slopes == [0.0] + [1.0] * 7
    assert slopes == [slope_of_queue_fn(state, t) for t in grid]


# ------------------------------------------------------------------- vs oracle


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_against_fixed_step_reference(seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    capacity = float(rng.uniform(0.5, 3.0))
    tau = float(rng.uniform(0.5, 2.0))
    horizon = 8.0
    net = one_edge_net(tau, capacity)
    state = FlowOverTime(net, 2)
    cuts = [0.0, 1.0, 2.5, 4.0, 5.0]
    rates = rng.uniform(0.0, 2.5, size=(2, len(cuts)))
    for j in range(len(cuts)):
        for i in range(2):
            state.assign_inflow(i, 0, float(rates[i][j]))
        state.advance(cuts[j + 1] if j + 1 < len(cuts) else horizon)
    state.audit_flow()

    inflow_fns = [state.inflow_fn(i, 0) for i in range(2)]
    queue_ref, cum_ref = grid_reference(inflow_fns, capacity, tau, horizon)
    dt = 1e-4
    worst_q = max(
        abs(state.queue_at(0, k * dt) - queue_ref[k])
        for k in range(0, len(queue_ref), 50)
    )
    assert worst_q <= 10 * dt
    agg = state.aggregate_outflow_fn(0)
    agg_cum = agg.cumulative()
    worst_out = max(
        abs(agg_cum(t) - c) for t, c in list(cum_ref.items())[:: 50] if t <= horizon
    )
    assert worst_out <= 20 * dt


# ----------------------------------------------------------------- properties


rate_lists = st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=5)


@settings(max_examples=40, deadline=None)
@given(rate_lists, rate_lists,
       st.floats(min_value=0.5, max_value=2.0),
       st.floats(min_value=0.25, max_value=3.0))
def test_property_invariants_hold(rates0, rates1, tau, capacity):
    net = one_edge_net(tau, capacity)
    state = FlowOverTime(net, 2)
    step = 0.75
    for j in range(max(len(rates0), len(rates1))):
        for i, rates in enumerate((rates0, rates1)):
            if j < len(rates):
                state.assign_inflow(i, 0, rates[j])
        state.advance((j + 1) * step)
    horizon = step * max(len(rates0), len(rates1)) + 4.0
    state.advance(horizon)
    worst = state.audit_flow(tol=1e-7)
    assert worst["queue_nonneg"] <= 1e-9
    assert worst["capacity"] <= 1e-9
