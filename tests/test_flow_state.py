import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpeflow.flow_state import FlowOverTime
from dpeflow.network import Network


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
    state.assign_inflow(0, 0, 3.0, 0.0, 0.5)
    state.assign_inflow(0, 0, 1.0, 0.5, 2.0)
    events = state.advance(2.0)
    depletions = [e for e in events if e.kind == "queue_depleted"]
    assert len(depletions) == 1
    assert depletions[0].time == pytest.approx(1.0)  # 0.5 + 0.5/(2-1)
    assert state.queue_at(0, 0.5) == pytest.approx(0.5)
    assert state.queue_at(0, 1.0) == pytest.approx(0.0)
    assert state.queue_at(0, 2.0) == pytest.approx(0.0)  # stays empty


def test_pulse_inflow_queue_and_outflow():
    # rate 2 into capacity 1 for one unit of time: queue ramps to 1, drains to 0
    state = FlowOverTime(one_edge_net(1.0, 1.0), 1)
    state.assign_inflow(0, 0, 2.0, 0.0, 1.0)
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
    state.assign_inflow(0, 0, 1.5, 0.0, 4.0)
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
    state.assign_inflow(0, 0, 1.0, 0.0, 1.0)
    state.assign_inflow(1, 0, 3.0, 0.0, 1.0)
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
    state.assign_inflow(0, 0, 2.0, 0.0, 1.0)
    state.assign_inflow(1, 0, 0.0, 0.0, 1.0)
    state.assign_inflow(0, 0, 0.0, 1.0, 2.0)
    state.assign_inflow(1, 0, 2.0, 1.0, 2.0)
    state.advance(6.0)
    T1 = state.exit_time(0, 1.0)
    assert T1 == pytest.approx(3.0)
    f0, f1 = state.outflow_fn(0, 0), state.outflow_fn(1, 0)
    assert f0(2.9) == pytest.approx(1.0) and f1(2.9) == 0.0
    assert f0(3.1) == 0.0 and f1(3.1) == pytest.approx(1.0)
    state.audit_flow()


# ----------------------------------------------------------------- assignment


def test_assignment_window_expires_to_zero():
    state = FlowOverTime(one_edge_net(1.0, 5.0), 1)
    state.assign_inflow(0, 0, 1.0, 0.0, 1.0)
    state.advance(3.0)
    f = state.inflow_fn(0, 0)
    assert f(0.5) == 1.0
    assert f(1.5) == 0.0


def test_assignment_cannot_rewind():
    state = FlowOverTime(one_edge_net(), 1)
    state.advance(1.0)
    with pytest.raises(ValueError, match="before built horizon"):
        state.assign_inflow(0, 0, 1.0, 0.5, 2.0)


def test_negative_rate_rejected():
    state = FlowOverTime(one_edge_net(), 1)
    with pytest.raises(ValueError, match=">= 0"):
        state.assign_inflow(0, 0, -1.0, 0.0, 1.0)


@pytest.mark.parametrize("start, end", [
    (0.0, math.nan), (math.nan, 1.0), (math.inf, math.inf),
    (-math.inf, 1.0)])
def test_non_finite_assignment_bounds_rejected(start, end):
    state = FlowOverTime(one_edge_net(), 1)
    with pytest.raises(ValueError):
        state.assign_inflow(0, 0, 2.0, start, end)
    state.advance(3.0)
    assert state.inflow_fn(0, 0).values == (0.0,)


def test_reassignment_at_same_time_overwrites():
    state = FlowOverTime(one_edge_net(), 1)
    state.assign_inflow(0, 0, 1.0, 0.0, 2.0)
    state.assign_inflow(0, 0, 2.5, 0.0, 2.0)
    assert state.inflow_fn(0, 0)(0.0) == 2.5


# --------------------------------------------------------------------- events


def test_events_cover_saturation_and_depletion():
    state = FlowOverTime(one_edge_net(1.0, 1.0), 1)
    state.assign_inflow(0, 0, 2.0, 0.0, 1.0)
    events = state.advance(4.0)
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
    state.assign_inflow(0, 0, 2.0, 0.0, 1.0)
    for t in (1.0, 2.0, 3.0):
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
    state.assign_inflow(0, 0, 2.0, 6.5, 7.5)
    events = []
    for t in (7.5, 8.5, 10.0):
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


def test_queue_left_slope_matches_the_queue_function():
    def slope_of_queue_fn(state, t):
        q = state.queue_fn(0)
        return q.left_slope(min(t, q.times[-1]))

    grid = [0.0, 0.5, 1.0, 1.5, 2.0, 4.0, 6.5, 9.0]
    # the queue rises at 1 on [0, 1) and drains at -1 on [1, 2); the edge is
    # dormant from 3 on, so its slope is read after catching up to 6.5
    state = FlowOverTime(one_edge_net(1.0, 1.0), 1)
    state.assign_inflow(0, 0, 2.0, 0.0, 1.0)
    for t in (1.0, 2.0, 3.0, 6.5):
        state.advance(t)
    slopes = [state.queue_left_slope(0, t) for t in grid]
    assert slopes == [0.0, 1.0, 1.0, -1.0, -1.0, 0.0, 0.0, 0.0]
    assert slopes == [slope_of_queue_fn(state, t) for t in grid]
    # advances shorter than EPS leave the built horizon at the last queue
    # breakpoint, so past it both readers extend the rising piece
    state = FlowOverTime(one_edge_net(1.0, 1.0), 1)
    state.assign_inflow(0, 0, 2.0, 0.0, 1.0)
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
    for i in range(2):
        for j, a in enumerate(cuts):
            b = cuts[j + 1] if j + 1 < len(cuts) else horizon
            state.assign_inflow(i, 0, float(rates[i][j]), a, b)
    state.advance(horizon)
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
    for i, rates in enumerate((rates0, rates1)):
        for j, r in enumerate(rates):
            state.assign_inflow(i, 0, r, j * step, (j + 1) * step)
    horizon = step * max(len(rates0), len(rates1)) + 4.0
    state.advance(horizon)
    worst = state.audit_flow(tol=1e-7)
    assert worst["queue_nonneg"] <= 1e-9
    assert worst["capacity"] <= 1e-9
