import heapq
import itertools
import math
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpeflow import routing
from dpeflow.network import Network
from dpeflow.predictors import fifo_fix
from dpeflow.pwl import (
    EPS,
    DomainError,
    NotMonotoneError,
    PiecewiseLinearFn,
    _sample,
    compose_monotone,
    identity_fn,
    pointwise_min,
    restrict_from,
)
from dpeflow.routing import (
    ConvergenceError,
    _ShiftLabels,
    _undercuts,
    compute_labels,
)


def path_arrival_oracle(network, sink, exit_fns, node, t):
    """Earliest arrival by brute-force enumeration of simple paths."""
    best = math.inf

    def dfs(v, time, visited):
        nonlocal best
        if v == sink:
            best = min(best, time)
            return
        for e in network.out_edges[v]:
            if e.head in visited:
                continue
            dfs(e.head, exit_fns[e.id](time), visited | {e.head})

    dfs(node, t, frozenset([node]))
    return best


def shift(c):
    return PiecewiseLinearFn((0.0,), (c,), 1.0, 1.0)


def shift_entry(c):
    """The exit-table entry of t -> t + c: the pair (t0, v0) = (0, c)."""
    return (0.0, c)


def random_exit_fn(rng, t_range=(0.0, 20.0)):
    """Random valid exit-time function: t + tau + q(t)/cap with q >= 0."""
    tau = float(rng.uniform(0.5, 3.0))
    cap = float(rng.uniform(0.5, 2.0))
    n = int(rng.integers(1, 5))
    ts = np.sort(rng.uniform(*t_range, n))
    ts = np.unique(np.round(ts, 3))
    qs = rng.uniform(0.0, 5.0, len(ts))
    pts, _ = fifo_fix(list(zip(ts.tolist(), qs.tolist())), cap)
    values = tuple(t + tau + q / cap for t, q in pts)
    return PiecewiseLinearFn(tuple(t for t, _ in pts), values, 1.0, 1.0)


def random_instance(rng, n_nodes):
    nodes = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for i in range(n_nodes - 1):  # a spine keeps the sink reachable
        edges.append((nodes[i], nodes[i + 1], 1.0, 1.0))
    extra = int(rng.integers(2, 2 * n_nodes))
    for _ in range(extra):
        a, b = rng.integers(0, n_nodes, 2)
        if a == b:
            continue
        edges.append((nodes[a], nodes[b], 1.0, 1.0))
    net = Network(nodes, edges)
    exit_fns = {e.id: random_exit_fn(rng) for e in net.edges}
    return net, exit_fns, nodes[-1]


# --------------------------------------------------------------------- labels


def test_line_graph_chains_exit_times():
    net = Network(["s", "a", "t"], [("s", "a", 1.0, 1.0), ("a", "t", 1.0, 1.0)])
    ls = compute_labels(net, "t", {0: shift(1.0), 1: shift(2.5)})
    assert ls.earliest_arrival("a", 4.0) == pytest.approx(6.5)
    assert ls.earliest_arrival("s", 0.0) == pytest.approx(3.5)
    assert ls.earliest_arrival("t", 7.0) == 7.0  # sink label is the identity


def test_min_envelope_switches_routes():
    # fast route builds a queue (slope 3 after t=2), slow route is flat +5
    net = Network(["s", "t"], [("s", "t", 1.0, 1.0), ("s", "t", 1.0, 1.0)])
    fast = PiecewiseLinearFn((2.0,), (3.0,), 1.0, 3.0)
    slow = shift(5.0)
    ls = compute_labels(net, "t", {0: fast, 1: slow})
    label = ls.labels["s"]
    assert label(0.0) == pytest.approx(1.0)
    assert label(3.0) == pytest.approx(6.0)
    assert label(4.0) == pytest.approx(9.0)   # crossing point
    assert label(5.0) == pytest.approx(10.0)  # slow route takes over
    assert label(10.0) == pytest.approx(15.0)


def test_unreachable_node_has_no_label():
    net = Network(["s", "t", "u"], [("s", "t", 1.0, 1.0), ("t", "u", 1.0, 1.0)])
    ls = compute_labels(net, "t", {0: shift(1.0), 1: shift(1.0)})
    assert "u" not in ls.labels
    assert ls.earliest_arrival("u", 0.0) == math.inf
    assert ls.active_edges("u", 0.0) == []


def test_cycle_through_sink_keeps_identity():
    net = Network(["s", "t"], [("s", "t", 1.0, 1.0), ("t", "s", 1.0, 1.0)])
    ls = compute_labels(net, "t", {0: shift(2.0), 1: shift(2.0)})
    assert ls.labels["t"].times == identity_fn().times
    assert ls.earliest_arrival("s", 1.0) == pytest.approx(3.0)


@pytest.mark.parametrize("seed", range(4))
def test_shift_network_labels_are_exact(seed):
    # uncongested case: labels must equal t + scalar shortest path to the
    # sink bit for bit, with no breakpoints invented by the envelope
    rng = np.random.default_rng(seed)
    net, _, sink = random_instance(rng, int(rng.integers(5, 12)))
    exit_fns = {e.id: shift(round(float(rng.uniform(0.5, 4.0)), 3))
                for e in net.edges}
    ls = compute_labels(net, sink, exit_fns)
    dist = {v: math.inf for v in net.nodes}
    dist[sink] = 0.0
    for _ in net.nodes:
        for e in net.edges:
            tau = exit_fns[e.id](0.0)
            if dist[e.head] + tau < dist[e.tail]:
                dist[e.tail] = dist[e.head] + tau
    for v in net.nodes:
        if math.isinf(dist[v]):
            assert math.isinf(ls.earliest_arrival(v, 3.0))
            continue
        fn = ls.labels[v]
        assert fn.slope_before_first == 1.0 and fn.slope_after_last == 1.0
        assert all(abs(t) < 1e6 for t in fn.times)
        for t in (0.0, 6.0, 13.7):
            assert ls.earliest_arrival(v, t) == t + dist[v]


def assert_shift_paths_agree(net, sink, costs):
    # each shift once as a shift entry (Dijkstra) and once as a PL function
    # with a collinear second breakpoint (label correction)
    one = {eid: shift_entry(c) for eid, c in costs.items()}
    two = {eid: PiecewiseLinearFn((0.0, 5.0), (c, 5.0 + c), 1.0, 1.0)
           for eid, c in costs.items()}
    fast, slow = compute_labels(net, sink, one), compute_labels(net, sink, two)
    assert isinstance(fast.labels, _ShiftLabels)
    assert type(slow.labels) is dict
    assert fast.labels.keys() == slow.labels.keys()
    for v in net.nodes:
        for t in (-2.0, 0.0, 6.0, 13.7):
            want = slow.earliest_arrival(v, t)
            got = fast.earliest_arrival(v, t)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            assert fast.active_edges(v, t) == slow.active_edges(v, t)
    return fast


@pytest.mark.parametrize("seed", range(4))
def test_shift_paths_agree(seed):
    rng = np.random.default_rng(seed)
    net, _, sink = random_instance(rng, int(rng.integers(5, 12)))
    assert_shift_paths_agree(
        net, sink, {e.id: round(float(rng.uniform(0.5, 4.0)), 3)
                    for e in net.edges})


def test_shift_paths_agree_on_mixed_node_ids_and_ties():
    # 1 and "a" both sit at distance 2 and enter the heap together; every
    # tail below has two equally short routes
    net = Network([0, "a", 1, "b", 2, "t", "u"],
                  [(0, "a", 1.0, 1.0), (0, 1, 1.0, 1.0), ("a", "t", 1.0, 1.0),
                   (1, "t", 1.0, 1.0), ("a", "b", 1.0, 1.0),
                   ("b", "t", 1.0, 1.0), (2, 0, 1.0, 1.0),
                   (2, "b", 1.0, 1.0), ("t", "u", 1.0, 1.0)])
    costs = {0: 1.0, 1: 1.0, 2: 2.0, 3: 2.0, 4: 1.5, 5: 0.5, 6: 1.0, 7: 3.5,
             8: 1.0}
    ls = assert_shift_paths_agree(net, "t", costs)
    assert "u" not in ls.labels
    for v, ids in ((0, [0, 1]), ("a", [2, 4]), (2, [6, 7])):
        assert [e.id for e in ls.active_edges(v, 0.0)] == ids


def dyadic_shift_instance(seed):
    """A random shift-only instance whose path costs add up exactly, so any
    shortest-path search finds the same distances bit for bit; node "u" is
    reachable only from the sink."""
    rng = np.random.default_rng(seed)
    net, _, sink = random_instance(rng, int(rng.integers(6, 12)))
    net = Network(list(net.nodes) + ["u"],
                  [(e.tail, e.head, 1.0, 1.0) for e in net.edges]
                  + [(sink, "u", 1.0, 1.0)])
    costs = {e.id: int(rng.integers(1, 32)) / 8 for e in net.edges}
    return net, sink, {eid: shift_entry(c) for eid, c in costs.items()}


@pytest.mark.parametrize("seed", range(4))
def test_shift_labels_match_eager_labels_and_act_like_a_dict(seed):
    net, sink, exit_fns = dyadic_shift_instance(seed)
    ls = compute_labels(net, sink, exit_fns)
    dist = {sink: 0.0}
    for _ in net.nodes:
        for e in net.edges:
            if e.head in dist:
                d = dist[e.head] + exit_fns[e.id][1]
                if d < dist.get(e.tail, math.inf):
                    dist[e.tail] = d
    eager = {v: PiecewiseLinearFn((0.0,), (d,), 1.0, 1.0)
             for v, d in dist.items()}

    for v in net.nodes:
        assert (v in ls.labels) == (v in eager) == (v != "u")
        if v in eager:
            assert hexed(ls.labels[v]) == hexed(eager[v])
            assert ls.labels.get(v) is ls.labels[v]
    assert set(ls.labels.keys()) == set(eager) and len(ls.labels) == len(eager)
    assert dict(ls.labels) == eager
    assert ls.labels.get("u") is None and ls.labels.get("u", 7) == 7
    with pytest.raises(KeyError):
        ls.labels["u"]
    with pytest.raises(TypeError):
        ls.labels["u"] = eager[sink]


@pytest.mark.parametrize("seed", range(4))
def test_active_edges_builds_only_the_labels_it_reads(seed, monkeypatch):
    # active_edges compares distances and shifts as floats; a label function
    # is built on its first lookup only, once
    net, sink, exit_fns = dyadic_shift_instance(seed)
    v = net.nodes[0]
    read = {v} | {e.head for e in net.out_edges[v]}
    assert len(read) < len(net.nodes) - 1
    built = []
    post_init = PiecewiseLinearFn.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PiecewiseLinearFn, "__post_init__", counted)
    ls = compute_labels(net, sink, exit_fns)
    active = ls.active_edges(v, 2.0)
    assert built == [] and ls.active_edges(v, 3.0) == active
    for w in read:
        ls.earliest_arrival(w, 1.0)
    assert len(built) == len(read)
    ls.active_edges(v, 4.0)
    for w in read:
        ls.earliest_arrival(w, 5.0)
    assert len(built) == len(read)
    # the same test as on the label functions
    for t in (0.0, 2.0, 7.5):
        best = ls.labels[v](t)
        assert active == [e for e in net.out_edges[v] if e.head in ls.labels
                          and ls.labels[e.head](exit_fns[e.id][1] + t)
                          <= best + ls.active_tolerance]


@pytest.mark.parametrize("seed", range(6))
def test_shift_active_edges_evaluate_as_the_label_functions(seed):
    # on shift labels, active_edges decides as the label and exit functions
    # would, to the last bit: each out-edge's arrival is compared with the
    # least of them, so even with no tolerance a node that reaches the sink
    # has an active edge (compared with the node's label instead, a route
    # that ties only up to rounding left it none)
    rng = np.random.default_rng(seed)
    net, _, sink = random_instance(rng, int(rng.integers(6, 12)))
    now = round(float(rng.uniform(0.0, 50.0)), 2)
    exit_fns = {e.id: (t0, t0 + float(rng.uniform(0.05, 3.0)))
                for e in net.edges
                for t0 in [float(rng.choice([0.0, now]))]}
    functions = {eid: PiecewiseLinearFn((t0,), (v0,), 1.0, 1.0)
                 for eid, (t0, v0) in exit_fns.items()}
    for tol in (0.0, 1e-9):
        ls = compute_labels(net, sink, exit_fns, tol, start=now)
        assert isinstance(ls.labels, _ShiftLabels)
        for v in net.nodes:
            for t in (now, now + 0.37, now + 12.5):
                arrivals = [(ls.labels[e.head](functions[e.id](t)), e)
                            for e in net.out_edges[v] if e.head in ls.labels]
                cut = min((a for a, _ in arrivals), default=0.0) + tol
                want = [] if v == sink or v not in ls.labels else [
                    e for a, e in arrivals if a <= cut]
                assert ls.active_edges(v, t) == want
                assert bool(want) == (v != sink and v in ls.labels)


def eager_shift_distances(network, sink, costs):
    """Dijkstra over in-edges from the sink, run to the end in one go."""
    dist = {sink: 0.0}
    tie = itertools.count()
    heap = [(0.0, next(tie), sink)]
    while heap:
        d, _, w = heapq.heappop(heap)
        if d > dist[w]:
            continue
        for e in network.in_edges[w]:
            nd = d + costs[e.id]
            if nd < dist.get(e.tail, math.inf):
                dist[e.tail] = nd
                heapq.heappush(heap, (nd, next(tie), e.tail))
    return dist


@pytest.mark.parametrize("seed", range(6))
def test_resumable_shift_labels_equal_eager_distances_in_any_order(
        seed, monkeypatch):
    rng = np.random.default_rng(seed)
    net, _, sink = random_instance(rng, int(rng.integers(6, 14)))
    # "u" is reachable only from the sink; costs are rounded floats, with
    # ties, so any other summation order could change a distance's last bit
    net = Network(list(net.nodes) + ["u"],
                  [(e.tail, e.head, 1.0, 1.0) for e in net.edges]
                  + [(sink, "u", 1.0, 1.0)])
    costs = {e.id: float(rng.choice([0.1, 0.3, rng.uniform(0.05, 2.0)]))
             for e in net.edges}
    exit_fns = {eid: shift_entry(c) for eid, c in costs.items()}
    dist = eager_shift_distances(net, sink, costs)
    assert "u" not in dist

    def check(labels, op, v):
        if op == "get":
            got = labels.get(v)
            assert (got is None) == (v not in dist)
            if got is not None:
                assert got.values[0].hex() == dist[v].hex()
                assert got.times == (0.0,) and got.slope_after_last == 1.0
        elif op == "item":
            if v in dist:
                assert labels[v].values[0].hex() == dist[v].hex()
            else:
                with pytest.raises(KeyError):
                    labels[v]
        elif op == "in":
            assert (v in labels) == (v in dist)
        elif op == "len":
            assert len(labels) == len(dist)
        else:
            assert list(labels) == list(dist)

    pops = []
    heappop = heapq.heappop
    monkeypatch.setattr(heapq, "heappop",
                        lambda heap: pops.append(1) or heappop(heap))
    keys = list(net.nodes) + ["absent"]
    for k in range(12):
        labels = compute_labels(net, sink, exit_fns).labels
        pops.clear()
        if k == 0:
            labels.get(sink)
            assert len(pops) == 1   # the sink settles first, alone
        order = [keys[j] for j in rng.permutation(len(keys))]
        ops = [(str(rng.choice(["get", "item", "in"])), v) for v in order]
        if k % 3:   # ``len`` or iteration somewhere in the order
            ops.insert(int(rng.integers(len(ops) + 1)),
                       (["len", "iter"][k % 2], None))
        for op, v in ops:
            check(labels, op, v)
        assert {v: f.values[0].hex() for v, f in labels.items()} \
            == {v: d.hex() for v, d in dist.items()}


# 0.1 + 0.2 exceeds 0.3 by one float step, so routes made of these costs
# tie exactly, to the last bit, or up to it
TIE_COSTS = (0.1, 0.2, 0.3, 0.5, 1.0)


@st.composite
def bounded_query_instances(draw):
    """A random shift-only instance toward sink 0 on nodes 0..n-1, plus
    node "a", whose out-edges lead to the sink, through "b" to the sink
    (a tie when the costs add up), to a far head "f" (30 from the sink
    through "f1" and "f2") and to "u", which only the sink reaches; "z"
    reaches only "u".  Returns the network, its exit table, the decision
    time and the queries (node, time) in a random order."""
    n = draw(st.integers(2, 7))
    cost = st.sampled_from(TIE_COSTS)
    rows = [(i, j, draw(cost)) for i, j in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda ij: ij[0] != ij[1]), max_size=3 * n))]
    rows += [("a", 0, draw(cost)), ("a", "b", draw(cost)),
             ("b", 0, draw(cost)), ("a", "f", draw(cost)),
             ("a", "u", draw(cost)), ("f", "f1", 10.0), ("f1", "f2", 10.0),
             ("f2", 0, 10.0), (0, "u", 1.0), ("z", "u", 1.0)]
    rows += [(draw(st.integers(0, n - 1)), "f", draw(cost))
             for _ in range(draw(st.integers(0, 2)))]
    nodes = list(range(n)) + ["a", "b", "f", "f1", "f2", "u", "z"]
    net = Network(nodes, [(i, j, 1.0, 1.0) for i, j, _ in rows])
    now = draw(st.sampled_from((0.0, 0.37, 2.5)))
    # anchored at 0 or at the decision time, as flat and zero forecasts are
    exit_fns = {eid: (t0, t0 + c) for eid, (_, _, c) in enumerate(rows)
                for t0 in [draw(st.sampled_from((0.0, now)))]}
    queries = draw(st.permutations(
        [(v, now + dt) for v in nodes for dt in (0.0, 0.37, 12.5)]))
    return net, exit_fns, now, queries


@settings(max_examples=150, deadline=None)
@given(bounded_query_instances())
def test_bounded_shift_queries_equal_fully_settled_ones(instance):
    # a query settles only the heads that could still be active; its
    # answer is the one of a search run to the end, evaluated as the label
    # and exit functions would evaluate it, to the last bit
    net, exit_fns, now, queries = instance
    functions = {eid: PiecewiseLinearFn((t0,), (v0,), 1.0, 1.0)
                 for eid, (t0, v0) in exit_fns.items()}
    for tol in (0.0, 1e-9):
        full = compute_labels(net, 0, exit_fns, tol, start=now)
        list(full.labels)   # runs the search to the end

        def want(v, t):
            arrivals = [(full.labels[e.head](functions[e.id](t)), e)
                        for e in net.out_edges[v] if e.head in full.labels]
            cut = min((a for a, _ in arrivals), default=0.0) + tol
            return [] if v == 0 else [e for a, e in arrivals if a <= cut]

        ls = compute_labels(net, 0, exit_fns, tol, start=now)
        assert ls.active_edges("a", now) == want("a", now)
        # "f" loses to the sink by more than 28 and stays unsettled
        assert "f" not in ls.labels._settled
        for v, t in queries:
            assert ls.active_edges(v, t) == want(v, t)
        assert "u" not in ls.labels and "z" not in ls.labels


def test_a_bounded_query_keeps_a_tie_whose_head_tops_the_heap():
    # after the sink settles, "b" tops the heap at 0.5 and its route ties
    # the direct one exactly: 0.5 + 0.5 == 1.0, so the search must go on
    # while k + x_e equals the cut, not only while it is below it
    net = Network(["a", "b", "t"], [("a", "t", 1.0, 1.0),
                                    ("a", "b", 1.0, 1.0),
                                    ("b", "t", 1.0, 1.0)])
    exit_fns = {0: shift_entry(1.0), 1: shift_entry(0.5),
                2: shift_entry(0.5)}
    ls = compute_labels(net, "t", exit_fns, 0.0)
    assert [e.id for e in ls.active_edges("a", 0.0)] == [0, 1]


def with_extra_edges(rng, net, sink, extra):
    """The instance with more random-exit-time edges: ``"parallel"`` doubles
    every third edge and every edge into the sink, ``"through_sink"`` adds
    an edge from the sink to every other node, so cycles run through it."""
    edges = [(e.tail, e.head) for e in net.edges]
    if extra == "parallel":
        edges += [(a, b) for k, (a, b) in enumerate(edges)
                  if k % 3 == 0 or b == sink]
    else:
        edges += [(sink, v) for v in net.nodes if v != sink]
    net = Network(list(net.nodes), [(a, b, 1.0, 1.0) for a, b in edges])
    return net, {e.id: random_exit_fn(rng) for e in net.edges}


LABEL_INSTANCES = (
    [pytest.param(seed, None, id=str(seed)) for seed in range(6)]
    + [pytest.param(seed, extra, id=f"{extra}-{seed}")
       for extra in ("parallel", "through_sink") for seed in range(3)])


@pytest.mark.parametrize("seed, extra", LABEL_INSTANCES)
def test_labels_match_path_enumeration(seed, extra):
    rng = np.random.default_rng(seed)
    net, exit_fns, sink = random_instance(rng, int(rng.integers(4, 9)))
    if extra is not None:
        net, exit_fns = with_extra_edges(rng, net, sink, extra)
    ls = compute_labels(net, sink, exit_fns)
    samples = rng.uniform(-2.0, 25.0, 100)
    for v in net.nodes:
        for t in samples:
            want = path_arrival_oracle(net, sink, exit_fns, v, float(t))
            got = ls.earliest_arrival(v, float(t))
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-7)


def assert_agree_from(part, whole, start):
    """``part`` equals ``whole`` on [start, inf) up to EPS relative: both are
    linear between the start and their breakpoints after it."""
    def close(x, y):
        return abs(x - y) <= EPS * max(1.0, abs(y))

    grid = sorted({start, *(t for t in part.times + whole.times if t > start)})
    for t in grid:
        assert close(part(t), whole(t)), (t, part(t), whole(t))
    assert close(part.slope_after_last, whole.slope_after_last)


# C2's random instances, then the label-correction instances above
RESTRICTED_INSTANCES = (
    [pytest.param(1000 + seed, None, id=f"c2-{seed}") for seed in range(30)]
    + LABEL_INSTANCES)


@pytest.mark.parametrize("seed, extra", RESTRICTED_INSTANCES)
def test_labels_from_start_agree_with_whole_line_labels(seed, extra):
    rng = np.random.default_rng(seed)
    net, exit_fns, sink = random_instance(rng, int(rng.integers(4, 9)))
    if extra is not None:
        net, exit_fns = with_extra_edges(rng, net, sink, extra)
    whole = compute_labels(net, sink, exit_fns)
    # before, inside and after the exit functions' breakpoints
    for start in (-3.0, 0.0, 4.25, 11.0, float(rng.uniform(0.0, 20.0)), 26.0):
        part = compute_labels(net, sink, exit_fns, start=start)
        # the label set keeps the exit functions it corrected labels on
        assert part.start == start and part.exit_fns == {
            eid: restrict_from(f, start) for eid, f in exit_fns.items()}
        assert part.labels.keys() == whole.labels.keys()
        for v, label in part.labels.items():
            # the sink keeps the identity, exact on the whole line
            assert v == sink or label.times[0] >= start
            assert_agree_from(label, whole.labels[v], start)
        for v in net.nodes:
            assert part.active_edges(v, start) == whole.active_edges(v, start)
            with pytest.raises(DomainError):
                part.earliest_arrival(v, start - 1.0)
            with pytest.raises(DomainError):
                part.active_edges(v, start - 1.0)


def test_labels_from_start_on_the_shift_path():
    net = Network(["s", "a", "t"], [("s", "a", 1.0, 1.0), ("a", "t", 1.0, 1.0)])
    ls = compute_labels(net, "t", {0: shift(1.0), 1: shift(2.5)}, start=3.0)
    assert ls.earliest_arrival("s", 3.0) == 6.5
    with pytest.raises(DomainError):
        ls.earliest_arrival("s", 2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="label start"):
            compute_labels(net, "t", {0: shift(1.0), 1: shift(2.5)}, start=bad)


def hexed(f):
    return [x.hex() for x in (*f.times, *f.values, f.slope_before_first,
                              f.slope_after_last)]


@pytest.mark.parametrize("seed, extra", LABEL_INSTANCES)
def test_shift_entries_give_the_labels_of_their_functions(seed, extra):
    # label correction on a table whose shifts are entries gives, bit for
    # bit, the labels and active sets of the same table with every shift a
    # PL function; shifts anchored before, at and after the start
    rng = np.random.default_rng(seed)
    net, exit_fns, sink = random_instance(rng, int(rng.integers(4, 9)))
    if extra is not None:
        net, exit_fns = with_extra_edges(rng, net, sink, extra)
    entries = dict(exit_fns)
    for eid in exit_fns:
        if rng.random() < 0.6:
            t0 = float(rng.choice([0.0, 3.0, round(rng.uniform(0.0, 20.0),
                                                    3)]))
            entries[eid] = (t0, t0 + float(rng.uniform(0.5, 4.0)))
    fns = {eid: PiecewiseLinearFn((f[0],), (f[1],), 1.0, 1.0)
           if type(f) is tuple else f for eid, f in entries.items()}
    for start in (-math.inf, 0.0, 3.0, 4.25, float(rng.uniform(0.0, 20.0))):
        # no tolerance, so that active sets decide to the last bit
        got = compute_labels(net, sink, entries, 0.0, start=start)
        want = compute_labels(net, sink, fns, 0.0, start=start)
        assert type(got.labels) is dict
        assert ({v: hexed(f) for v, f in got.labels.items()}
                == {v: hexed(f) for v, f in want.labels.items()})
        times = ((-2.0, 0.0, 6.0, 13.7) if start == -math.inf
                 else (start, start + 0.1, start + 7.0))
        for v in net.nodes:
            for t in times:
                assert got.active_edges(v, t) == want.active_edges(v, t)
                assert (got.earliest_arrival(v, t).hex()
                        == want.earliest_arrival(v, t).hex())


def reference_labels(network, sink, exit_fns, start=-math.inf):
    """Label correction in pull order, as routing did it before relaxation:
    a FIFO queue of nodes whose label may be stale, each pop recomputing one
    label from all out-edges, each edge recomposed only after its head's
    label was replaced."""
    if start != -math.inf:
        exit_fns = {eid: restrict_from(f, start)
                    for eid, f in exit_fns.items()}
    labels = {sink: identity_fn()}
    composed = {}
    pending, queued = [], set()

    def queue_tails(w):
        for e in network.in_edges[w]:
            if e.tail != sink and e.tail not in queued:
                pending.append(e.tail)
                queued.add(e.tail)

    def differ(x, y):
        return abs(x - y) > EPS * max(1.0, abs(x), abs(y))

    def labels_differ(a, b):
        if (differ(a.slope_before_first, b.slope_before_first)
                or differ(a.slope_after_last, b.slope_after_last)):
            return True
        grid = sorted(a.times + b.times)
        return any(map(differ, _sample(a, grid), _sample(b, grid)))

    queue_tails(sink)
    while pending:
        v = pending.pop(0)
        queued.discard(v)
        candidates = []
        for e in network.out_edges[v]:
            head = labels.get(e.head)
            if head is None:
                continue
            hit = composed.get(e.id)
            if hit is None or hit[0] is not head:
                hit = composed[e.id] = (head,
                                        compose_monotone(head, exit_fns[e.id]))
            candidates.append(hit[1])
        new = reduce(pointwise_min, candidates)
        old = labels.get(v)
        if old is None or labels_differ(old, new):
            labels[v] = new
            queue_tails(v)
    return labels


def assert_match_reference(got, want, start):
    """Every label agrees within EPS relative on [start, inf)."""
    assert got.keys() == want.keys()
    for v, label in got.items():
        ref = want[v]
        assert_agree_from(label, ref, start if start != -math.inf
                          else min(label.times + ref.times))
        if start == -math.inf:
            assert abs(label.slope_before_first - ref.slope_before_first) \
                <= EPS * max(1.0, abs(ref.slope_before_first))


@pytest.mark.parametrize("seed, extra", RESTRICTED_INSTANCES)
def test_labels_match_the_pull_order_reference(seed, extra):
    rng = np.random.default_rng(seed)
    net, exit_fns, sink = random_instance(rng, int(rng.integers(4, 9)))
    if extra is not None:
        net, exit_fns = with_extra_edges(rng, net, sink, extra)
    for start in (-math.inf, 0.0, 4.25, float(rng.uniform(0.0, 20.0))):
        got = compute_labels(net, sink, exit_fns, start=start).labels
        assert_match_reference(got, reference_labels(net, sink, exit_fns,
                                                     start), start)


def test_edge_bound_reads_labels_at_the_start():
    # v's label is flat at 10 from the start 0 to 6 and t + 4 after it, and
    # keeps no breakpoint at 0: its largest excess l(t) - t, 10, lies at the
    # start, and at its breakpoints the excess is only 4.  The route through
    # w arrives at t + 8, earlier near the start; a bound that read the
    # label at its breakpoints alone would skip that edge.
    net = Network(["v", "w", "t"],
                  [("v", "t", 1.0, 1.0), ("v", "t", 1.0, 1.0),
                   ("v", "w", 1.0, 1.0), ("w", "t", 1.0, 1.0)])
    exit_fns = {0: PiecewiseLinearFn((5.0,), (10.0,), 0.0, 1.0),
                1: PiecewiseLinearFn((6.0,), (10.0,), 0.0, 1.0),
                2: shift(5.0), 3: shift(3.0)}
    ls = compute_labels(net, "t", exit_fns, start=0.0)
    assert ls.earliest_arrival("v", 0.0) == 8.0
    assert ls.earliest_arrival("v", 7.0) == 11.0
    assert [e.id for e in ls.active_edges("v", 0.0)] == [2]
    assert_match_reference(ls.labels, reference_labels(net, "t", exit_fns,
                                                       0.0), 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_relaxation_passes_pop_in_label_order(seed, monkeypatch):
    # each (edge, head label) pair is composed at most once, each node is
    # popped at most once per pass, and the first pass pops in key order
    rng = np.random.default_rng(seed)
    net, exit_fns, sink = random_instance(rng, int(rng.integers(6, 10)))
    log, composed, heaps = [], [], []

    def compose(outer, inner):
        composed.append((outer, inner))  # holding them keeps ids unique
        return compose_monotone(outer, inner)

    def heappop(heap):
        if not heaps or heaps[-1] is not heap:
            heaps.append(heap)
        entry = heapq.heappop(heap)
        log.append((len(heaps) - 1, entry[0], entry[2]))
        return entry

    class RelaxedFrom(dict):
        # a pop that is not skipped reads the in-edges of its node
        def __getitem__(self, w):
            assert log[-1][2] == w
            relaxed.append(log[-1])
            return super().__getitem__(w)

    relaxed = []
    net.in_edges = RelaxedFrom(net.in_edges)
    monkeypatch.setattr(routing, "compose_monotone", compose)
    monkeypatch.setattr(routing, "heapq", SimpleNamespace(
        heappop=heappop, heappush=heapq.heappush, heapify=heapq.heapify))
    for start in (-math.inf, 3.0):
        for record in (log, composed, heaps, relaxed):
            record.clear()
        ls = compute_labels(net, sink, exit_fns, start=start)
        assert type(ls.labels) is dict   # corrected, not shift labels
        edge_of = {id(f): eid for eid, f in ls.exit_fns.items()}
        pairs = [(edge_of[id(inner)], id(outer)) for outer, inner in composed]
        assert len(pairs) == len(set(pairs))
        passes = {}
        for k, key, v in relaxed:
            passes.setdefault(k, []).append((key, v))
        for popped in passes.values():
            nodes = [v for _, v in popped]
            assert len(nodes) == len(set(nodes))
        keys = [key for key, _ in passes[0]]
        assert {v for _, v in passes[0]} == set(ls.labels)
        for a, b in zip(keys, keys[1:]):
            assert b >= a - EPS * max(1.0, abs(a))


# --------------------------------------------------------------- active edges


def test_parallel_ties_are_both_active():
    net = Network(["s", "t"], [("s", "t", 1.0, 1.0), ("s", "t", 1.0, 1.0)])
    ls = compute_labels(net, "t", {0: shift(2.0), 1: shift(2.0)})
    assert [e.id for e in ls.active_edges("s", 0.0)] == [0, 1]


def test_slower_edge_is_inactive():
    net = Network(["s", "t"], [("s", "t", 1.0, 1.0), ("s", "t", 1.0, 1.0)])
    ls = compute_labels(net, "t", {0: shift(2.0), 1: shift(2.0 + 1e-6)})
    assert [e.id for e in ls.active_edges("s", 0.0)] == [0]
    # a looser tolerance admits it again
    loose = compute_labels(net, "t", {0: shift(2.0), 1: shift(2.0 + 1e-6)},
                           active_tolerance=1e-3)
    assert len(loose.active_edges("s", 0.0)) == 2


def test_active_set_changes_with_time():
    net = Network(["s", "t"], [("s", "t", 1.0, 1.0), ("s", "t", 1.0, 1.0)])
    fast = PiecewiseLinearFn((2.0,), (3.0,), 1.0, 3.0)
    ls = compute_labels(net, "t", {0: fast, 1: shift(5.0)})
    assert [e.id for e in ls.active_edges("s", 0.0)] == [0]
    assert [e.id for e in ls.active_edges("s", 4.0)] == [0, 1]  # crossing
    assert [e.id for e in ls.active_edges("s", 6.0)] == [1]


# -------------------------------------------------------------------- failure


def test_time_rewinding_exit_fn_aborts():
    net = Network(["a", "b", "t"],
                  [("a", "b", 1.0, 1.0), ("b", "a", 1.0, 1.0),
                   ("b", "t", 1.0, 1.0)])
    rewind = PiecewiseLinearFn((0.0,), (-1.0,), 1.0, 1.0)
    with pytest.raises(ConvergenceError, match="rewinding"):
        compute_labels(net, "t", {0: rewind, 1: rewind, 2: shift(1.0)})


def test_labels_one_float_step_apart_do_not_differ():
    # near 1.1e5 one float step is 1.46e-11, far above an absolute EPS
    a = PiecewiseLinearFn((0.0, 10.0), (1.1e5, 1.1e5 + 10.0), 1.0, 1.0)
    b = PiecewiseLinearFn((0.0, 10.0), (math.nextafter(1.1e5, math.inf),
                                        1.1e5 + 10.0), 1.0, 1.0)
    assert a.values != b.values
    assert abs(a(0.0) - b(0.0)) > 10 * EPS
    for start in (-math.inf, -1.0, 0.0):
        assert not _undercuts(a, b, start) and not _undercuts(b, a, start)
    c = PiecewiseLinearFn((0.0, 10.0), (1.1e5 + 1e-4, 1.1e5 + 10.0), 1.0, 1.0)
    assert _undercuts(a, c, 0.0) and not _undercuts(c, a, 0.0)
    # only from the start on: at 10 and after, a and c agree
    assert not _undercuts(a, c, 10.0)
    # slopes compare relatively too: 2 vs 2 + 1e-11 differs, a float step not
    d = PiecewiseLinearFn(a.times, a.values, 1.0, 2.0)
    assert not _undercuts(d, PiecewiseLinearFn(
        a.times, a.values, 1.0, math.nextafter(2.0, math.inf)), 0.0)
    assert _undercuts(d, PiecewiseLinearFn(a.times, a.values, 1.0,
                                           2.0 + 1e-11), 0.0)
    # a left tail counts on the whole line only
    e = PiecewiseLinearFn(a.times, a.values, 2.0, 1.0)
    assert _undercuts(e, a, -math.inf) and not _undercuts(e, a, 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_time_rewinding_cycle_in_a_larger_network_aborts(seed):
    # a two-edge cycle that rewinds time by 1 on each edge, between two
    # nodes that both reach the sink along the spine
    rng = np.random.default_rng(seed)
    net, exit_fns, sink = random_instance(rng, 9)
    a, b = net.nodes[2], net.nodes[5]
    net = Network(list(net.nodes), [(e.tail, e.head, 1.0, 1.0)
                                    for e in net.edges]
                  + [(a, b, 1.0, 1.0), (b, a, 1.0, 1.0)])
    rewind = PiecewiseLinearFn((0.0,), (-1.0,), 1.0, 1.0)
    exit_fns = {**exit_fns, len(net.edges) - 2: rewind,
                len(net.edges) - 1: rewind}
    for start in (-math.inf, 2.0):
        with pytest.raises(ConvergenceError, match="rewinding"):
            compute_labels(net, sink, exit_fns, start=start)


def test_decreasing_exit_fn_rejected():
    net = Network(["s", "t"], [("s", "t", 1.0, 1.0)])
    bad = PiecewiseLinearFn((0.0, 1.0), (5.0, 3.0), 1.0, 1.0)
    with pytest.raises(NotMonotoneError):
        compute_labels(net, "t", {0: bad})


def test_unknown_sink_rejected():
    net = Network(["s", "t"], [("s", "t", 1.0, 1.0)])
    compute_labels(net, "t", {0: shift(1.0)})  # known sink is fine
    with pytest.raises(ValueError, match="unknown sink"):
        compute_labels(net, "x", {0: shift(1.0)})
