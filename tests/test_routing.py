import math
from collections import deque

import numpy as np
import pytest

from dpeflow import routing
from dpeflow.network import Network
from dpeflow.predictors import fifo_fix
from dpeflow.pwl import (
    EPS,
    NotMonotoneError,
    PiecewiseLinearFn,
    compose_monotone,
    identity_fn,
)
from dpeflow.routing import (
    ConvergenceError,
    LabelSet,
    _labels_differ,
    _positive_shifts,
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
    # each shift once with one breakpoint (Dijkstra) and once with a
    # collinear second breakpoint (label correction)
    one = {eid: shift(c) for eid, c in costs.items()}
    two = {eid: PiecewiseLinearFn((0.0, 5.0), (c, 5.0 + c), 1.0, 1.0)
           for eid, c in costs.items()}
    assert _positive_shifts(one) is not None and _positive_shifts(two) is None
    fast, slow = compute_labels(net, sink, one), compute_labels(net, sink, two)
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
    return net, sink, {eid: shift(c) for eid, c in costs.items()}


@pytest.mark.parametrize("seed", range(4))
def test_shift_labels_match_eager_labels_and_act_like_a_dict(seed):
    net, sink, exit_fns = dyadic_shift_instance(seed)
    ls = compute_labels(net, sink, exit_fns)
    dist = {sink: 0.0}
    for _ in net.nodes:
        for e in net.edges:
            if e.head in dist:
                d = dist[e.head] + exit_fns[e.id].values[0]
                if d < dist.get(e.tail, math.inf):
                    dist[e.tail] = d
    eager = {v: PiecewiseLinearFn((0.0,), (d,), 1.0, 1.0)
             for v, d in dist.items()}

    def hexed(f):
        return [float.hex(x) for x in (*f.times, *f.values,
                                       f.slope_before_first,
                                       f.slope_after_last)]

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
    ls.active_edges(v, 2.0)
    assert len(built) == len(read)
    ls.active_edges(v, 3.0)
    for w in read:
        ls.earliest_arrival(w, 1.0)
    assert len(built) == len(read)


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


@pytest.mark.parametrize("seed", range(4))
def test_label_correction_redoes_only_what_changed(seed, monkeypatch):
    # every pop recomputes one label, and an edge is composed again only
    # after its head's label was replaced
    rng = np.random.default_rng(seed)
    net, exit_fns, sink = random_instance(rng, int(rng.integers(6, 10)))
    assert _positive_shifts(exit_fns) is None
    composed, pops, best = [], 0, 0

    def compose(outer, inner):
        composed.append((outer, inner))  # holding them keeps ids unique
        return compose_monotone(outer, inner)

    class CountingDeque(deque):
        def popleft(self):
            nonlocal pops
            pops += 1
            return super().popleft()

    def best_label(*args):
        nonlocal best
        best += 1
        return best_label_of(*args)

    best_label_of = routing._best_label
    monkeypatch.setattr(routing, "compose_monotone", compose)
    monkeypatch.setattr(routing, "deque", CountingDeque)
    monkeypatch.setattr(routing, "_best_label", best_label)
    compute_labels(net, sink, exit_fns)
    edge_of = {id(f): eid for eid, f in exit_fns.items()}
    pairs = [(edge_of[id(inner)], id(outer)) for outer, inner in composed]
    assert len(pairs) == len(set(pairs))
    assert best == pops > 0


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
    assert not _labels_differ(a, b)
    c = PiecewiseLinearFn((0.0, 10.0), (1.1e5 + 1e-4, 1.1e5 + 10.0), 1.0, 1.0)
    assert _labels_differ(a, c)
    # slopes compare relatively too: 2 vs 2 + 1e-11 differs, a float step not
    d = PiecewiseLinearFn(a.times, a.values, 1.0, 2.0)
    assert not _labels_differ(d, PiecewiseLinearFn(
        a.times, a.values, 1.0, math.nextafter(2.0, math.inf)))
    assert _labels_differ(d, PiecewiseLinearFn(a.times, a.values, 1.0, 2.0 + 1e-11))


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
