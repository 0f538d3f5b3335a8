"""Earliest-arrival labels under predicted exit times.

Given one predicted exit-time function per edge, the label of a node maps a
departure time to the earliest predicted arrival at the sink.  Labels satisfy
the recursion l_v = min over out-edges e = (v, w) of l_w composed with the
exit time of e, with the sink fixed at the identity.

Shift-only forecasts need no function algebra.  The zero, constant and
threshold predictors, the linear and reg_linear predictors whenever their
forecast is flat, and every live predictor for an edge forecast to stay
empty (the shared ``constant_fn(0.0)``), predict exit times t + c_e with
c_e > 0.  Then every label is t + dist(v), where dist is the static
shortest-path distance to the sink on the costs c_e, and one Dijkstra from
the sink gives all labels.  The label set then holds the distances, and a
node's label function is built on its first lookup and kept: a round asks
``active_edges`` at a few nodes, each reading its own label and its heads'.
``simulation.audit_ide`` keeps its own Bellman-Ford as the independent
check of the Dijkstra labels.

Every other forecast goes through backward label correction over the
function space (Dreyfus 1969; Orda and Rom 1990), restricted to departures
at or after the decision time ``start``.  An exit time is at least the
departure time plus the transit time, so l_v on [start, inf) reads l_w on
[start, inf) only.  Each exit function is cut there by
``pwl.restrict_from``, so no label but the sink's identity holds a
breakpoint before ``start``; the labels are exact from ``start`` on, and
``LabelSet`` refuses earlier reads.  Correction runs in pull order: a FIFO
queue holds the nodes whose label may be out of date, starting with the
sink's in-neighbors.  Popping a node recomputes its label once, from the
current labels of its out-neighbors; only if the label changed are its
in-neighbors queued, each at most once at a time.  A node's candidate
through an out-edge e = (v, w) is l_w composed with the exit time of e; it
is kept per edge and recomposed only once l_w has been replaced, so a
recomputation redoes only the edges whose heads changed.  Each candidate and
each label is pruned once, inside ``compose_monotone`` and ``pointwise_min``
that build it.  Predicted exit times always exceed the departure time by at
least the transit time, so optimal arrivals are attained by simple paths.
The FIFO queue processes nodes in Bellman-Ford passes, each popping a node
at most once, and a node is popped after every change that queued it, in the
same pass or the next.  So a node whose best path has k edges holds its
final label after pass k, labels settle within |V| - 1 passes, and a node
popped more than |V| + 2 times signals a malformed exit-time function and
aborts.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import count

from .network import ACTIVE_TOLERANCE, Network
from .pwl import (
    EPS,
    DomainError,
    PiecewiseLinearFn,
    _sample,
    compose_monotone,
    identity_fn,
    pointwise_min,
    prune,  # noqa: F401 (unused; perfbench's tracer test reads routing.prune)
    restrict_from,
)


class ConvergenceError(Exception):
    """Raised when labels keep improving past the simple-path bound."""


@dataclass(frozen=True)
class LabelSet:
    """Earliest-arrival labels toward one sink, plus the exit times used.

    The labels are exact from ``start`` on, the decision time they were
    computed for (``-inf`` for the whole line); ``exit_fns`` are the whole
    exit-time functions.  Reading a label before ``start`` raises
    :class:`~dpeflow.pwl.DomainError`.
    """

    network: Network
    sink: str
    labels: Mapping[str, PiecewiseLinearFn]
    exit_fns: dict[int, PiecewiseLinearFn]
    active_tolerance: float = ACTIVE_TOLERANCE
    start: float = -math.inf

    def _check_time(self, t: float) -> None:
        if t < self.start - EPS:
            raise DomainError(
                f"label read at {t} before its start {self.start}")

    def earliest_arrival(self, node: str, t: float) -> float:
        """Predicted arrival at the sink leaving ``node`` at ``t``.

        Returns infinity when the sink is not reachable from ``node``.
        """
        self._check_time(t)
        label = self.labels.get(node)
        return label(t) if label is not None else math.inf

    def active_edges(self, node: str, t: float):
        """Out-edges whose predicted arrival matches the node label at ``t``."""
        self._check_time(t)
        label = self.labels.get(node)
        if label is None:
            return []
        tol = self.active_tolerance
        best = label(t)
        active = []
        for e in self.network.out_edges[node]:
            head = self.labels.get(e.head)
            if head is None:
                continue
            if head(self.exit_fns[e.id](t)) <= best + tol:
                active.append(e)
        return active


def compute_labels(network: Network, sink: str,
                   exit_fns: dict[int, PiecewiseLinearFn],
                   active_tolerance: float = ACTIVE_TOLERANCE, *,
                   start: float = -math.inf) -> LabelSet:
    """Earliest-arrival labels toward ``sink`` under the given exit times,
    exact for departures at or after ``start`` (the whole line by default).

    One Dijkstra when every exit time is a positive shift, backward label
    correction on the exit times restricted to [start, inf) otherwise (see
    the module docstring for why that suffices).
    """
    if sink not in network.out_edges:
        raise ValueError(f"unknown sink: {sink!r}")
    if start != -math.inf and not math.isfinite(start):
        raise ValueError(f"label start must be finite or -inf, got {start!r}")
    shifts = _positive_shifts(exit_fns)
    if shifts is not None:
        labels = _shift_labels(network, sink, shifts)
    else:
        restricted = exit_fns
        if start != -math.inf:
            restricted = {eid: restrict_from(f, start)
                          for eid, f in exit_fns.items()}
        labels = _corrected_labels(network, sink, restricted)
    return LabelSet(network, sink, labels, dict(exit_fns), active_tolerance,
                    start)


def _positive_shifts(exit_fns):
    """Edge id -> c_e if every exit time is t + c_e with c_e > 0, else None."""
    shifts = {}
    for eid, f in exit_fns.items():
        if (len(f.times) != 1 or f.slope_before_first != 1.0
                or f.slope_after_last != 1.0):
            return None
        c = f.values[0] - f.times[0]
        if not c > 0.0:
            return None
        shifts[eid] = c
    return shifts


def _shift_labels(network, sink, shifts):
    """Labels t + dist(v) from one Dijkstra over in-edges from the sink."""
    dist = {sink: 0.0}
    # the counter breaks distance ties, so node ids are never compared
    tie = count()
    heap = [(0.0, next(tie), sink)]
    while heap:
        d, _, w = heapq.heappop(heap)
        if d > dist[w]:
            continue
        for e in network.in_edges[w]:
            nd = d + shifts[e.id]
            if nd < dist.get(e.tail, math.inf):
                dist[e.tail] = nd
                heapq.heappush(heap, (nd, next(tie), e.tail))
    return _ShiftLabels(dist)


class _ShiftLabels(Mapping):
    """Read-only node -> label t + dist(v) over Dijkstra distances.

    A node's label is built on its first lookup and kept; a round queries
    only a few nodes and their heads.  At the sink it is ``identity_fn()``.
    """

    __slots__ = ("_dist", "_built")

    def __init__(self, dist: dict[str, float]):
        self._dist = dist
        self._built: dict[str, PiecewiseLinearFn] = {}

    def get(self, v, default=None):
        # overridden: Mapping.get goes through __getitem__ and KeyError
        label = self._built.get(v)
        if label is None:
            d = self._dist.get(v)
            if d is None:
                return default
            label = self._built[v] = PiecewiseLinearFn((0.0,), (d,), 1.0, 1.0)
        return label

    def __getitem__(self, v):
        label = self.get(v)
        if label is None:
            raise KeyError(v)
        return label

    def __contains__(self, v):
        return v in self._dist

    def __iter__(self):
        return iter(self._dist)

    def __len__(self):
        return len(self._dist)


def _corrected_labels(network, sink, exit_fns):
    """Backward label correction from ``sink`` under the given exit times."""
    labels: dict[str, PiecewiseLinearFn] = {sink: identity_fn()}
    # edge id -> (head label, its composition with the edge's exit time)
    composed: dict[int, tuple[PiecewiseLinearFn, PiecewiseLinearFn]] = {}
    pending = deque()
    queued = set()

    def queue_tails(w):
        for e in network.in_edges[w]:
            if e.tail != sink and e.tail not in queued:
                pending.append(e.tail)
                queued.add(e.tail)

    queue_tails(sink)
    pops = {v: 0 for v in network.nodes}
    pop_cap = len(network.nodes) + 2

    while pending:
        v = pending.popleft()
        queued.discard(v)
        pops[v] += 1
        if pops[v] > pop_cap:
            raise ConvergenceError(
                f"label of {v!r} keeps improving; "
                "an exit-time function must be rewinding time")
        new = _best_label(network, v, labels, exit_fns, composed)
        old = labels.get(v)
        if old is None or _labels_differ(old, new):
            labels[v] = new
            queue_tails(v)

    return labels


def _best_label(network, v, labels, exit_fns, composed):
    candidates = []
    for e in network.out_edges[v]:
        head = labels.get(e.head)
        if head is None:
            continue
        hit = composed.get(e.id)
        if hit is None or hit[0] is not head:
            hit = (head, compose_monotone(head, exit_fns[e.id]))
            composed[e.id] = hit
        candidates.append(hit[1])
    return pointwise_min(candidates)


def _labels_differ(a: PiecewiseLinearFn, b: PiecewiseLinearFn) -> bool:
    # PL functions agreeing on both kink sets and boundary slopes agree
    # everywhere, so this comparison is exact up to EPS, relative to the
    # larger of the two slopes or values (and at least 1)
    def differ(x, y):
        return abs(x - y) > EPS * max(1.0, abs(x), abs(y))

    if (differ(a.slope_before_first, b.slope_before_first)
            or differ(a.slope_after_last, b.slope_after_last)):
        return True
    grid = sorted(a.times + b.times)
    return any(map(differ, _sample(a, grid), _sample(b, grid)))
