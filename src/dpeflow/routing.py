"""Earliest-arrival labels under predicted exit times.

Given one predicted exit-time function per edge, the label of a node maps a
departure time to the earliest predicted arrival at the sink.  Labels satisfy
the recursion l_v = min over out-edges e = (v, w) of l_w composed with the
exit time of e, with the sink fixed at the identity.

Shifts need no function algebra.  The zero, constant and threshold
predictors, the linear and reg_linear predictors whenever their forecast
is flat, and every live predictor for an edge forecast to stay empty (the
shared ``constant_fn(0.0)``), predict exit times t + c_e.  Such an exit
time enters the exit table as a pair (t0, v0), its value v0 at an anchor
t0, and is read as v0 + (t - t0), as the PL function through (t0, v0) with
slope 1 would compute it.  When every entry is a shift with c_e = v0 - t0
> 0, every label is t + dist(v), where dist is the static shortest-path
distance to the sink on the costs c_e, and a Dijkstra from the sink gives
the labels.  The search runs only as far as the lookups reach: a round asks
``active_edges`` at a few nodes, each reading its own distance and its
heads', and a lookup resumes the search until its node is settled, so nodes
farther from the sink than every queried one stay unsettled.
``active_edges`` compares the distances and shifts as floats; a node's
label function is built only when ``labels`` is read, and kept.
``simulation.audit_ide`` keeps its own Bellman-Ford as the independent
check of the Dijkstra labels.

Any other exit table goes through backward label correction over the
function space (Dreyfus 1969; Orda and Rom 1990), restricted to departures
at or after the decision time ``start``.  An exit time is at least the
departure time plus the transit time, so l_v on [start, inf) reads l_w on
[start, inf) only.  The table is cut there once, shared by the label sets
of several sinks (``compute_labels(..., restricted=...)``): each exit
function by ``pwl.restrict_from``, and each shift anchored at or before
``start`` by moving its anchor to ``start``, before which it is flat (a
shift anchored later is cut as its PL function).  So no label but the
sink's identity holds a breakpoint before ``start``; the labels are exact
from ``start`` on, and ``LabelSet`` refuses earlier reads.  A shift edge
is composed by translation (``pwl.compose_shift``), and its excess floor
v0 - t0 is read off the pair.

Correction relaxes edges in label order, as for FIFO time-dependent
networks (Dean 2004).  A pass is a heap of nodes keyed on their label's
value at ``start`` (at 0 for whole-line labels), ties broken by a counter;
the first pass starts from the sink.  Popping w relaxes each in-edge
e = (v, w):

- the edge is skipped, without composing, when the excesses l(t) - t on
  [start, inf) prove l_w(T_e(t)) >= l_v(t): max(l_v - t), plus an EPS
  margin, is at most min(l_w - t) + min(T_e - t).  The extremes are read
  at ``start`` and at the breakpoints after it, because a label may be flat
  from ``start`` to its first breakpoint;
- otherwise the candidate l_w composed with T_e becomes v's label if v has
  none;
- otherwise it replaces v's label by ``pointwise_min(label, candidate)``,
  the lower envelope of the two functions (the label's segment kept where
  they coincide), if it lies below that label somewhere on [start, inf) by
  more than EPS relative (on the merged grid and both tails).

A changed node not yet popped in this pass is pushed with its new key; one
popped already waits for the next pass.  Each candidate and each label is
pruned once, inside ``compose_monotone`` and the two-function
``pointwise_min`` that build it.  Predicted exit times exceed the departure
time by at least the transit time, so keys only grow along the first pass
(it pops in Dijkstra order) and optimal arrivals are attained by simple
paths.  Every pass pops a node at most once, and a node is popped after
every change, in the same pass or the next, so each (edge, head label)
pair is composed at most once.  As in Bellman-Ford, a node whose best path
has k edges holds its final label after pass k, labels settle within
|V| - 1 passes, and a node popped more than |V| + 2 times signals a
malformed exit-time function and aborts.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
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
    compose_shift,
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
    computed for (``-inf`` for the whole line); ``exit_fns`` is the exit
    table they were computed on, cut at ``start`` when label correction
    ran.  Reading a label before ``start`` raises
    :class:`~dpeflow.pwl.DomainError`.
    """

    network: Network
    sink: str
    labels: Mapping[str, PiecewiseLinearFn]
    exit_fns: dict
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
        """Out-edges whose predicted arrival matches the node label at ``t``.

        On shift labels t + dist(v) and shift exit times v0 + (t - t0) the
        test is float arithmetic on the distances, as the label functions
        would evaluate it; no label function is built.
        """
        self._check_time(t)
        labels, exit_fns = self.labels, self.exit_fns
        tol = self.active_tolerance
        active = []
        if isinstance(labels, _ShiftLabels):
            d = labels._distance(node)
            if d is None:
                return active
            best = d + t
            for e in self.network.out_edges[node]:
                d_head = labels._distance(e.head)
                if d_head is None:
                    continue
                t0, v0 = exit_fns[e.id]
                if d_head + (v0 + (t - t0)) <= best + tol:
                    active.append(e)
            return active
        label = labels.get(node)
        if label is None:
            return active
        best = label(t)
        for e in self.network.out_edges[node]:
            head = labels.get(e.head)
            if head is None:
                continue
            f = exit_fns[e.id]
            exit_time = f[1] + (t - f[0]) if type(f) is tuple else f(t)
            if head(exit_time) <= best + tol:
                active.append(e)
        return active


def compute_labels(network: Network, sink: str, exit_fns: dict,
                   active_tolerance: float = ACTIVE_TOLERANCE, *,
                   start: float = -math.inf,
                   restricted: dict | None = None,
                   ) -> LabelSet:
    """Earliest-arrival labels toward ``sink`` under the given exit times,
    exact for departures at or after ``start`` (the whole line by default).

    An exit table maps an edge id to a ``PiecewiseLinearFn`` or to a shift,
    the pair (t0, v0) of the exit time t -> v0 + (t - t0).  A Dijkstra, run
    as far as lookups reach, when every entry is a shift with
    c_e = v0 - t0 > 0, backward label correction on the exit times
    restricted to [start, inf) otherwise (see the module docstring for why
    that suffices).  ``restricted`` is a dict shared by the calls on one
    exit table and one ``start``: the first call fills it with what the
    labels read, the c_e (floats) of a shift-only table or else the table
    cut at ``start``, and the later ones reuse it.
    """
    if sink not in network.out_edges:
        raise ValueError(f"unknown sink: {sink!r}")
    if start != -math.inf and not math.isfinite(start):
        raise ValueError(f"label start must be finite or -inf, got {start!r}")
    if restricted is None:
        restricted = {}
    if not restricted:
        restricted.update(_table_read(exit_fns, start))
    if isinstance(next(iter(restricted.values()), 0.0), float):
        table = exit_fns
        labels = _ShiftLabels(network.in_edges, sink, restricted)
    else:
        table = restricted
        labels = _corrected_labels(network, sink, table, start)
    return LabelSet(network, sink, labels, table, active_tolerance, start)


def _table_read(exit_fns, start):
    """What the labels read of an exit table: edge id -> c_e when every
    entry is a shift with c_e > 0, else the table cut at ``start``.

    A shift (t0, v0) with t0 <= start is cut to (start, v0 + (start - t0)),
    which label correction composes as flat before ``start``; on the whole
    line a shift stays as it is.
    """
    shifts = {eid: f[1] - f[0] for eid, f in exit_fns.items()
              if type(f) is tuple}
    if len(shifts) == len(exit_fns) and all(c > 0.0 for c in shifts.values()):
        return shifts
    if start == -math.inf:
        return exit_fns
    start = float(start)
    cut = {}
    for eid, f in exit_fns.items():
        if type(f) is tuple:
            t0, v0 = f
            if t0 <= start:
                cut[eid] = (start, v0 + (start - t0))
                continue
            f = PiecewiseLinearFn((t0,), (v0,), 1.0, 1.0)
        cut[eid] = restrict_from(f, start)
    return cut


class _ShiftLabels(Mapping):
    """Read-only node -> label t + dist(v), settled on demand.

    The distances come from a Dijkstra over in-edges from the sink, which
    keeps its heap between lookups.  A lookup of a node not yet settled
    resumes the search until that node is popped, or until the heap runs
    dry when the node cannot reach the sink.  The pops follow the order of
    a search run to the end whatever the order of the lookups, so every
    distance is that search's, bit for bit.  ``in`` settles as far as its
    node; ``len`` and iteration finish the search.  A node's label is built
    on its first lookup and kept; at the sink it is ``identity_fn()``.
    """

    __slots__ = ("_in_edges", "_shifts", "_dist", "_settled", "_heap",
                 "_tie", "_built")

    def __init__(self, in_edges, sink, shifts: dict[int, float]):
        self._in_edges = in_edges
        self._shifts = shifts
        self._dist = {sink: 0.0}                 # tentative distances
        self._settled: dict[str, float] = {}     # popped: final distances
        # the counter breaks distance ties, so node ids are never compared
        self._tie = count()
        self._heap = [(0.0, next(self._tie), sink)]
        self._built: dict[str, PiecewiseLinearFn] = {}

    def _search(self, target=None):
        """Resume the search until ``target`` is settled and return its
        distance, or run it to the end and return None."""
        heap, dist, settled = self._heap, self._dist, self._settled
        in_edges, shifts, tie = self._in_edges, self._shifts, self._tie
        while heap:
            d, _, w = heapq.heappop(heap)
            if d > dist[w]:
                continue
            settled[w] = d
            for e in in_edges[w]:
                nd = d + shifts[e.id]
                if nd < dist.get(e.tail, math.inf):
                    dist[e.tail] = nd
                    heapq.heappush(heap, (nd, next(tie), e.tail))
            if w == target:
                return d
        return None

    def _distance(self, v):
        d = self._settled.get(v)
        if d is None and self._heap:
            d = self._search(v)
        return d

    def get(self, v, default=None):
        # overridden: Mapping.get goes through __getitem__ and KeyError
        label = self._built.get(v)
        if label is None:
            d = self._distance(v)
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
        return self._distance(v) is not None

    def __iter__(self):
        self._search()
        return iter(self._dist)

    def __len__(self):
        self._search()
        return len(self._dist)


def _corrected_labels(network, sink, exit_fns, start):
    """Backward label correction from ``sink`` under the given exit times,
    by relaxation in label-ordered passes (see the module docstring)."""
    at = 0.0 if start == -math.inf else start
    # the slope of a shift before its anchor: cut at a finite start, the
    # shift is flat before it
    shift_slope = 1.0 if start == -math.inf else 0.0
    labels: dict[str, PiecewiseLinearFn] = {sink: identity_fn()}
    # node -> (min, max) of its label's excess l(t) - t on [start, inf)
    excess = {sink: (0.0, 0.0)}
    edge_floor: dict[int, float] = {}   # edge id -> min of T_e(t) - t
    pops = dict.fromkeys(network.nodes, 0)
    pop_cap = len(network.nodes) + 2
    # the counter breaks key ties, so node ids are never compared
    tie = count()
    heap = [(at, next(tie), sink)]
    while heap:
        done = set()
        later = {}   # nodes changed after their pop, in order of change
        while heap:
            _, _, w = heapq.heappop(heap)
            if w in done:
                continue   # stale: w was pushed again when it improved
            done.add(w)
            pops[w] += 1
            if pops[w] > pop_cap:
                raise ConvergenceError(
                    f"label of {w!r} keeps improving; "
                    "an exit-time function must be rewinding time")
            head, head_floor = labels[w], excess[w][0]
            for e in network.in_edges[w]:
                v = e.tail
                if v == sink:
                    continue
                old = labels.get(v)
                f = exit_fns[e.id]
                shift = type(f) is tuple
                if old is not None:
                    floor = edge_floor.get(e.id)
                    if floor is None:
                        floor = edge_floor[e.id] = (
                            f[1] - f[0] if shift else _excess(f, start)[0])
                    # l_w(T_e(t)) - t >= head_floor + floor >= l_v(t) - t
                    top = excess[v][1]
                    if top + EPS * max(1.0, abs(top)) <= head_floor + floor:
                        continue
                new = (compose_shift(head, f[0], f[1], shift_slope)
                       if shift else compose_monotone(head, f))
                if old is not None:
                    if not _undercuts(new, old, start):
                        continue
                    new = pointwise_min(old, new)
                labels[v] = new
                excess[v] = _excess(new, start)
                if v in done:
                    later[v] = None
                else:
                    heapq.heappush(heap, (new(at), next(tie), v))
        heap = [(labels[v](at), next(tie), v) for v in later]
        heapq.heapify(heap)
    return labels


def _excess(f: PiecewiseLinearFn, start: float) -> tuple[float, float]:
    """Min and max of f(t) - t over [start, inf), either possibly infinite.

    f - t is linear between breakpoints, so the extremes lie at ``start``
    (f's value there, which may sit on a flat stretch before f's first
    breakpoint), at the breakpoints after it, or on a tail.
    """
    times, values = f.times, f.values
    if start == -math.inf:
        lo = hi = values[0] - times[0]
        s = f.slope_before_first
        if s < 1.0:
            hi = math.inf
        elif s > 1.0:
            lo = -math.inf
        i = 1
    else:
        lo = hi = f(start) - start
        i = bisect_right(times, start)
    for t, v in zip(times[i:], values[i:]):
        x = v - t
        if x < lo:
            lo = x
        elif x > hi:
            hi = x
    s = f.slope_after_last
    if s > 1.0:
        hi = math.inf
    elif s < 1.0:
        lo = -math.inf
    return lo, hi


def _undercuts(a: PiecewiseLinearFn, b: PiecewiseLinearFn,
               start: float) -> bool:
    """Whether ``a`` lies below ``b`` somewhere on [start, inf), by more
    than EPS relative to the larger of the two slopes or values (and at
    least 1).

    Both are linear between the points of their merged grid (with
    ``start``) and on their tails, so the grid and the tail slopes decide.
    """
    def below(x, y):
        return y - x > EPS * max(1.0, abs(x), abs(y))

    if below(a.slope_after_last, b.slope_after_last):
        return True
    if start == -math.inf:
        if below(b.slope_before_first, a.slope_before_first):
            return True
        grid = sorted(a.times + b.times)
    else:
        grid = [start] + sorted(t for t in a.times + b.times if t > start)
    return any(map(below, _sample(a, grid), _sample(b, grid)))
