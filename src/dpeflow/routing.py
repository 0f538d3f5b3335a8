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
the labels.  The search settles only what the decisions need:
``active_edges`` at v compares the arrivals d(w) + x_e over v's out-edges
e = (v, w), x_e = v0 + (t - t0), as floats, and resumes the search only
while some unsettled head could still arrive within the tolerance of the
least arrival so far (the heap's least key bounds every unsettled
distance from below).  So a far head that loses stays unsettled, and the
answer is that of a search run to the end, bit for bit.  A lookup in
``labels`` resumes the search until its node is settled; a node's label
function is built only when ``labels`` is read, and kept.
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
        """Out-edges whose predicted arrival at ``t`` is within the
        tolerance of the least such arrival, evaluated as they are; so a
        node that can reach the sink always has one.  None at the sink.

        On shift labels t + dist(v) and shift exit times v0 + (t - t0) the
        arrivals are float arithmetic on the distances, as the label
        functions would evaluate them; no label function is built, and the
        search settles only the heads that could be active (see
        ``_ShiftLabels.active``).
        """
        self._check_time(t)
        if node == self.sink:
            return []
        labels, exit_fns = self.labels, self.exit_fns
        out_edges = self.network.out_edges[node]
        if type(labels) is _ShiftLabels:
            return labels.active(out_edges, exit_fns, t, self.active_tolerance)
        arrivals, best = [], math.inf
        for e in out_edges:
            head = labels.get(e.head)
            if head is not None:
                f = exit_fns[e.id]
                a = head(f[1] + (t - f[0]) if type(f) is tuple else f(t))
                if a < best:
                    best = a
                arrivals.append((a, e))
        cut = best + self.active_tolerance
        return [e for a, e in arrivals if a <= cut]


class LazyTable(dict):
    """An exit table, or the c_e of a shift-only one, whose missing entry
    is made by ``make(edge id)`` on its first read and kept.  As the
    ``restricted`` of ``compute_labels`` it holds c_e and is never
    scanned."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, eid):
        entry = self[eid] = self.make(eid)
        return entry


def compute_labels(network: Network, sink: str, exit_fns: dict,
                   active_tolerance: float = ACTIVE_TOLERANCE, *,
                   start: float = -math.inf,
                   restricted: dict | None = None,
                   ) -> LabelSet:
    """Earliest-arrival labels toward ``sink`` under the given exit times,
    exact for departures at or after ``start`` (the whole line by default).

    An exit table maps an edge id to a ``PiecewiseLinearFn`` or to a shift,
    the pair (t0, v0) of the exit time t -> v0 + (t - t0).  A Dijkstra, run
    only as far as the queries need, when every entry is a shift with
    c_e = v0 - t0 > 0, backward label correction on the exit times
    restricted to [start, inf) otherwise (see the module docstring for why
    that suffices).  ``restricted`` is a dict shared by the calls on one
    exit table and one ``start``: the first call fills it with what the
    labels read, the c_e (floats) of a shift-only table or else the table
    cut at ``start``, and the later ones reuse it.  A ``LazyTable`` of c_e,
    such as the table ``simulation.run`` keeps for a flat predictor over a
    run, makes its entries as they are read and is never scanned, so it is
    neither filled nor inspected here.
    """
    if sink not in network.out_edges:
        raise ValueError(f"unknown sink: {sink!r}")
    if start != -math.inf and not math.isfinite(start):
        raise ValueError(f"label start must be finite or -inf, got {start!r}")
    if restricted is None:
        restricted = {}
    if type(restricted) is LazyTable:
        shift_only = True
    else:
        if not restricted:
            restricted.update(_table_read(exit_fns, start))
        shift_only = isinstance(next(iter(restricted.values()), 0.0), float)
    if shift_only:
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
    dry when the node cannot reach the sink; an ``active`` query resumes it
    only while one of its heads could still be active.  The pops follow
    the order of a search run to the end whatever the order of the lookups
    and queries, so every distance is that search's, bit for bit.  ``in``
    settles as far as its node; ``len`` and iteration finish the search.
    A node's label is built on its first lookup and kept; at the sink it
    is ``identity_fn()``.
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

    def _search(self, waiting=(), lead=-math.inf, tol=math.inf,
                best=math.inf):
        """Resume the search while the heap's least key k has
        k + lead <= cut, and return the least of ``best`` and d(w) + x_w
        over the nodes w of ``waiting`` (unsettled node -> x_w >= lead)
        that it settles; cut is ``tol`` above that least sum so far.

        Every unsettled node's distance is at least k (a stale key on top
        is still a lower bound) and float addition is monotone, so once
        k + lead > cut no unsettled waiting node w has d(w) + x_w <= cut.
        The search also stops once every waiting node is settled; with no
        arguments it runs to the end.
        """
        heap, dist, settled = self._heap, self._dist, self._settled
        in_edges, shifts, tie = self._in_edges, self._shifts, self._tie
        left = len(waiting)
        cut = best + tol
        while heap and heap[0][0] + lead <= cut:
            d, _, w = heapq.heappop(heap)
            if d > dist[w]:
                continue
            settled[w] = d
            for e in in_edges[w]:
                nd = d + shifts[e.id]
                if nd < dist.get(e.tail, math.inf):
                    dist[e.tail] = nd
                    heapq.heappush(heap, (nd, next(tie), e.tail))
            if w in waiting:
                a = d + waiting[w]
                if a < best:
                    best = a
                    cut = best + tol
                left -= 1
                if not left:
                    break
        return best

    def _distance(self, v):
        d = self._settled.get(v)
        if d is None:
            self._search({v: 0.0})
            d = self._settled.get(v)
        return d

    def active(self, out_edges, exit_fns, t, tol):
        """The out-edges e = (v, w) of one node, in order, whose arrival
        d(w) + x_e is within ``tol`` >= 0 of the least, x_e = v0 + (t - t0)
        being e's exit time at ``t``.

        Unsettled heads are settled only while one could still be active
        (see ``_search``), so a skipped edge arrives after the cut: it is
        neither active nor the least.  The lead, the least x_e of the
        unsettled heads, is not raised as they settle: a lower lead only
        loosens the bound, and once its own head is settled at d, the
        search stops once keys pass about d + tol.
        """
        settled = self._settled
        rows = []
        best = lead = math.inf
        waiting = {}    # unsettled head -> least x_e of its edges
        for e in out_edges:
            t0, v0 = exit_fns[e.id]
            x = v0 + (t - t0)
            rows.append((x, e))
            w = e.head
            d = settled.get(w)
            if d is None:
                if x < waiting.get(w, math.inf):
                    waiting[w] = x
                    if x < lead:
                        lead = x
            elif d + x < best:
                best = d + x
        if waiting:
            best = self._search(waiting, lead, tol, best)
        cut = best + tol
        active = []
        for x, e in rows:
            d = settled.get(e.head)
            if d is not None and d + x <= cut:
                active.append(e)
        return active

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
