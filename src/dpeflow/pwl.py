"""Algebra over piecewise-defined scalar functions of time.

Two representations cover everything the flow model needs: continuous
piecewise-linear functions (queues, cumulative flows, arrival labels) and
right-continuous step functions (flow rates).  Piecewise-linear functions are
total on the real line, extrapolating by their boundary slopes; step functions
start at their first breakpoint and extend their last value forever.

Instances are immutable and safe to share between threads and callers:
operations never modify their inputs, and :func:`from_points` returns one
shared instance for every flat +0.0 function, so an empty forecast is
recognised by identity.

Functions are validated where data enters and trusted inside.
``PiecewiseLinearFn(...)`` converts its parts to floats and checks them
(strictly increasing finite times, finite values and slopes), and so does
everything built from caller data: :func:`from_points`, :func:`constant_fn`,
:func:`linear_combination`, and every function the other modules make from
scenarios, forecasts or flows.  The results of the algebra,
:func:`compose_monotone`, :func:`compose_shift`, :func:`pointwise_min`,
:func:`prune` and :func:`restrict_from`, are float arithmetic on functions
that passed those checks, so they are built by ``_trusted``, which skips
them; it is used in this module only.  :func:`pointwise_min` is the lower
envelope of two functions, as label correction merges a candidate into a
label.

The simulator's one tolerance is :data:`EPS`, used by every module:

- times, rates and queues are compared absolutely, ``|a - b| <= EPS``;
- slopes, collinearity and label values are compared relatively,
  ``|a - b| <= EPS * max(1.0, |x|)``;
- ties (which of two equal candidates wins) compare exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

EPS = 1.0e-12
"""The simulator's one comparison tolerance (see the module docstring)."""


class DomainError(ValueError):
    """A function was evaluated or integrated before its domain start."""


class NotMonotoneError(ValueError):
    """An operation required a non-decreasing function."""


def _check_breakpoints(times, values):
    if len(times) == 0:
        raise ValueError("at least one breakpoint is required")
    if len(times) != len(values):
        raise ValueError("times and values must have equal length")
    for a, b in zip(times, times[1:]):
        if not b > a:
            raise ValueError(f"breakpoint times must be strictly increasing, got {a} then {b}")
    # strictly increasing times lie between the first and the last
    for t in (times[0], times[-1]):
        if not math.isfinite(t):
            raise ValueError(f"non-finite breakpoint time {t!r}")
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite breakpoint value {v!r}")


@dataclass(frozen=True)
class RightConstantFn:
    """Right-continuous step function.

    The value at t is the value of the last breakpoint <= t; after the final
    breakpoint the last value extends forever.  Evaluation before the first
    breakpoint raises :class:`DomainError`.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        _check_breakpoints(times, values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __call__(self, t: float) -> float:
        if t < self.times[0] - EPS:
            raise DomainError(f"evaluation at {t} before domain start {self.times[0]}")
        i = bisect_right(self.times, t) - 1
        return self.values[max(i, 0)]

    def cumulative(self) -> "PiecewiseLinearFn":
        """The running integral from the first breakpoint as a continuous
        piecewise-linear function."""
        times = [self.times[0]]
        values = [0.0]
        # each later breakpoint closes a span at the preceding rate
        for t, rate_prev in zip(self.times[1:], self.values):
            if t > times[-1]:
                values.append(values[-1] + rate_prev * (t - times[-1]))
                times.append(t)
        return PiecewiseLinearFn(
            tuple(times), tuple(values),
            slope_before_first=0.0,
            slope_after_last=self.values[-1],
        )


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Continuous piecewise-linear function, total on the real line.

    Between breakpoints the value is interpolated; before the first and after
    the last breakpoint it extrapolates with the stated slopes.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    slope_before_first: float = 0.0
    slope_after_last: float = 0.0

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        _check_breakpoints(times, values)
        for s in (self.slope_before_first, self.slope_after_last):
            if not math.isfinite(s):
                raise ValueError(f"non-finite extrapolation slope {s!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "slope_before_first", float(self.slope_before_first))
        object.__setattr__(self, "slope_after_last", float(self.slope_after_last))

    def __call__(self, t: float) -> float:
        times, values = self.times, self.values
        if t <= times[0]:
            return values[0] + self.slope_before_first * (t - times[0])
        if t >= times[-1]:
            return values[-1] + self.slope_after_last * (t - times[-1])
        i = bisect_right(times, t) - 1
        span = times[i + 1] - times[i]
        w = (t - times[i]) / span
        return values[i] * (1.0 - w) + values[i + 1] * w

    def left_slope(self, t: float) -> float:
        """Slope of the piece ending at t (left-derivative)."""
        times = self.times
        if t <= times[0]:
            return self.slope_before_first
        if t > times[-1]:
            return self.slope_after_last
        i = bisect_right(times, t - 0.0) - 1
        if t == times[i]:
            i -= 1
        if i < 0:
            return self.slope_before_first
        if i + 1 >= len(times):
            return self.slope_after_last
        return (self.values[i + 1] - self.values[i]) / (times[i + 1] - times[i])

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b] (trapezoid on each affine piece)."""
        if b < a:
            raise ValueError("integration bounds must satisfy a <= b")
        cuts = [a] + [t for t in self.times if a < t < b] + [b]
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            total += 0.5 * (self(lo) + self(hi)) * (hi - lo)
        return total

    def is_nondecreasing(self) -> bool:
        if self.slope_before_first < -EPS or self.slope_after_last < -EPS:
            return False
        for (t0, v0), (t1, v1) in zip(zip(self.times, self.values),
                                      zip(self.times[1:], self.values[1:])):
            if v1 - v0 < -EPS * max(1.0, abs(v0), t1 - t0):
                return False
        return True


def _trusted(times: tuple[float, ...], values: tuple[float, ...],
             slope_before: float, slope_after: float) -> PiecewiseLinearFn:
    """A result of the algebra, built without ``__post_init__``: its parts
    are float tuples and floats derived from validated functions, so they
    are already what validation would make of them."""
    f = object.__new__(PiecewiseLinearFn)
    f.__dict__.update(times=times, values=values,
                      slope_before_first=slope_before,
                      slope_after_last=slope_after)
    return f


def identity_fn() -> PiecewiseLinearFn:
    """The function t -> t."""
    return PiecewiseLinearFn((0.0,), (0.0,), 1.0, 1.0)


_ZERO = PiecewiseLinearFn((0.0,), (0.0,), 0.0, 0.0)


def constant_fn(value: float) -> PiecewiseLinearFn:
    """The function t -> value; for +0.0 the shared zero (see
    :func:`from_points`)."""
    if value == 0.0 and math.copysign(1.0, value) > 0.0:
        return _ZERO
    return from_points([(0.0, value)])


def linear_combination(
    fns: list[PiecewiseLinearFn], coeffs: list[float]
) -> PiecewiseLinearFn:
    """Exact pointwise sum(c * f) of piecewise-linear functions."""
    if not fns or len(fns) != len(coeffs):
        raise ValueError("need matching non-empty function and coefficient lists")
    grid = _merged_times([f.times for f in fns])
    values = tuple(sum(c * y for c, y in zip(coeffs, ys))
                   for ys in zip(*(_sample(f, grid) for f in fns)))
    before = sum(c * f.slope_before_first for f, c in zip(fns, coeffs))
    after = sum(c * f.slope_after_last for f, c in zip(fns, coeffs))
    return prune(PiecewiseLinearFn(grid, values, before, after))


def _sample(f: PiecewiseLinearFn, ts) -> list[float]:
    """``[f(t) for t in ts]`` in one forward sweep over the breakpoints.

    For sorted ``ts`` the piece under each point is found by advancing a
    cursor; a point before the cursor's piece, such as a dip of an inner
    function's values within EPS, is located by ``bisect``.  The arithmetic is
    that of ``PiecewiseLinearFn.__call__``, so the values are bit-identical.
    """
    times, values = f.times, f.values
    t0, v0, s0 = times[0], values[0], f.slope_before_first
    tn, vn, sn = times[-1], values[-1], f.slope_after_last
    out = []
    i = 0    # times[i] <= t < times[i + 1] for interior t
    for t in ts:
        if t <= t0:
            out.append(v0 + s0 * (t - t0))
        elif t >= tn:
            out.append(vn + sn * (t - tn))
        else:
            if times[i] > t:
                i = bisect_right(times, t) - 1
            while times[i + 1] <= t:
                i += 1
            w = (t - times[i]) / (times[i + 1] - times[i])
            out.append(values[i] * (1.0 - w) + values[i + 1] * w)
    return out


def _distinct(pts) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Times and values of (t, v) points sorted by t, dropping every point
    within EPS after the last one kept."""
    times, values = [], []
    for t, v in pts:
        if not times or t - times[-1] > EPS:
            times.append(t)
            values.append(v)
    return tuple(times), tuple(values)


def _merged_times(time_lists) -> tuple[float, ...]:
    """The union of the time lists, sorted, without times within EPS after
    the last one kept."""
    merged = sorted(set().union(*time_lists))
    out = [merged[0]]
    for t in merged:
        if t - out[-1] > EPS:
            out.append(t)
    return tuple(out)


def from_points(pts, slope_before: float = 0.0,
                slope_after: float = 0.0) -> PiecewiseLinearFn:
    """The pruned PL function through a list of (t, v) points sorted by t;
    the shared zero when every value is +0.0 and both slopes are 0."""
    if pts and not (slope_before or slope_after):
        for _, v in pts:
            if v or math.copysign(1.0, v) < 0.0:
                break
        else:
            return _ZERO
    times, values = _distinct(pts)
    return prune(PiecewiseLinearFn(times, values, slope_before, slope_after))


def compose_monotone(
    outer: PiecewiseLinearFn, inner: PiecewiseLinearFn
) -> PiecewiseLinearFn:
    """Exact composition outer(inner(t)) for non-decreasing inner.

    Breakpoints of the result are the inner breakpoints plus the preimages of
    the outer breakpoints under inner, pruned.  Raises :class:`NotMonotoneError` when
    inner decreases anywhere.
    """
    if not inner.is_nondecreasing():
        raise NotMonotoneError("compose_monotone requires a non-decreasing inner function")

    grid = _merged_times([inner.times]
                         + [_preimages(inner, y) for y in outer.times])
    values = _sample(outer, _sample(inner, grid))
    # beyond the grid both factors sit on their boundary pieces (every outer
    # kink preimage is a grid candidate), so the chain rule is exact; a flat
    # inner tail zeroes the product whatever outer does
    slope_before = outer.slope_before_first * inner.slope_before_first
    slope_after = outer.slope_after_last * inner.slope_after_last
    return prune(_trusted(grid, tuple(values), slope_before, slope_after))


def compose_shift(outer: PiecewiseLinearFn, t0: float, v0: float,
                  slope_before: float) -> PiecewiseLinearFn:
    """``compose_monotone(outer, PiecewiseLinearFn((t0,), (v0,),
    slope_before, 1.0))`` bit for bit, without building the inner shift.

    The inner function is t -> v0 + (t - t0), on the whole line when
    ``slope_before`` is 1.0, and flat at v0 before t0 when it is 0.0 (a
    shift cut at t0).  Its breakpoint and the preimages of outer's
    breakpoints form the grid, as in :func:`compose_monotone`; a flat inner
    function has no preimage before t0.
    """
    ys = outer.times if slope_before else [y for y in outer.times if y >= v0]
    grid = _merged_times([(t0,), [t0 + (y - v0) for y in ys]])
    values = _sample(outer, [v0 + (t - t0) for t in grid])
    return prune(_trusted(grid, tuple(values),
                          outer.slope_before_first * slope_before,
                          outer.slope_after_last))


def _preimages(inner: PiecewiseLinearFn, y: float) -> list[float]:
    """Times t with inner(t) == y, one per strictly-increasing affine piece."""
    out = []
    times, values = inner.times, inner.values
    s = inner.slope_before_first
    if s > EPS and y <= values[0]:
        out.append(times[0] - (values[0] - y) / s)
    for i in range(len(times) - 1):
        v0, v1 = values[i], values[i + 1]
        if v0 - EPS <= y <= v1 + EPS and v1 > v0:
            w = (y - v0) / (v1 - v0)
            w = min(max(w, 0.0), 1.0)
            out.append(times[i] + w * (times[i + 1] - times[i]))
    s = inner.slope_after_last
    if s > EPS and y >= values[-1]:
        out.append(times[-1] + (y - values[-1]) / s)
    return out


def _lower_two(fa, sf, ga, sg, x0, x_end):
    """Vertices on [x0, x_end), x_end possibly +inf, and final slope of the
    lower envelope of the lines fa + sf*(x - x0) and ga + sg*(x - x0).  The
    line lower at x0 leads, on equal values the one with the smaller slope,
    then f's; two lines cross at most once."""
    if (ga, sg) < (fa, sf):
        fa, sf, ga, sg = ga, sg, fa, sf
    verts = [(x0, fa)]
    # slopes closer than this are parallel for our purposes: a crossing
    # they produce sits at value_gap / slope_gap, far outside any horizon
    if sg >= sf - EPS * max(1.0, abs(sf)):
        return verts, sf
    # here ga > fa, so the crossing lies after x0
    t = x0 + (ga - fa) / (sf - sg)
    if t >= x_end - EPS:
        return verts, sf
    if t > x0 + EPS:
        verts.append((t, fa + sf * (t - x0)))
    return verts, sg


def pointwise_min(f: PiecewiseLinearFn,
                  g: PiecewiseLinearFn) -> PiecewiseLinearFn:
    """Exact lower envelope of two piecewise-linear functions.

    New breakpoints appear at segment crossings; where the two coincide, f's
    segment is kept.  The result is pruned, and ends that restate the
    boundary slopes are dropped.
    """
    grid = _merged_times([f.times, g.times])
    fs, gs = _sample(f, grid), _sample(g, grid)

    # left tail: mirror the axis and walk forward from the first grid point
    mirrored, mslope = _lower_two(fs[0], -f.slope_before_first,
                                  gs[0], -g.slope_before_first,
                                  -grid[0], math.inf)
    slope_before = -mslope
    pts = [(-x, v) for x, v in reversed(mirrored[1:])]

    for a, b, fa, fb, ga, gb in zip(grid, grid[1:], fs, fs[1:], gs, gs[1:]):
        if fa < ga and fb <= gb or ga < fa and gb <= fb:
            # one piece is lowest at a and still lowest at b: being linear,
            # the other cannot cross it inside, so it is the envelope
            pts.append((a, min(fa, ga)))
            continue
        pts.extend(_lower_two(fa, (fb - fa) / (b - a),
                              ga, (gb - ga) / (b - a), a, b)[0])

    verts, slope_after = _lower_two(fs[-1], f.slope_after_last,
                                    gs[-1], g.slope_after_last,
                                    grid[-1], math.inf)
    pts.extend(verts)

    if not (slope_before or slope_after or any(v for _, v in pts)):
        # flat at zero: from_points decides whether it is the shared zero
        return _drop_redundant_ends(from_points(pts, slope_before, slope_after))
    times, values = _distinct(pts)
    return _drop_redundant_ends(
        prune(_trusted(times, values, slope_before, slope_after)))


def restrict_from(f: PiecewiseLinearFn, start: float) -> PiecewiseLinearFn:
    """f on [start, inf): a breakpoint at ``start`` with the value
    ``f(start)`` (f's own breakpoint if ``start`` is one), f's breakpoints
    after ``start``, and a flat left tail.

    Values at ``start`` and at the kept breakpoints are f's bit for bit, so
    the result is f itself from ``start`` on.  f comes back unchanged when it
    already starts at ``start`` with a flat left tail.
    """
    if not math.isfinite(start):
        raise ValueError(f"non-finite restriction start {start!r}")
    times, values = f.times, f.values
    i = bisect_left(times, start)
    if i < len(times) and times[i] == start:
        if i == 0 and f.slope_before_first == 0.0:
            return f
        return _trusted(times[i:], values[i:], 0.0, f.slope_after_last)
    return _trusted((float(start),) + times[i:], (f(start),) + values[i:],
                    0.0, f.slope_after_last)


def _drop_redundant_ends(f: PiecewiseLinearFn) -> PiecewiseLinearFn:
    """Drop boundary breakpoints that merely restate the extrapolation slope."""
    times, values = list(f.times), list(f.values)
    while len(times) >= 2:
        s = (values[1] - values[0]) / (times[1] - times[0])
        if abs(s - f.slope_before_first) <= EPS * max(1.0, abs(s)):
            times.pop(0)
            values.pop(0)
        else:
            break
    while len(times) >= 2:
        s = (values[-1] - values[-2]) / (times[-1] - times[-2])
        if abs(s - f.slope_after_last) <= EPS * max(1.0, abs(s)):
            times.pop()
            values.pop()
        else:
            break
    if len(times) == len(f.times):
        return f
    return _trusted(tuple(times), tuple(values),
                    f.slope_before_first, f.slope_after_last)


def prune(f: PiecewiseLinearFn) -> PiecewiseLinearFn:
    """Remove (numerically) collinear interior breakpoints; the first and
    last breakpoints always survive."""
    times, values = f.times, f.values
    n = len(times)
    if n < 3:
        return f
    kept_t, kept_v = [times[0]], [values[0]]
    t0, v0 = times[0], values[0]
    for i in range(1, n - 1):
        t1, v1 = times[i], values[i]
        t2, v2 = times[i + 1], values[i + 1]
        interp = v0 + (v2 - v0) * (t1 - t0) / (t2 - t0)
        if abs(v1 - interp) <= EPS * max(1.0, abs(v1)):
            continue
        kept_t.append(t1)
        kept_v.append(v1)
        t0, v0 = t1, v1
    if len(kept_t) == n - 1:
        return f
    kept_t.append(times[-1])
    kept_v.append(values[-1])
    return _trusted(tuple(kept_t), tuple(kept_v),
                    f.slope_before_first, f.slope_after_last)
