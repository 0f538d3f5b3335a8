import ast
import math
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpeflow.pwl import (
    EPS,
    DomainError,
    NotMonotoneError,
    PiecewiseLinearFn,
    RightConstantFn,
    _distinct,
    _drop_redundant_ends,
    _lower_two,
    _sample,
    compose_monotone,
    constant_fn,
    from_points,
    identity_fn,
    linear_combination,
    pointwise_min,
    prune,
    restrict_from,
)


def dense_grid(lo, hi, n=1001):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


# ---------------------------------------------------------------- construction


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        PiecewiseLinearFn((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        RightConstantFn((1.0, 0.5), (1.0, 2.0))


def test_non_finite_value_rejected():
    with pytest.raises(ValueError):
        PiecewiseLinearFn((0.0,), (math.nan,))
    with pytest.raises(ValueError):
        PiecewiseLinearFn((0.0,), (0.0,), slope_after_last=math.inf)


def test_non_finite_time_rejected():
    for times in ((math.inf,), (-math.inf, 5.0), (0.0, math.inf),
                  (math.nan,)):
        values = (0.0,) * len(times)
        for cls in (PiecewiseLinearFn, RightConstantFn):
            with pytest.raises(ValueError, match="non-finite breakpoint time"):
                cls(times, values)


def test_zero_constant_is_shared_and_keeps_its_sign():
    assert constant_fn(0.0) is constant_fn(0.0)
    assert constant_fn(0) is constant_fn(0.0)
    assert constant_fn(0.0) == PiecewiseLinearFn((0.0,), (0.0,))
    neg = constant_fn(-0.0)
    assert neg is not constant_fn(0.0)
    assert math.copysign(1.0, neg.values[0]) == -1.0
    assert math.copysign(1.0, constant_fn(0.0).values[0]) == 1.0
    assert constant_fn(2.5) is not constant_fn(2.5)
    # every flat +0.0 from_points builds is the same object
    zero = constant_fn(0.0)
    assert from_points([(3.0, 0.0)]) is zero
    assert from_points([(3.0, 0.0), (7.0, 0.0), (9.0, 0)]) is zero
    assert from_points([(3.0, 0.0)], slope_before=-0.0) is zero
    # anything else is its own object, with its breakpoints and sign bits
    for f in (from_points([(3.0, 0.0)], slope_after=1.0),
              from_points([(3.0, 0.0)], slope_before=-1.0),
              from_points([(3.0, 0.0), (7.0, 1e-300)]),
              from_points([(3.0, 0.0), (7.0, -0.0)])):
        assert f is not zero and f.times[0] == 3.0
    neg = from_points([(3.0, -0.0), (7.0, -0.0)])
    assert neg is not zero
    assert [math.copysign(1.0, v) for v in neg.values] == [-1.0, -1.0]
    with pytest.raises(ValueError, match="at least one breakpoint"):
        from_points([])


# ----------------------------------------------------------------------- eval


def test_step_eval_is_right_continuous():
    f = RightConstantFn((0.0, 1.0), (2.0, 3.0))
    assert f(0.0) == 2.0
    assert f(0.999999) == 2.0
    assert f(1.0) == 3.0  # value at a breakpoint is the new rate
    assert f(50.0) == 3.0


def test_step_eval_before_domain_raises():
    f = RightConstantFn((0.0,), (1.0,))
    with pytest.raises(DomainError):
        f(-0.5)


def test_linear_eval_interpolates_and_extrapolates():
    f = PiecewiseLinearFn((0.0, 2.0), (0.0, 4.0), slope_before_first=1.0, slope_after_last=2.0)
    assert f(1.0) == pytest.approx(2.0, abs=1e-12)
    assert f(3.0) == pytest.approx(6.0, abs=1e-12)  # extrapolation by stated slope
    assert f(-1.0) == pytest.approx(-1.0, abs=1e-12)


def test_left_slope():
    f = PiecewiseLinearFn((0.0, 1.0, 3.0), (0.0, 2.0, 0.0))
    assert f.left_slope(0.0) == 0.0
    assert f.left_slope(1.0) == pytest.approx(2.0)
    assert f.left_slope(2.0) == pytest.approx(-1.0)
    assert f.left_slope(3.0) == pytest.approx(-1.0)
    assert f.left_slope(9.0) == 0.0


# ------------------------------------------------------------------ integrate


def test_cumulative_matches_integral():
    f = RightConstantFn((0.0, 1.0, 3.0), (2.0, 0.5, 0.0))
    F = f.cumulative()

    def integral(t):  # by hand: rate 2 on [0, 1), 0.5 on [1, 3), then 0
        return 2.0 * min(t, 1.0) + 0.5 * min(max(t - 1.0, 0.0), 2.0)

    for t in dense_grid(0.0, 5.0, 101):
        assert F(t) == pytest.approx(integral(t), abs=1e-10)
    assert (F(1.0), F(3.0), F(5.0)) == (2.0, 3.0, 3.0)
    assert F.slope_after_last == 0.0


def test_linear_integral_trapezoid():
    f = PiecewiseLinearFn((0.0, 2.0), (0.0, 4.0), slope_after_last=0.0)
    assert f.integral(0.0, 2.0) == pytest.approx(4.0, abs=1e-12)
    assert f.integral(0.0, 3.0) == pytest.approx(8.0, abs=1e-12)


# -------------------------------------------------------------------- compose


def test_compose_with_identity_is_identity():
    f = PiecewiseLinearFn((0.0, 1.0, 2.0), (0.0, 3.0, 3.5), 0.0, 1.0)
    g = compose_monotone(f, identity_fn())
    for t in dense_grid(-2.0, 4.0):
        assert g(t) == pytest.approx(f(t), abs=1e-9)
    h = compose_monotone(identity_fn(), f)
    for t in dense_grid(-2.0, 4.0):
        assert h(t) == pytest.approx(f(t), abs=1e-9)


def test_compose_dense_oracle():
    outer = PiecewiseLinearFn((0.0, 1.0, 2.0, 5.0), (1.0, 0.5, 2.0, 2.0), -1.0, 0.5)
    inner = PiecewiseLinearFn((0.0, 1.0, 3.0), (0.5, 0.5, 4.0), 0.0, 2.0)
    g = compose_monotone(outer, inner)
    for t in dense_grid(-3.0, 6.0, 2001):
        assert g(t) == pytest.approx(outer(inner(t)), abs=1e-9)


def test_compose_of_shifts_keeps_unit_slopes():
    # chains of t + c must stay exact: any tail-slope noise makes later
    # envelopes cross near-parallel lines absurdly far out
    f = PiecewiseLinearFn((0.0,), (2.5483,), 1.0, 1.0)
    g = f
    for _ in range(6):
        g = compose_monotone(g, f)
    assert g.slope_before_first == 1.0
    assert g.slope_after_last == 1.0


def test_compose_rejects_decreasing_inner():
    inner = PiecewiseLinearFn((0.0, 1.0), (1.0, 0.0))
    with pytest.raises(NotMonotoneError):
        compose_monotone(identity_fn(), inner)


def test_compose_constant_inner():
    outer = PiecewiseLinearFn((0.0, 2.0), (0.0, 4.0))
    g = compose_monotone(outer, constant_fn(1.0))
    for t in (-5.0, 0.0, 17.0):
        assert g(t) == pytest.approx(2.0, abs=1e-12)


# --------------------------------------------------------------------- minimum


def test_min_of_crossing_lines():
    f = PiecewiseLinearFn((0.0,), (0.0,), 1.0, 1.0)          # t
    g = PiecewiseLinearFn((0.0,), (1.0,), 0.0, 0.0)          # 1
    m = pointwise_min(f, g)
    for t in dense_grid(-2.0, 4.0):
        assert m(t) == pytest.approx(min(t, 1.0), abs=1e-9)


def test_min_dense_oracle_three_functions():
    # the envelope of three is the envelope of the first two merged with
    # the third
    fns = [
        PiecewiseLinearFn((0.0, 1.0, 2.5), (2.0, 0.5, 3.0), -0.5, 2.0),
        PiecewiseLinearFn((0.5, 2.0), (1.0, 1.0), 0.0, -0.25),
        PiecewiseLinearFn((-1.0, 3.0), (4.0, -2.0), 0.0, 0.0),
    ]
    m = pointwise_min(pointwise_min(fns[0], fns[1]), fns[2])
    for t in dense_grid(-4.0, 6.0, 4001):
        assert m(t) == pytest.approx(min(f(t) for f in fns), abs=1e-8)


def test_min_of_almost_parallel_tails_stays_put():
    # slope gap of a few ulp is noise, not a crossing at value_gap / gap
    f = PiecewiseLinearFn((0.0,), (6.0,), 1.0, 1.0)
    g = PiecewiseLinearFn((0.0,), (6.0483,), 1.0, 1.0 - 2e-15)
    m = pointwise_min(f, g)
    assert all(abs(t) < 1e3 for t in m.times)
    for t in (-50.0, 0.0, 50.0, 1e6):
        assert m(t) == pytest.approx(t + 6.0, abs=1e-9)


# ----------------------------------------------------------------------- prune


def test_prune_removes_collinear_points():
    f = PiecewiseLinearFn((0.0, 1.0, 2.0), (0.0, 1.0, 2.0))
    g = prune(f)
    assert g.times == (0.0, 2.0)
    assert g.values == (0.0, 2.0)


# --------------------------------------------------------------- combinations


def test_linear_combination_exact():
    f = PiecewiseLinearFn((0.0, 2.0), (0.0, 2.0), 0.0, 1.0)
    g = PiecewiseLinearFn((1.0, 3.0), (1.0, 0.0), 0.0, 0.0)
    h = linear_combination([f, g], [1.0, -2.0])
    for t in dense_grid(-1.0, 5.0):
        assert h(t) == pytest.approx(f(t) - 2.0 * g(t), abs=1e-9)


# ------------------------------------------------------------------ properties


finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


@st.composite
def piecewise_linear(draw, monotone=False):
    n = draw(st.integers(min_value=1, max_value=6))
    raw = draw(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=n, max_size=n,
                        unique=True))
    times = sorted(raw)
    for a, b in zip(times, times[1:]):
        if b - a < 1e-3:
            return draw(piecewise_linear(monotone=monotone))
    if monotone:
        steps = draw(st.lists(st.floats(min_value=0.0, max_value=5.0),
                              min_size=n, max_size=n))
        v0 = draw(st.floats(min_value=-5.0, max_value=5.0))
        values = []
        acc = v0
        for s in steps:
            acc += s
            values.append(acc)
        before = draw(st.floats(min_value=0.0, max_value=3.0))
        after = draw(st.floats(min_value=0.0, max_value=3.0))
    else:
        values = draw(st.lists(st.floats(min_value=-10.0, max_value=10.0),
                               min_size=n, max_size=n))
        before = draw(st.floats(min_value=-3.0, max_value=3.0))
        after = draw(st.floats(min_value=-3.0, max_value=3.0))
    return PiecewiseLinearFn(tuple(times), tuple(values), before, after)


@settings(max_examples=80, deadline=None)
@given(piecewise_linear(), piecewise_linear(monotone=True), finite)
def test_property_compose_matches_pointwise(outer, inner, t):
    g = compose_monotone(outer, inner)
    assert g(t) == pytest.approx(outer(inner(t)), abs=1e-7, rel=1e-7)


@settings(max_examples=80, deadline=None)
@given(st.lists(piecewise_linear(), min_size=1, max_size=4), finite)
def test_property_min_is_lower_envelope(fns, t):
    m = reduce(pointwise_min, fns)
    expected = min(f(t) for f in fns)
    assert m(t) == pytest.approx(expected, abs=1e-7, rel=1e-7)


@st.composite
def sample_points(draw, times):
    """Sorted points around ``times``: random ones beyond both ends and in
    between, the breakpoints themselves, and after any point possibly a dip
    back by at most EPS."""
    lo, hi = times[0] - 5.0, times[-1] + 5.0
    pts = [lo, hi] + draw(st.lists(st.floats(min_value=lo, max_value=hi),
                                   max_size=20))
    pts += draw(st.lists(st.sampled_from(times), max_size=len(times) + 2))
    out = []
    for t in sorted(pts):
        out.append(t)
        if draw(st.booleans()):
            out.append(t - draw(st.floats(min_value=0.0, max_value=EPS)))
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_sample_is_bit_identical_to_calls(data):
    f = data.draw(piecewise_linear())
    ts = data.draw(sample_points(f.times))
    assert [y.hex() for y in _sample(f, ts)] == [f(t).hex() for t in ts]


@settings(max_examples=60, deadline=None)
@given(piecewise_linear())
def test_property_prune_stays_within_tolerance(f):
    # dropping only collinear breakpoints keeps the function itself
    g = prune(f)
    lo, hi = f.times[0] - 1.0, f.times[-1] + 1.0
    worst = max(abs(g(t) - f(t)) for t in dense_grid(lo, hi, 401))
    assert worst <= 1e-9


@settings(max_examples=60, deadline=None)
@given(piecewise_linear(monotone=True))
def test_property_monotone_survives_prune(f):
    assert prune(f).is_nondecreasing()


def _full_sweep_min(f, g):
    """``pointwise_min`` as a full sweep: the lower envelope of every grid
    interval by ``_lower_two``, then ``from_points`` and
    ``_drop_redundant_ends``."""
    merged = sorted(set(f.times + g.times))
    grid = _distinct(zip(merged, merged))[0]
    fs, gs = _sample(f, grid), _sample(g, grid)
    mirrored, mslope = _lower_two(fs[0], -f.slope_before_first,
                                  gs[0], -g.slope_before_first,
                                  -grid[0], math.inf)
    pts = [(-x, v) for x, v in reversed(mirrored[1:])]
    for a, b, fa, fb, ga, gb in zip(grid, grid[1:], fs, fs[1:], gs, gs[1:]):
        pts.extend(_lower_two(fa, (fb - fa) / (b - a),
                              ga, (gb - ga) / (b - a), a, b)[0])
    verts, slope_after = _lower_two(fs[-1], f.slope_after_last,
                                    gs[-1], g.slope_after_last,
                                    grid[-1], math.inf)
    pts.extend(verts)
    return _drop_redundant_ends(from_points(pts, -mslope, slope_after))


def _bits(f):
    return ([t.hex() for t in f.times], [v.hex() for v in f.values],
            f.slope_before_first.hex(), f.slope_after_last.hex())


@st.composite
def close_candidates(draw):
    """Two functions on breakpoints drawn from one shared pool, each a copy
    of one base function shifted by an offset per breakpoint: zero gives
    exact ties at grid points, tiny offsets near-parallel pieces that may
    cross."""
    scale = draw(st.sampled_from([1.0, 100.0, 1e4]))
    base = draw(piecewise_linear())
    pool = sorted(set(base.times) | set(draw(st.lists(
        st.floats(min_value=-12.0, max_value=12.0), max_size=4))))
    if any(b - a < 1e-3 for a, b in zip(pool, pool[1:])):
        pool = list(base.times)
    offsets = st.sampled_from(
        [0.0, 0.0, 1e-13, -1e-13, 1e-12, -3e-12, 1e-10, 1e-7, 0.25, -0.5])
    fns = []
    for _ in range(2):
        times = sorted(draw(st.sets(st.sampled_from(pool), min_size=1)))
        values = [scale * (base(t) + draw(offsets)) for t in times]
        slopes = [s + draw(offsets) for s in (base.slope_before_first,
                                              base.slope_after_last)]
        fns.append(PiecewiseLinearFn(tuple(scale * t for t in times),
                                     tuple(values), *slopes))
    return fns


def _steepest(fns):
    """The largest absolute slope of any piece or tail of ``fns``."""
    slopes = [s for f in fns for s in (f.slope_before_first,
                                       f.slope_after_last)]
    for f in fns:
        slopes += [(v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in zip(
            f.times, f.times[1:], f.values, f.values[1:])]
    return max(map(abs, slopes))


def assert_lower_envelope(m, fns):
    """``m`` equals min(fns) at every breakpoint, at the midpoints between
    them and one unit beyond both ends.  Between two neighbouring breakpoints
    m is linear and min(fns) concave, so agreeing at both ends and the
    midpoint they agree throughout.  Values compare relatively to their size
    and to the steepest slope times the time, the error that a float step in
    time makes."""
    grid = sorted(set(m.times).union(*(f.times for f in fns)))
    ts = grid + [0.5 * (a + b) for a, b in zip(grid, grid[1:])]
    ts += [grid[0] - 1.0, grid[-1] + 1.0]
    steep = _steepest(fns)
    for t in ts:
        want = min(f(t) for f in fns)
        assert abs(m(t) - want) <= EPS * max(1.0, abs(want), steep * abs(t)), t


@settings(max_examples=400, deadline=None)
@given(st.one_of(close_candidates(),
                 st.lists(piecewise_linear(), min_size=2, max_size=2)))
# one candidate is lowest on the whole grid interval; the full sweep finds
# a crossing one float step before its end, which cannot be there
@example([PiecewiseLinearFn((-63750.0,), (0.0,), 2.5, 0.0),
          PiecewiseLinearFn((21079.00797529327,), (0.0,), 2.5, 0.0)])
def test_property_min_is_bit_identical_to_a_full_sweep(fns):
    # pointwise_min skips the crossing search on intervals that one
    # candidate dominates.  Where the sweep finds a crossing there anyway,
    # it is float rounding near a grid point and the results differ in the
    # last bits of a time; the skipping one is then checked to be the exact
    # envelope.
    got = pointwise_min(*fns)
    if _bits(got) != _bits(_full_sweep_min(*fns)):
        assert_lower_envelope(got, fns)


@settings(max_examples=80, deadline=None)
@given(piecewise_linear(), piecewise_linear(monotone=True),
       close_candidates())
def test_property_algebra_results_are_valid_floats(outer, inner, fns):
    results = [compose_monotone(outer, inner), pointwise_min(*fns),
               prune(inner), prune(outer)]
    results += [prune(f) for f in fns]
    for g in results:
        assert type(g.times) is tuple and type(g.values) is tuple
        assert all(type(x) is float for x in g.times + g.values + (
            g.slope_before_first, g.slope_after_last))
        assert g == PiecewiseLinearFn(g.times, g.values, g.slope_before_first,
                                      g.slope_after_last)


def restriction_starts(times):
    """Starts before, after, on and within EPS of the breakpoints."""
    near = st.builds(lambda t, d: t + d, st.sampled_from(times),
                     st.floats(min_value=-EPS, max_value=EPS))
    return st.one_of(
        st.floats(min_value=times[0] - 20.0, max_value=times[0]),
        st.floats(min_value=times[-1], max_value=times[-1] + 20.0),
        st.sampled_from(times), near,
        st.floats(min_value=times[0], max_value=times[-1]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_property_restrict_from_keeps_f_from_start_on(data):
    f = data.draw(st.one_of(piecewise_linear(),
                            piecewise_linear(monotone=True)))
    start = data.draw(restriction_starts(f.times))
    g = restrict_from(f, start)
    assert g.times[0] == start and g.slope_before_first == 0.0
    assert g.slope_after_last == f.slope_after_last
    # bit for bit at start and at f's later breakpoints
    later = [t for t in f.times if t > start]
    assert list(g.times[1:]) == later
    k = len(f.times) - len(later)  # f's first breakpoint after start
    first = f.values[k - 1] if start in f.times else f(start)
    assert [v.hex() for v in g.values] == [
        v.hex() for v in (first,) + f.values[k:]]
    for t in [start] + later:
        assert g(t) == f(t)
    # and f elsewhere on [start, inf), up to rounding
    end = max(f.times[-1], start) + 20.0
    ts = data.draw(st.lists(st.floats(min_value=start, max_value=end),
                            max_size=20))
    for t in ts:
        assert abs(g(t) - f(t)) <= EPS * max(1.0, abs(f(t)))
    if f.is_nondecreasing():
        assert g.is_nondecreasing()
    assert g == PiecewiseLinearFn(g.times, g.values, g.slope_before_first,
                                  g.slope_after_last)
    # a function that already starts there with a flat tail is kept
    assert restrict_from(g, start) is g


def test_restrict_from_edges():
    f = PiecewiseLinearFn((0.0, 2.0), (1.0, 5.0), 1.0, 3.0)
    g = restrict_from(f, 1.0)
    assert (g.times, g.values, g.slope_before_first, g.slope_after_last) == (
        (1.0, 2.0), (3.0, 5.0), 0.0, 3.0)
    assert g(-4.0) == 3.0  # flat before the start
    assert restrict_from(f, 7.0).times == (7.0,)
    flat = PiecewiseLinearFn((0.0, 2.0), (1.0, 5.0), 0.0, 3.0)
    assert restrict_from(flat, 0.0) is flat
    # on a breakpoint the breakpoint itself is kept, signed zero included
    zero = PiecewiseLinearFn((0.0, 1.0), (-0.0, -0.0), 1.0, 0.0)
    assert [v.hex() for v in restrict_from(zero, 1.0).values] == ["-0x0.0p+0"]
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite"):
            restrict_from(f, bad)


# ----------------------------------------------------------- tolerance policy


SRC = Path(__file__).parent.parent / "src" / "dpeflow"

# Every float literal in (0, 1e-6) in the package, by file and enclosing
# function (or module-level name).  Internal comparisons use pwl.EPS; only
# user-facing defaults and regression-fit numerics may carry their own.
SMALL_LITERALS = sorted([
    ("network.py", "ACTIVE_TOLERANCE", 1e-9),   # default active_tolerance
    ("predictors.py", "train_regression", 1e-8),  # ridge default
    ("predictors.py", "train_regression", 1e-9),  # arange slack on the grid
    ("pwl.py", "EPS", EPS),
    ("simulation.py", "audit_ide", 1e-9),        # default audit tol
])


def _small_float_literals(path):
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name
            elif isinstance(child, ast.Assign) and scope is None:
                inner = getattr(child.targets[0], "id", None)
            if (isinstance(child, ast.Constant) and type(child.value) is float
                    and 0.0 < child.value < 1e-6):
                found.append((path.name, scope, child.value))
            walk(child, inner)

    walk(ast.parse(path.read_text()), None)
    return found


def test_one_internal_tolerance():
    found = sorted(lit for path in sorted(SRC.glob("*.py"))
                   for lit in _small_float_literals(path))
    assert found == SMALL_LITERALS


def test_trusted_construction_stays_in_pwl():
    # results of the algebra skip validation; functions built from caller,
    # scenario or flow data anywhere else go through PiecewiseLinearFn(...)
    for path in sorted(SRC.glob("*.py")):
        if path.name == "pwl.py":
            continue
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
        names |= {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)}
        assert not names & {"_trusted", "__new__"}, path.name


def test_every_imported_name_is_read():
    # no linter runs on the package, so this stands in for its F401 check;
    # an import kept on purpose says so with ``# noqa: F401`` on its line
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue   # imports there are the package's exports
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    assert name in read, f"{path.name}:{alias.lineno} {name}"


def test_every_private_definition_is_read():
    # a private function, class or method that the package never reads is
    # dead code, even when a test still calls it
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and node.name.startswith("_") \
                    and not node.name.endswith("__"):
                defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    assert [d for d in defined if d[2] not in read] == []
