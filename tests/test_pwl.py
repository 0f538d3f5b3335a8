import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpeflow.pwl import (
    EPS,
    DomainError,
    NotMonotoneError,
    PiecewiseLinearFn,
    RightConstantFn,
    _sample,
    compose_monotone,
    constant_fn,
    from_points,
    identity_fn,
    linear_combination,
    pointwise_min,
    prune,
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
    m = pointwise_min([f, g])
    for t in dense_grid(-2.0, 4.0):
        assert m(t) == pytest.approx(min(t, 1.0), abs=1e-9)


def test_min_dense_oracle_three_functions():
    fns = [
        PiecewiseLinearFn((0.0, 1.0, 2.5), (2.0, 0.5, 3.0), -0.5, 2.0),
        PiecewiseLinearFn((0.5, 2.0), (1.0, 1.0), 0.0, -0.25),
        PiecewiseLinearFn((-1.0, 3.0), (4.0, -2.0), 0.0, 0.0),
    ]
    m = pointwise_min(fns)
    for t in dense_grid(-4.0, 6.0, 4001):
        assert m(t) == pytest.approx(min(f(t) for f in fns), abs=1e-8)


def test_min_of_almost_parallel_tails_stays_put():
    # slope gap of a few ulp is noise, not a crossing at value_gap / gap
    f = PiecewiseLinearFn((0.0,), (6.0,), 1.0, 1.0)
    g = PiecewiseLinearFn((0.0,), (6.0483,), 1.0, 1.0 - 2e-15)
    m = pointwise_min([f, g])
    assert all(abs(t) < 1e3 for t in m.times)
    for t in (-50.0, 0.0, 50.0, 1e6):
        assert m(t) == pytest.approx(t + 6.0, abs=1e-9)


def test_min_empty_list_raises():
    with pytest.raises(ValueError):
        pointwise_min([])


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
    m = pointwise_min(fns)
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
