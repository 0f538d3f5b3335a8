import json
import math

import numpy as np
import pytest

from dpeflow.flow_state import FlowOverTime
from dpeflow.network import Network, PredictorParams
from dpeflow import predictors
from dpeflow.predictors import (
    ConstantPredictor,
    LinearPredictor,
    PerfectPredictor,
    PredictorModeError,
    QueueHistory,
    RegressionModel,
    RegressionPredictor,
    RegularizedLinearPredictor,
    ThresholdPredictor,
    PredictedQueue,
    ZeroPredictor,
    build_predictor,
    exit_time_fn,
    fifo_fix,
    train_regression,
)
from dpeflow.pwl import PiecewiseLinearFn, constant_fn, from_points


class FakeState:
    """Stand-in flow state exposing prescribed queue trajectories."""

    def __init__(self, network, queue_fns):
        self.network = network
        self._fns = queue_fns

    def queue_at(self, edge_id, t):
        return max(self._fns[edge_id](t), 0.0)

    def queue_fn(self, edge_id):
        return self._fns[edge_id]

    def queue_left_slope(self, edge_id, t):
        fn = self._fns[edge_id]
        return fn.left_slope(min(t, fn.times[-1]))


def pl(points, slope_after=0.0):
    ts, vs = zip(*points)
    return PiecewiseLinearFn(ts, vs, 0.0, slope_after)


NET1 = Network(["a", "b"], [("a", "b", 1.0, 1.0)])


def history(fn, now, net=NET1):
    return QueueHistory(FakeState(net, {0: fn}), now)


# ------------------------------------------------------------ basic predictors


def test_zero_predictor_is_flat_zero():
    h = history(pl([(0.0, 0.0), (5.0, 5.0)]), 5.0)
    p = ZeroPredictor().predict(h, 0)
    assert p(5.0) == 0.0 and p(100.0) == 0.0


@pytest.mark.parametrize("queue", [
    pl([(0.0, 0.0)]),                            # never used
    pl([(0.0, 0.0), (1.0, 2.0), (3.0, 0.0)]),    # drained by time 3
])
def test_every_live_predictor_forecasts_an_empty_edge_as_the_shared_zero(
        queue):
    h = history(queue, 6.0)
    predictors = [
        ZeroPredictor(), ConstantPredictor(), ThresholdPredictor(),
        LinearPredictor(), LinearPredictor(prediction_horizon=2.0),
        RegularizedLinearPredictor(),
        RegressionPredictor(RegressionModel.copy_last_value(
            samples=3, sample_step=1.0, neighborhood_radius=1)),
    ]
    for pred in predictors:
        assert pred.predict(h, 0).fn is constant_fn(0.0), pred.kind
    # a queued edge gets a forecast of its own from all but the zero predictor
    busy = history(pl([(0.0, 1.0)]), 6.0)
    for pred in predictors[1:]:
        assert pred.predict(busy, 0).fn is not constant_fn(0.0), pred.kind


def test_constant_predictor_freezes_current_value():
    h = history(pl([(0.0, 0.0), (5.0, 2.5)]), 5.0)
    p = ConstantPredictor().predict(h, 0)
    assert p(5.0) == pytest.approx(2.5)
    assert p(50.0) == pytest.approx(2.5)


def test_history_refuses_future_queries():
    h = history(pl([(0.0, 0.0), (5.0, 2.5)]), 3.0)
    with pytest.raises(PredictorModeError):
        h.queue(0, 3.5)
    assert h.queue(0, -2.0) == 0.0  # clamped to the initial value


def test_history_left_slope():
    q = pl([(0.0, 0.0), (2.0, 2.0), (4.0, 1.0)], slope_after=0.5)
    assert history(q, 2.0).left_slope(0) == pytest.approx(1.0)  # breakpoint
    assert history(q, 3.0).left_slope(0) == pytest.approx(-0.5)  # between
    # past the last breakpoint: the last piece, not the extrapolation slope
    assert history(q, 6.0).left_slope(0) == pytest.approx(-0.5)


def test_linear_predictor_extrapolates_and_caps():
    # queue rising at slope 0.5, horizon 4: forecast rises then freezes
    h = history(pl([(0.0, 0.0), (6.0, 3.0)], slope_after=0.5), 6.0)
    p = LinearPredictor(prediction_horizon=4.0).predict(h, 0)
    assert p(6.0) == pytest.approx(3.0)
    assert p(8.0) == pytest.approx(4.0)
    assert p(10.0) == pytest.approx(5.0)
    assert p(20.0) == pytest.approx(5.0)


def test_linear_predictor_zero_crossing():
    h = history(pl([(0.0, 4.0), (2.0, 2.0)], slope_after=-1.0), 2.0)
    p = LinearPredictor(prediction_horizon=10.0).predict(h, 0)
    assert p(2.0) == pytest.approx(2.0)
    assert p(3.0) == pytest.approx(1.0)
    assert p(4.0) == 0.0
    assert p(9.0) == 0.0  # clamped, never negative


def test_linear_predictor_is_discontinuous_in_the_history():
    # two histories within 1e-6 of each other, forecasts 1.0 apart
    mu = 9e-7
    up = pl([(0.0, 0.0), (2.0, 1.0)])
    down = pl([(0.0, 0.0), (2.0 - mu, 1.0 - mu / 2.0), (2.0, 1.0 - mu)])
    gap = max(abs(up(t) - down(t)) for t in
              [0.0, 1.0, 2.0 - mu, 2.0 - mu / 2, 2.0])
    assert gap <= 1e-6
    pred = LinearPredictor(prediction_horizon=10.0)
    a = pred.predict(history(up, 2.0), 0)
    b = pred.predict(history(down, 2.0), 0)
    assert abs(a(3.0) - b(3.0)) >= 0.1  # 1.5 vs ~0.5


def test_regularized_linear_uses_backward_difference():
    # same down-kink as above barely moves the regularized forecast
    mu = 1e-6
    up = pl([(0.0, 0.0), (2.0, 1.0)])
    down = pl([(0.0, 0.0), (2.0 - mu, 1.0 - mu / 2.0), (2.0, 1.0 - mu)])
    pred = RegularizedLinearPredictor(delta=1.0, prediction_horizon=10.0)
    a = pred.predict(history(up, 2.0), 0)
    b = pred.predict(history(down, 2.0), 0)
    assert a(3.0) == pytest.approx(1.5)
    assert abs(a(3.0) - b(3.0)) <= 1e-5


def test_regularized_linear_continuity_modulus():
    # |p_u - p_v| <= (1 + (dt + 2)/delta) * ||u - v|| for dt in [0, 2]
    import numpy as np
    rng = np.random.default_rng(7)
    delta = 0.5
    for _ in range(25):
        ts = np.sort(np.concatenate([[0.0], rng.uniform(0.1, 6.0, 4), [6.0]]))
        u_vals = rng.uniform(0.0, 3.0, len(ts))
        bump = rng.uniform(-0.05, 0.05, len(ts))
        u = pl(list(zip(ts, u_vals)))
        v = pl(list(zip(ts, u_vals + bump)))
        sup = max(abs(u(t) - v(t)) for t in np.linspace(0.0, 6.0, 400))
        pred = RegularizedLinearPredictor(delta=delta)
        pu = pred.predict(history(u, 6.0), 0)
        pv = pred.predict(history(v, 6.0), 0)
        for dt in np.linspace(0.0, 2.0, 21):
            bound = (1.0 + (dt + 2.0) / delta) * sup
            assert abs(pu(6.0 + dt) - pv(6.0 + dt)) <= bound + 1e-12


def test_predictors_are_oblivious_to_the_future():
    # histories agree up to now and diverge after: identical forecasts
    shared = [(0.0, 0.0), (4.0, 2.0)]
    u = pl(shared + [(6.0, 0.0)])
    v = pl(shared + [(6.0, 9.0)])
    for pred in (ZeroPredictor(), ConstantPredictor(),
                 LinearPredictor(10.0), RegularizedLinearPredictor(1.0, 10.0),
                 ThresholdPredictor()):
        a = pred.predict(history(u, 4.0), 0)
        b = pred.predict(history(v, 4.0), 0)
        assert a.fn.times == b.fn.times
        assert a.fn.values == b.fn.values


def test_threshold_predictor_jumps_at_one():
    below = history(pl([(0.0, 0.999)]), 0.0)
    at = history(pl([(0.0, 1.0)]), 0.0)
    assert ThresholdPredictor().predict(below, 0)(5.0) == pytest.approx(0.999)
    assert ThresholdPredictor().predict(at, 0)(5.0) == 2.0


def test_threshold_high_value_is_a_queue_length():
    # a negative forecast queue would make exit times shorter than the
    # transit time, or rewind time; a direct library call is refused too
    for bad in (-3.0, -50, -1e-300, math.inf, math.nan):
        with pytest.raises(ValueError, match="high_value is a queue length"):
            ThresholdPredictor(0.5, bad)
        with pytest.raises(ValueError, match="high_value is a queue length"):
            build_predictor({"kind": "threshold", "high_value": bad},
                            PredictorParams())
    at = history(pl([(0.0, 1.0)]), 0.0)
    assert ThresholdPredictor(0.5, 0.0).predict(at, 0)(5.0) == 0.0


def test_perfect_predictor_requires_final_state():
    h = history(pl([(0.0, 1.0)]), 0.0)
    with pytest.raises(PredictorModeError, match="decision loop"):
        PerfectPredictor().predict(h, 0)
    fn = pl([(0.0, 1.0), (3.0, 4.0)])
    p = PerfectPredictor(FakeState(NET1, {0: fn})).predict(h, 0)
    assert p(2.0) == pytest.approx(3.0)  # the realized future, not a guess


# ------------------------------------------------------------------- exit time


def test_exit_time_fn_shifts_and_scales():
    h = history(pl([(0.0, 0.0), (5.0, 2.0)]), 5.0)
    p = ConstantPredictor().predict(h, 0)
    T = exit_time_fn(p, transit_time=1.5, capacity=2.0)
    assert T(5.0) == pytest.approx(5.0 + 1.5 + 1.0)
    assert T(7.0) == pytest.approx(7.0 + 1.5 + 1.0)
    assert T.is_nondecreasing()


def test_fifo_fix_lifts_violating_points():
    pts = [(0.0, 2.0), (1.0, 0.0), (2.0, 0.0)]
    fixed, n = fifo_fix(pts, capacity=1.0)
    assert n == 1
    assert fixed[0] == (0.0, 2.0)
    assert fixed[1] == (1.0, pytest.approx(1.0))  # lifted so exit time holds
    assert fixed[2] == (2.0, 0.0)
    exits = [t + q for t, q in fixed]
    assert exits == sorted(exits)


def test_fifo_fix_keeps_monotone_input_untouched():
    pts = [(0.0, 0.5), (1.0, 1.0), (2.0, 1.2)]
    fixed, n = fifo_fix(pts, capacity=1.0)
    assert n == 0 and fixed == pts


# ------------------------------------------------------------------ regression


def affine_flow(rate=1.5, capacity=1.0, horizon=40.0):
    net = Network(["a", "b"], [("a", "b", 1.0, capacity)])
    state = FlowOverTime(net, 1)
    state.assign_inflow(0, 0, rate)
    state.advance(horizon)
    return state


def test_regression_recovers_affine_dynamics_exactly():
    state = affine_flow()  # q(t) = 0.5 t
    model = train_regression(state, lags=2, samples=10, sample_step=1.0,
                             neighborhood_radius=2, grid_step=1.0)
    assert model.scores[0] >= 1.0 - 1e-6
    pred = RegressionPredictor(model)
    p = pred.predict(QueueHistory(state, 20.0), 0)
    for j in range(11):
        assert p(20.0 + j) == pytest.approx(10.0 + 0.5 * j, abs=1e-4)
    assert p.fifo_fixes == 0


def test_regression_shared_model_across_edges():
    net = Network(["a", "b", "c"],
                  [("a", "b", 1.0, 1.0), ("a", "c", 1.0, 1.0)])
    state = FlowOverTime(net, 1)
    state.assign_inflow(0, 0, 1.5)
    state.assign_inflow(0, 1, 2.0)
    state.advance(40.0)
    model = train_regression(state, lags=2, samples=5, sample_step=1.0,
                             neighborhood_radius=2, shared=True)
    assert model.scores[-1] >= 1.0 - 1e-6
    pred = RegressionPredictor(model)
    p0 = pred.predict(QueueHistory(state, 20.0), 0)
    p1 = pred.predict(QueueHistory(state, 20.0), 1)
    assert p0(25.0) == pytest.approx(12.5, abs=1e-4)   # slope 0.5
    assert p1(25.0) == pytest.approx(25.0, abs=1e-4)   # slope 1.0


def test_copy_model_repeats_last_observation():
    state = affine_flow()
    model = RegressionModel.copy_last_value(samples=4, sample_step=1.0,
                                            neighborhood_radius=2)
    p = RegressionPredictor(model).predict(QueueHistory(state, 20.0), 0)
    # anchored at q(20) = 10, then flat at q(19) = 9.5
    assert p(20.0) == pytest.approx(10.0)
    for j in range(1, 5):
        assert p(20.0 + j) == pytest.approx(9.5)


def test_regression_forecast_respects_fifo_after_fix():
    # a model built to predict a cliff: the fix keeps exit times monotone
    model = RegressionModel(
        lags=1, samples=3, sample_step=1.0, neighborhood_radius=0,
        coefficients={-1: [[5.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    fn = pl([(0.0, 0.0), (10.0, 0.0)])
    p = RegressionPredictor(model).predict(history(fn, 10.0), 0)
    assert p.fifo_fixes >= 1
    T = exit_time_fn(p, transit_time=1.0, capacity=1.0)
    assert T.is_nondecreasing()


def per_edge_forecast(model, history, edge_id):
    """The regression forecast of one edge, one dot product per sample."""
    now = history.now
    edge = history.edge(edge_id)
    neighbors = [e.id for e in history.in_edges(edge.tail)
                 if e.id != edge_id][: model.neighborhood_radius]
    feats = []
    for eid in [edge_id] + neighbors:
        for lag in range(1, model.lags + 1):
            feats.append(history.queue(eid, now - lag * model.sample_step))
    feats.extend([0.0] * ((model.neighborhood_radius - len(neighbors))
                          * model.lags))
    pts = [(now, history.queue(edge_id, now))]
    coef = model.coefficients_for(edge_id)
    for j in range(1, model.samples + 1):
        row = coef[j - 1]
        val = row[0] + sum(c * x for c, x in zip(row[1:], feats))
        pts.append((now + j * model.sample_step, max(val, 0.0)))
    pts, fixes = fifo_fix(pts, edge.capacity)
    return PredictedQueue(edge_id, now, from_points(pts, slope_after=0.0),
                          fifo_fixes=fixes)


def hexed(predicted):
    f = predicted.fn
    return ([x.hex() for x in (*f.times, *f.values, f.slope_before_first,
                               f.slope_after_last)],
            f is constant_fn(0.0), predicted.fifo_fixes)


# tails with no, one, two and three in-edges; a parallel pair
BATCH_NET = Network(["a", "b", "c", "d"],
                    [("a", "b", 1.0, 1.0), ("b", "c", 1.0, 2.0),
                     ("c", "d", 1.0, 0.5), ("d", "b", 1.0, 1.5),
                     ("a", "c", 1.0, 1.0), ("c", "b", 1.0, 1.0),
                     ("d", "c", 1.0, 3.0), ("d", "c", 1.0, 1.0)])


def random_queue(rng):
    ts = np.unique(np.round(rng.uniform(0.0, 12.0, 5), 2))
    qs = np.round(rng.uniform(-1.0, 6.0, len(ts)), 2)
    return PiecewiseLinearFn(tuple(ts.tolist()), tuple(qs.tolist()), 0.0,
                             float(rng.uniform(-0.5, 0.5)))


@pytest.mark.parametrize("seed", range(8))
def test_batched_regression_matches_the_per_edge_formula(seed):
    rng = np.random.default_rng(seed)
    lags, samples = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    radius = int(rng.integers(0, 4))
    width = 1 + (1 + radius) * lags

    def rows():
        return rng.normal(0.0, 1.0, (samples, width)).round(3).tolist()

    fns = {e.id: random_queue(rng) for e in BATCH_NET.edges}
    # an edge empty to date, whose samples are -0.0 (queue_at clamps with
    # max, which keeps the sign) and an intercept of -0.0 on that edge
    fns[3] = PiecewiseLinearFn((0.0, 20.0), (-0.0, -0.0), 0.0, 0.0)
    coefficients = {e.id: rows() for e in BATCH_NET.edges if e.id != 5}
    coefficients[3][0][0] = -0.0
    shared = {-1: rows()}
    step = float(rng.choice([0.5, 1.0, 1.5]))
    for coef in (coefficients, shared, {**shared, **coefficients}):
        model = RegressionModel(lags, samples, step, radius, coef)
        state = FakeState(BATCH_NET, fns)
        reads = []
        queue_at = state.queue_at

        def counted(eid, t):
            reads.append((eid, t))
            return queue_at(eid, t)

        state.queue_at = counted
        now = float(rng.uniform(0.0, 14.0))
        history = QueueHistory(state, now)
        batched = RegressionPredictor(model)
        for e in BATCH_NET.edges:
            want = None
            if -1 in coef or e.id in coef:
                want = per_edge_forecast(
                    model, QueueHistory(FakeState(BATCH_NET, fns), now), e.id)
            if want is None:
                # only the edge without coefficients raises, when forecast
                with pytest.raises(ValueError, match="no coefficients for "
                                   f"edge {e.id} "):
                    batched.predict(history, e.id)
            else:
                assert hexed(batched.predict(history, e.id)) == hexed(want)
        # q(now) and each lag of each edge, read once
        assert len(reads) == len(BATCH_NET.edges) * (1 + lags)
        assert hexed(batched.predict(history, 3))[1] is False


@pytest.mark.parametrize("seed", range(4))
def test_regression_idle_edges_skip_the_fix(seed, monkeypatch):
    # most edges empty (+0.0) to date: edge 0 holds a queue, edge 3 reads
    # -0.0, and edge 4 (a -> c) has no in-edges at its tail
    rng = np.random.default_rng(seed)
    lags, samples = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    radius = int(rng.integers(0, 4))
    empty = PiecewiseLinearFn((0.0, 20.0), (0.0, 0.0), 0.0, 0.0)
    fns = {e.id: empty for e in BATCH_NET.edges}
    fns[0] = PiecewiseLinearFn((0.0, 20.0), (1.0, 3.0), 0.0, 0.0)
    fns[3] = PiecewiseLinearFn((0.0, 20.0), (-0.0, -0.0), 0.0, 0.0)
    width = 1 + (1 + radius) * lags
    # weights only, so that an empty neighbourhood predicts +0.0
    coef = {-1: (rng.normal(0.0, 1.0, (samples, width)).round(3)
                 * ([0.0] + [1.0] * (width - 1))).tolist()}
    model = RegressionModel(lags, samples, 1.0, radius, coef)
    now = float(rng.uniform(10.0, 14.0))
    want = {e.id: per_edge_forecast(
        model, QueueHistory(FakeState(BATCH_NET, fns), now), e.id)
        for e in BATCH_NET.edges}

    fixed = []
    fix = predictors.fifo_fix
    monkeypatch.setattr(predictors, "fifo_fix",
                        lambda pts, cap: fixed.append(pts) or fix(pts, cap))
    history = QueueHistory(FakeState(BATCH_NET, fns), now)
    batched = RegressionPredictor(model)
    got = {e.id: batched.predict(history, e.id) for e in BATCH_NET.edges}
    assert {k: hexed(p) for k, p in got.items()} \
        == {k: hexed(p) for k, p in want.items()}
    idle = {k for k, p in want.items() if p.fn is constant_fn(0.0)}
    assert len(fixed) == len(BATCH_NET.edges) - len(idle)
    assert 4 in idle and 0 not in idle and 3 not in idle


def test_model_save_load_round_trip(tmp_path):
    state = affine_flow()
    model = train_regression(state, lags=2, samples=3, sample_step=1.0,
                             neighborhood_radius=1)
    path = tmp_path / "model.json"
    model.save(path)
    back = RegressionModel.load(path)
    assert back.coefficients == model.coefficients
    assert back.samples == model.samples
    assert back.scores == pytest.approx(model.scores)


def test_model_load_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="dpe-model/1"):
        RegressionModel.load(path)


def copy_model_file(tmp_path, **changes):
    model = RegressionModel.copy_last_value(samples=2, sample_step=1.0,
                                            neighborhood_radius=1)
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("coefficients", [
    {"-1": [[0.0, 1.0], [0.0, 1.0]]},                        # rows too short
    {"-1": [[0.0, 1.0, 0.0, 0.0, 0.0, 0.0]] * 3},            # too many rows
    {"-1": [[0.0, 1.0, 0.0, 0.0, 0.0, 0.0]]
     + [[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]},               # row too long
    {"-1": [[0.0, 1.0, 0.0, 0.0, "x"]] * 2},                 # not a number
    {"-1": [[0.0, 1.0, 0.0, 0.0, math.inf]] * 2},            # not finite
    {"3": "rows"},
])
def test_model_load_checks_coefficient_shapes(tmp_path, coefficients):
    # 2 samples, each 1 + (1 + 1) * 2 = 5 numbers wide
    path = copy_model_file(tmp_path, coefficients=coefficients)
    with pytest.raises(ValueError, match="must be 2 rows of 5 finite numbers"):
        RegressionModel.load(path)
    good = {"-1": [[0.0, 1.0, 0.0, 0.0, 0.0]] * 2}
    assert RegressionModel.load(copy_model_file(tmp_path, coefficients=good))


@pytest.mark.parametrize("field, value, message", [
    ("lags", None, "lags must be an integer >= 1, got None"),
    ("lags", "2", "lags must be an integer >= 1, got '2'"),
    ("samples", 0, "samples must be an integer >= 1, got 0"),
    ("neighborhood_radius", 1.5, "neighborhood_radius must be an integer"),
    ("sample_step", -1.0, "sample_step must be finite and > 0, got -1.0"),
    ("coefficients", [], "coefficients must be an object"),
])
def test_model_load_checks_its_fields(tmp_path, field, value, message):
    path = copy_model_file(tmp_path, **{field: value})
    with pytest.raises(ValueError, match=message):
        RegressionModel.load(path)


def test_model_without_an_edge_or_shared_set_names_the_edge(tmp_path):
    path = copy_model_file(
        tmp_path, coefficients={"0": [[0.0, 1.0, 0.0, 0.0, 0.0]] * 2})
    model = RegressionModel.load(path)
    assert model.coefficients_for(0)
    with pytest.raises(ValueError, match="no coefficients for edge 1 "):
        model.coefficients_for(1)


def test_training_needs_a_long_enough_trace():
    state = affine_flow(horizon=5.0)
    with pytest.raises(ValueError, match="too short"):
        train_regression(state, lags=2, samples=10, sample_step=1.0)


# --------------------------------------------------------------------- factory


def test_build_predictor_dispatch():
    params = PredictorParams(delta=0.5, prediction_horizon=8.0,
                             samples=4, sample_step=1.0, neighborhood_radius=2)
    assert isinstance(build_predictor({"kind": "zero"}, params), ZeroPredictor)
    assert isinstance(build_predictor({"kind": "constant"}, params),
                      ConstantPredictor)
    lin = build_predictor({"kind": "linear"}, params)
    assert lin.prediction_horizon == 8.0
    reg = build_predictor({"kind": "reg_linear", "delta": 2.0}, params)
    assert reg.delta == 2.0 and reg.prediction_horizon == 8.0
    thr = build_predictor({"kind": "threshold", "threshold": 0.5}, params)
    assert thr.threshold == 0.5
    r = build_predictor({"kind": "regression"}, params)
    assert isinstance(r, RegressionPredictor)
    assert r.model.samples == 4
    with pytest.raises(ValueError, match="unknown predictor"):
        build_predictor({"kind": "nope"}, params)


def test_build_predictor_loads_model_from_file(tmp_path):
    state = affine_flow()
    model = train_regression(state, lags=1, samples=2, sample_step=1.0,
                             neighborhood_radius=0)
    model.save(tmp_path / "m.json")
    params = PredictorParams()
    pred = build_predictor({"kind": "regression", "model": "m.json"},
                           params, base_dir=tmp_path)
    assert pred.model.lags == 1


@pytest.mark.parametrize("base_dir", [None, "."])
def test_build_predictor_rejects_a_model_that_is_no_path(base_dir):
    with pytest.raises(ValueError, match=r"^predictor.model must be a "
                                         r"string, got 5$"):
        build_predictor({"kind": "regression", "model": 5},
                        PredictorParams(), base_dir=base_dir)
