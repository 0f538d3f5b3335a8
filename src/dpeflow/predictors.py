"""Queue predictors.

Each predictor maps the observed queue history of the network, as seen at a
prediction time, to a piecewise linear forecast of one edge's queue length.
Predictors are oblivious: the forecast may depend only on queue values at or
before the prediction time.  The :class:`QueueHistory` wrapper enforces this
by construction, so a predictor cannot accidentally peek ahead.

Forecasts feed the routing layer through :func:`exit_time_fn`, which turns a
predicted queue into a predicted exit time ``t + transit_time + q(t)/capacity``.
Exit times must be non-decreasing for the first-in-first-out order to make
sense; predictors whose raw output would violate that (the regression family)
are post-processed by :func:`fifo_fix`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .pwl import (
    EPS,
    PiecewiseLinearFn,
    constant_fn,
    from_points,
)


class PredictorModeError(Exception):
    """Raised when a predictor is used outside its supported mode."""


class QueueHistory:
    """Read-only view of observed queues, truncated at the prediction time.

    Queries strictly after ``now`` raise; queries before time zero return the
    initial value.  Predictors receive only this view, never the live state.
    """

    __slots__ = ("_state", "now")

    def __init__(self, state, now: float):
        self._state = state
        self.now = now

    def queue(self, edge_id: int, t: float) -> float:
        if t > self.now + EPS:
            raise PredictorModeError(
                f"queried queue at {t} past prediction time {self.now}")
        return self._state.queue_at(edge_id, max(t, 0.0))

    def left_slope(self, edge_id: int) -> float:
        """Left derivative of the queue at the prediction time; past the
        last recorded breakpoint, the slope of the last piece."""
        return self._state.queue_left_slope(edge_id, self.now)

    @property
    def edges(self):
        return self._state.network.edges

    def in_edges(self, node: str):
        return self._state.network.in_edges[node]

    def edge(self, edge_id: int):
        return self._state.network.edges[edge_id]


class PredictedQueue(NamedTuple):
    """A queue forecast for one edge, valid from the prediction time on."""

    edge_id: int
    prediction_time: float
    fn: PiecewiseLinearFn
    fifo_fixes: int = 0

    def __call__(self, t: float) -> float:
        return self.fn(t)


def exit_time_fn(predicted: PredictedQueue, transit_time: float,
                 capacity: float) -> PiecewiseLinearFn:
    """Predicted exit time t + transit_time + q(t)/capacity as a PL function."""
    q = predicted.fn
    values = tuple(t + transit_time + v / capacity
                   for t, v in zip(q.times, q.values))
    return PiecewiseLinearFn(
        q.times, values,
        slope_before_first=1.0 + q.slope_before_first / capacity,
        slope_after_last=1.0 + q.slope_after_last / capacity)


def fifo_fix(points: list[tuple[float, float]], capacity: float) -> tuple[list[tuple[float, float]], int]:
    """Raise later forecast points so predicted exit times never decrease.

    The exit time induced by point (t, q) is t + q/capacity (up to the
    constant transit time).  A forward pass lifts any point whose exit time
    would fall below its predecessor's.  Returns the fixed points and how
    many needed lifting.
    """
    fixed = []
    fixes = 0
    best = -math.inf
    for t, q in points:
        q = max(q, 0.0)
        exit_val = t + q / capacity
        if exit_val < best - EPS:
            q = (best - t) * capacity
            fixes += 1
            exit_val = best
        best = max(best, exit_val)
        fixed.append((t, q))
    return fixed, fixes


def _extrapolate(now: float, q_now: float, dq: float,
                 horizon: float) -> PiecewiseLinearFn:
    """Positive part of q_now + dq * min(t - now, horizon) as a PL function."""
    pts = [(now, q_now)]
    if dq < 0.0 and q_now > 0.0:
        hit = now + q_now / (-dq)
        cap_t = now + horizon
        # the slope freezes at the horizon, so a later zero crossing is moot
        pts.append((hit, 0.0) if hit <= cap_t
                   else (cap_t, q_now + dq * horizon))
        return from_points(pts, slope_after=0.0)
    if dq > 0.0 and math.isfinite(horizon):
        pts.append((now + horizon, q_now + dq * horizon))
        return from_points(pts, slope_after=0.0)
    return from_points(pts, slope_after=max(dq, 0.0))


# --------------------------------------------------------------- predictors


class ZeroPredictor:
    """Predicts an empty queue everywhere."""

    kind = "zero"

    def predict(self, history: QueueHistory, edge_id: int) -> PredictedQueue:
        return PredictedQueue(edge_id, history.now, constant_fn(0.0))


class ConstantPredictor:
    """Freezes the current queue: the forecast is flat at q(now)."""

    kind = "constant"

    def predict(self, history: QueueHistory, edge_id: int) -> PredictedQueue:
        q_now = history.queue(edge_id, history.now)
        return PredictedQueue(edge_id, history.now, constant_fn(q_now))


class LinearPredictor:
    """Extrapolates the left derivative of the queue, capped at a horizon.

    The forecast is (q(now) + dq * min(t - now, horizon))+ where dq is the
    one-sided derivative from the past.  The positive part makes the forecast
    piecewise linear with at most two interior kinks.
    """

    kind = "linear"

    def __init__(self, prediction_horizon: float = math.inf):
        if prediction_horizon <= 0:
            raise ValueError("prediction horizon must be positive")
        self.prediction_horizon = prediction_horizon

    def predict(self, history: QueueHistory, edge_id: int) -> PredictedQueue:
        now = history.now
        q_now = history.queue(edge_id, now)
        dq = history.left_slope(edge_id)
        fn = _extrapolate(now, q_now, dq, self.prediction_horizon)
        return PredictedQueue(edge_id, now, fn)


class RegularizedLinearPredictor:
    """Linear extrapolation with a backward difference in place of the slope.

    Using (q(now) - q(now - delta)) / delta instead of the exact one-sided
    derivative makes the forecast continuous in the history and keeps exit
    times non-decreasing, at the cost of lagging sharp changes by delta.
    """

    kind = "reg_linear"

    def __init__(self, delta: float = 1.0, prediction_horizon: float = math.inf):
        if delta <= 0:
            raise ValueError("difference step must be positive")
        if prediction_horizon <= 0:
            raise ValueError("prediction horizon must be positive")
        self.delta = delta
        self.prediction_horizon = prediction_horizon

    def predict(self, history: QueueHistory, edge_id: int) -> PredictedQueue:
        now = history.now
        q_now = history.queue(edge_id, now)
        q_back = history.queue(edge_id, now - self.delta)
        dq = (q_now - q_back) / self.delta
        fn = _extrapolate(now, q_now, dq, self.prediction_horizon)
        return PredictedQueue(edge_id, now, fn)


class PerfectPredictor:
    """Returns the realized queue itself.  Only valid after a run finished.

    In a live simulation the future is not yet computed, so constructing this
    predictor for the decision loop is an error; it exists for post-hoc
    comparison against the other predictors.
    """

    kind = "perfect"

    def __init__(self, final_state=None):
        self.final_state = final_state

    def predict(self, history: QueueHistory, edge_id: int) -> PredictedQueue:
        state = self.final_state
        if state is None:
            raise PredictorModeError(
                "perfect predictor needs the finished flow; "
                "it cannot run inside the decision loop")
        fn = state.queue_fn(edge_id)
        return PredictedQueue(edge_id, history.now, fn)


class ThresholdPredictor:
    """Toy discontinuous predictor: small queues stay, large ones jump to 2.

    Forecasts q(now) while q(now) < 1 and the constant 2 otherwise.  Its jump
    at q = 1 lets routing decisions flip back and forth forever, which is why
    continuity of the predictor matters for equilibrium existence.
    """

    kind = "threshold"

    def __init__(self, threshold: float = 1.0, high_value: float = 2.0):
        if not (math.isfinite(high_value) and high_value >= 0):
            raise ValueError("high_value is a queue length and must be "
                             f"finite and >= 0, got {high_value!r}")
        self.threshold = threshold
        self.high_value = high_value

    def predict(self, history: QueueHistory, edge_id: int) -> PredictedQueue:
        q_now = history.queue(edge_id, history.now)
        value = q_now if q_now < self.threshold else self.high_value
        return PredictedQueue(edge_id, history.now, constant_fn(value))


class RegressionPredictor:
    """Forecasts future queue samples as linear combinations of past ones.

    For each future offset j*step (j = 1..samples) the model predicts the
    edge queue from the current and lagged queues of the edge itself and of
    edges entering its tail, clamped at zero.  The forecast interpolates
    linearly through the predicted samples, anchored at the observed q(now),
    and is post-fixed so induced exit times never decrease.

    The first forecast from a :class:`QueueHistory` predicts the samples of
    every edge in one array pass, reading each (edge, lag) queue once, and
    later forecasts from the same history take theirs from it.  The pass
    sums the products of weights and features left to right from +0.0 and
    then adds the intercept, as ``row[0] + sum(...)`` does, so every sample
    is bit-identical to the one-edge formula.  The pass also marks the idle
    edges, whose q(now) and samples are all +0.0: their forecast is the
    shared zero, which ``fifo_fix`` and ``from_points`` would return, so
    they skip both.  The model's coefficients are read at the first
    forecast; an edge without coefficients raises when it is forecast.
    """

    kind = "regression"

    def __init__(self, model: "RegressionModel"):
        self.model = model
        # (network edges, feature index, coefficients, edges without them)
        self._layout = None
        # (history, q(now) per edge, samples per edge, idle per edge)
        self._batch = None

    def predict(self, history: QueueHistory, edge_id: int) -> PredictedQueue:
        batch = self._batch
        if batch is None or batch[0] is not history:
            batch = self._batch = self._forecast_all(history)
        _, q_now, samples, idle = batch
        now = history.now
        if idle[edge_id]:
            return PredictedQueue(edge_id, now, constant_fn(0.0))
        rows = samples[edge_id]
        if rows is None:
            self.model.coefficients_for(edge_id)  # raises, naming the edge
        step = self.model.sample_step
        pts = [(now, q_now[edge_id])]
        pts.extend((now + j * step, q) for j, q in enumerate(rows, 1))
        pts, fixes = fifo_fix(pts, history.edge(edge_id).capacity)
        fn = from_points(pts, slope_after=0.0)
        return PredictedQueue(edge_id, now, fn, fifo_fixes=fixes)

    def _forecast_all(self, history: QueueHistory):
        import numpy as np

        model = self.model
        edges = history.edges
        if self._layout is None or self._layout[0] is not edges:
            self._layout = self._build_layout(history)
        _, index, coef, missing = self._layout
        now = history.now
        q_now = [history.queue(e.id, now) for e in edges]
        # one row per edge and a last row of zeros, the padding feature
        lagged = np.zeros((len(edges) + 1, model.lags))
        for e in edges:
            lagged[e.id] = [history.queue(e.id, now - lag * model.sample_step)
                            for lag in range(1, model.lags + 1)]
        feats = lagged[index].reshape(len(edges), -1)
        total = np.zeros(coef.shape[:2])
        for k in range(feats.shape[1]):
            total = total + coef[:, :, k + 1] * feats[:, None, k]
        vals = coef[:, :, 0] + total
        # max(val, 0.0): keeps val unless 0.0 is larger, a -0.0 included
        clamped = np.where(0.0 > vals, 0.0, vals)
        # +0.0 throughout: a -0.0 or a NaN keeps an edge off the fast path
        flat = np.column_stack([q_now, clamped])
        idle = ((flat == 0.0) & ~np.signbit(flat)).all(axis=1).tolist()
        samples = clamped.tolist()
        for eid in missing:
            samples[eid] = None
            idle[eid] = False
        return history, q_now, samples, idle

    def _build_layout(self, history: QueueHistory):
        """Feature rows and coefficients of every edge, as arrays."""
        import numpy as np

        model = self.model
        edges = history.edges
        pad = len(edges)
        width = 1 + (1 + model.neighborhood_radius) * model.lags
        index, coef, missing = [], [], []
        for e in edges:
            ids = _feature_edges(e, history.in_edges(e.tail),
                                 model.neighborhood_radius)
            index.append(ids + [pad] * (
                1 + model.neighborhood_radius - len(ids)))
            rows = model.coefficients.get(e.id, model.coefficients.get(-1))
            if rows is None:
                missing.append(e.id)
                rows = [[0.0] * width] * model.samples
            coef.append(rows)
        return (edges, np.array(index, dtype=np.intp),
                np.array(coef, dtype=float), missing)


# ----------------------------------------------------------------- regression


MODEL_FORMAT = "dpe-model/1"


@dataclass
class RegressionModel:
    """Learned coefficients for the regression predictor.

    ``coefficients`` maps an edge id (or the shared key -1) to a matrix with
    one row per future sample; each row holds the intercept followed by one
    weight per feature.  Features are the queues of the edge itself and of up
    to ``neighborhood_radius`` edges entering its tail, sampled at lags
    ``step, 2*step, ..., lags*step`` before the prediction time.
    """

    lags: int
    samples: int
    sample_step: float
    neighborhood_radius: int
    coefficients: dict[int, list[list[float]]]
    scores: dict[int, float] = field(default_factory=dict)
    seed: int = 0

    def coefficients_for(self, edge_id: int) -> list[list[float]]:
        if edge_id in self.coefficients:
            return self.coefficients[edge_id]
        if -1 in self.coefficients:
            return self.coefficients[-1]
        raise ValueError(f"regression model has no coefficients for edge "
                         f"{edge_id} and no shared set (key -1)")

    def save(self, path) -> None:
        payload = {
            "format": MODEL_FORMAT,
            "lags": self.lags,
            "samples": self.samples,
            "sample_step": self.sample_step,
            "neighborhood_radius": self.neighborhood_radius,
            "seed": self.seed,
            "coefficients": {str(k): v for k, v in self.coefficients.items()},
            "scores": {str(k): v for k, v in self.scores.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)

    @classmethod
    def load(cls, path) -> "RegressionModel":
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("format") != MODEL_FORMAT:
            raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
        for key, low in (("lags", 1), ("samples", 1),
                         ("neighborhood_radius", 0)):
            value = payload.get(key)
            if not isinstance(value, int) or value < low:
                raise ValueError(
                    f"{path}: {key} must be an integer >= {low}, got {value!r}")
        step = payload.get("sample_step")
        if not (_finite_number(step) and step > 0):
            raise ValueError(
                f"{path}: sample_step must be finite and > 0, got {step!r}")
        if not isinstance(payload.get("coefficients"), dict):
            raise ValueError(f"{path}: coefficients must be an object")
        model = cls(
            lags=payload["lags"],
            samples=payload["samples"],
            sample_step=payload["sample_step"],
            neighborhood_radius=payload["neighborhood_radius"],
            coefficients={int(k): v for k, v in payload["coefficients"].items()},
            scores={int(k): v for k, v in payload.get("scores", {}).items()},
            seed=payload.get("seed", 0),
        )
        width = 1 + (1 + model.neighborhood_radius) * model.lags
        for key, rows in model.coefficients.items():
            if not (isinstance(rows, list) and len(rows) == model.samples
                    and all(isinstance(row, list) and len(row) == width
                            and all(_finite_number(x) for x in row)
                            for row in rows)):
                raise ValueError(
                    f"{path}: coefficients of edge {key} must be {model.samples} "
                    f"rows of {width} finite numbers (samples rows of 1 + "
                    "(1 + neighborhood_radius) * lags)")
        return model

    @classmethod
    def copy_last_value(cls, samples: int, sample_step: float,
                        neighborhood_radius: int = 5) -> "RegressionModel":
        """Model predicting every future sample as the most recent lag."""
        lags = 2
        n_feat = (1 + neighborhood_radius) * lags
        row = [0.0] * (1 + n_feat)
        row[1] = 1.0  # weight on the edge's own queue one lag back
        return cls(lags, samples, sample_step, neighborhood_radius,
                   {-1: [list(row) for _ in range(samples)]})


def _feature_edges(edge, tail_in_edges, radius: int) -> list[int]:
    """Ids of the edges whose lagged queues are the features of ``edge``:
    the edge, then the first ``radius`` in-edges of its tail (networks have
    no self-loops, so the edge is not among them)."""
    return [edge.id] + [x.id for x in tail_in_edges[:radius]]


def _finite_number(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _sample(fn, ts):
    """Exact piecewise-linear evaluation on a sorted time array."""
    import numpy as np

    lo, hi = float(ts[0]), float(ts[-1])
    xs = [lo] + [t for t in fn.times if lo < t < hi] + [hi]
    ys = [fn(x) for x in xs]
    return np.interp(ts, xs, ys)


def train_regression(traces, lags: int = 10, samples: int = 10,
                     sample_step: float = 1.0, neighborhood_radius: int = 5,
                     grid_step: float = 1.0, shared: bool = False,
                     seed: int = 0) -> RegressionModel:
    """Fit the regression predictor of every edge on queue traces of
    finished runs.

    ``traces`` is one flow state or a list of them, all over the same network.
    Builds one training row per grid time per trace up to its built horizon:
    features are the lagged queues of the edge and its tail's incoming edges,
    targets the queues at the future sample offsets.  Fits each future offset
    by ridge-regularized least squares and records an R^2 per edge (or one
    shared score) on a fixed 10% holdout.
    """
    import numpy as np

    states = list(traces) if isinstance(traces, (list, tuple)) else [traces]
    net = states[0].network
    if any(len(st.network.edges) != len(net.edges) for st in states[1:]):
        raise ValueError("traces must come from the same network")

    rng = np.random.default_rng(seed)
    n_feat = (1 + neighborhood_radius) * lags

    grids = []
    for st in states:
        t_lo = lags * sample_step
        t_hi = st.built_until - samples * sample_step
        if t_hi <= t_lo:
            raise ValueError("trace too short for the requested lags and samples")
        grids.append(np.arange(t_lo, t_hi + 1e-9, grid_step))

    # sample every queue once per shifted grid, then assemble rows by slicing
    sampled = []
    for st, grid in zip(states, grids):
        per_edge = {}
        for e in net.edges:
            fn = st.queue_fn(e.id)
            lagged = [_sample(fn, np.maximum(grid - k * sample_step, 0.0))
                      for k in range(1, lags + 1)]
            future = [_sample(fn, grid + j * sample_step)
                      for j in range(1, samples + 1)]
            per_edge[e.id] = (lagged, future)
        sampled.append(per_edge)

    def rows_for(edge):
        features = _feature_edges(edge, net.in_edges[edge.tail],
                                  neighborhood_radius)
        Xs, Ys = [], []
        for per_edge, grid in zip(sampled, grids):
            X = np.zeros((len(grid), n_feat))
            for c, fid in enumerate(features):
                for k in range(lags):
                    X[:, c * lags + k] = per_edge[fid][0][k]
            Xs.append(X)
            Ys.append(np.column_stack(per_edge[edge.id][1]))
        return np.vstack(Xs), np.vstack(Ys)

    def fit(X, Y):
        A = np.hstack([np.ones((X.shape[0], 1)), X])
        gram = A.T @ A + 1e-8 * np.eye(A.shape[1])   # the ridge term
        coef = np.linalg.solve(gram, A.T @ Y)
        return coef.T  # samples x (1 + n_feat)

    def r2(coef, X, Y):
        A = np.hstack([np.ones((X.shape[0], 1)), X])
        pred = np.clip(A @ coef.T, 0.0, None)
        ss_res = float(((Y - pred) ** 2).sum())
        ss_tot = float(((Y - Y.mean(axis=0)) ** 2).sum())
        if ss_tot <= EPS:
            return 1.0 if ss_res <= EPS else 0.0
        return 1.0 - ss_res / ss_tot

    n_rows = sum(len(g) for g in grids)
    perm = rng.permutation(n_rows)
    n_hold = max(int(round(0.1 * n_rows)), 1)
    test_idx, train_idx = perm[:n_hold], perm[n_hold:]
    if len(train_idx) == 0:
        train_idx = test_idx

    coefficients: dict[int, list[list[float]]] = {}
    scores: dict[int, float] = {}
    if shared:
        Xs, Ys = [], []
        for e in net.edges:
            X, Y = rows_for(e)
            Xs.append(X)
            Ys.append(Y)
        X = np.vstack(Xs)
        Y = np.vstack(Ys)
        tr = np.concatenate([train_idx + k * n_rows
                             for k in range(len(net.edges))])
        te = np.concatenate([test_idx + k * n_rows
                             for k in range(len(net.edges))])
        coef = fit(X[tr], Y[tr])
        coefficients[-1] = coef.tolist()
        scores[-1] = r2(coef, X[te], Y[te])
    else:
        for e in net.edges:
            X, Y = rows_for(e)
            coef = fit(X[train_idx], Y[train_idx])
            coefficients[e.id] = coef.tolist()
            scores[e.id] = r2(coef, X[test_idx], Y[test_idx])

    return RegressionModel(lags, samples, sample_step, neighborhood_radius,
                           coefficients, scores, seed=seed)


# -------------------------------------------------------------------- factory


_SIMPLE = {
    "zero": ZeroPredictor,
    "constant": ConstantPredictor,
}
PREDICTOR_KINDS = (*_SIMPLE, "linear", "reg_linear", "threshold", "perfect",
                   "regression")
"""The kinds ``build_predictor`` builds; a scenario's specs are checked
against them where the scenario is made."""


def build_predictor(spec: dict, params, base_dir=None, final_state=None):
    """Instantiate a predictor from its scenario spec.

    ``spec`` is the per-commodity ``{"kind": ..., ...}`` mapping; ``params``
    supplies scenario-level defaults.  ``final_state`` enables the perfect
    predictor for post-hoc evaluation.
    """
    kind = spec.get("kind")
    if kind not in PREDICTOR_KINDS:
        raise ValueError(f"unknown predictor kind: {kind!r}")
    if kind in _SIMPLE:
        return _SIMPLE[kind]()
    if kind == "linear":
        return LinearPredictor(
            spec.get("prediction_horizon", params.prediction_horizon))
    if kind == "reg_linear":
        return RegularizedLinearPredictor(
            spec.get("delta", params.delta),
            spec.get("prediction_horizon", params.prediction_horizon))
    if kind == "threshold":
        return ThresholdPredictor(spec.get("threshold", 1.0),
                                  spec.get("high_value", 2.0))
    if kind == "perfect":
        return PerfectPredictor(final_state)
    if "model" in spec:   # the regression kind
        path = spec["model"]
        if not isinstance(path, str):
            raise ValueError(
                f"predictor.model must be a string, got {path!r}")
        if base_dir is not None:
            import os
            path = os.path.join(base_dir, path)
        model = RegressionModel.load(path)
    else:
        model = RegressionModel.copy_last_value(
            params.samples, params.sample_step,
            neighborhood_radius=params.neighborhood_radius)
    return RegressionPredictor(model)
