"""Acceptance battery.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with ``pytest tests/test_acceptance.py -s``).  Criteria with a time
budget assert it.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import PREDICTOR_CYCLE, metro_tntp_text, random_scenario
from test_routing import path_arrival_oracle, random_instance

from dpeflow.network import (
    Commodity,
    Scenario,
    block_inflow,
    import_tntp,
    load_scenario,
)
from dpeflow.predictors import (
    LinearPredictor,
    QueueHistory,
    RegressionModel,
    RegularizedLinearPredictor,
    train_regression,
)
from dpeflow.pwl import PiecewiseLinearFn
from dpeflow.routing import compute_labels
from dpeflow.simulation import (
    audit_dpe,
    audit_ide,
    compute_metrics,
    run,
    run_counterexample_demo,
    run_sweep,
    sweep_variant,
)

DATA = Path(__file__).parent.parent / "data"


@contextmanager
def criterion(name):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name} ({time.monotonic() - t0:.1f}s)")


def two_routes():
    return load_scenario(DATA / "two_routes.scenario.json")


def test_c1_invariants_on_seeded_scenarios():
    with criterion("C1 flow invariants hold on 50 seeded scenarios in <60s"):
        t0 = time.monotonic()
        for seed in range(50):
            scenario = random_scenario(seed)
            result = run(scenario, record_rounds=False)
            worst = result.state.audit_flow(tol=1e-6)
            assert max(worst.values()) <= 1e-6, (seed, worst)
            report = compute_metrics(result)
            for row in report.rows:
                assert row.outflow_mass <= row.inflow_mass + 1e-6
                assert row.total_tt >= -1e-9
        assert time.monotonic() - t0 < 60.0


def test_c2_labels_match_path_enumeration():
    with criterion("C2 labels equal path enumeration within 1e-7 in <30s"):
        t0 = time.monotonic()
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            net, exit_fns, sink = random_instance(rng, int(rng.integers(4, 9)))
            ls = compute_labels(net, sink, exit_fns)
            for v in net.nodes:
                for t in rng.uniform(-2.0, 25.0, 100):
                    want = path_arrival_oracle(net, sink, exit_fns, v, float(t))
                    got = ls.earliest_arrival(v, float(t))
                    if math.isinf(want):
                        assert math.isinf(got)
                    else:
                        assert abs(got - want) <= 1e-7, (seed, v, t)
        assert time.monotonic() - t0 < 30.0


def test_c3_two_route_tie_splits_evenly():
    with criterion("C3 two-route tie: average travel time 3.000 +- 1e-6, "
                   "exact 1/1 split"):
        result = run(two_routes())
        row = compute_metrics(result).rows[0]
        assert abs(row.avg_tt - 3.0) <= 1e-6
        state = result.state
        for t in (0.0, 6.25, 12.5, 24.75):
            assert state.inflow_rate_at(0, 0, t) == 1.0
            assert state.inflow_rate_at(0, 4, t) == 1.0


def test_c4_constant_predictor_is_instantaneous_equilibrium():
    with criterion("C4 constant-predictor run matches scalar shortest paths "
                   "within 1e-9"):
        scenario = sweep_variant(two_routes(), 4.0, "constant")
        result = run(scenario)
        checked = audit_ide(result)
        assert checked > 100
        assert audit_dpe(result) == checked


def test_c5_discontinuous_predictor_never_settles():
    with criterion("C5 threshold predictor flips every round and pins "
                   "queue(1) = 1 +- 1e-9"):
        demo = run_counterexample_demo(epsilon=0.25, horizon=50.0)
        assert abs(demo["short_queue_at_1"] - 1.0) <= 1e-9
        assert demo["flips"] >= 0.9 * (50.0 - 1.0) / 0.25


def test_c6_predictor_regularity():
    with criterion("C6 linear forecast jumps on 1e-6-close histories; "
                   "regularized modulus 1 + (dt+2)/delta holds"):
        def pl(points, slope_after=0.0):
            ts, vs = zip(*points)
            return PiecewiseLinearFn(ts, vs, 0.0, slope_after)

        from test_predictors import FakeState, NET1

        def hist(fn, now):
            return QueueHistory(FakeState(NET1, {0: fn}), now)

        # discontinuity witness: sup distance 9e-7, forecast gap 1.0
        mu = 9e-7
        up = pl([(0.0, 0.0), (2.0, 1.0)])
        down = pl([(0.0, 0.0), (2.0 - mu, 1.0 - mu / 2), (2.0, 1.0 - mu)])
        sup = max(abs(up(t) - down(t))
                  for t in np.linspace(0.0, 2.0, 2001))
        assert sup <= 1e-6
        lin = LinearPredictor(prediction_horizon=10.0)
        gap = abs(lin.predict(hist(up, 2.0), 0)(3.0)
                  - lin.predict(hist(down, 2.0), 0)(3.0))
        assert gap >= 0.1

        # continuity modulus of the regularized variant on dt in [0, 2]
        rng = np.random.default_rng(99)
        for delta in (0.5, 1.0):
            pred = RegularizedLinearPredictor(delta=delta)
            for _ in range(25):
                ts = np.sort(np.concatenate(
                    [[0.0], rng.uniform(0.1, 6.0, 4), [6.0]]))
                base = rng.uniform(0.0, 3.0, len(ts))
                bump = rng.uniform(-0.05, 0.05, len(ts))
                u, v = pl(list(zip(ts, base))), pl(list(zip(ts, base + bump)))
                sup = max(abs(u(t) - v(t))
                          for t in np.linspace(0.0, 6.0, 500))
                pu = pred.predict(hist(u, 6.0), 0)
                pv = pred.predict(hist(v, 6.0), 0)
                for dt in np.linspace(0.0, 2.0, 21):
                    bound = (1.0 + (dt + 2.0) / delta) * sup
                    assert abs(pu(6.0 + dt) - pv(6.0 + dt)) <= bound + 1e-12

        # obliviousness: diverging futures leave the forecast bit-identical
        shared = [(0.0, 0.0), (4.0, 2.0)]
        u = pl(shared + [(6.0, 0.0)])
        v = pl(shared + [(6.0, 9.0)])
        pred = RegularizedLinearPredictor(delta=1.0)
        a, b = pred.predict(hist(u, 4.0), 0), pred.predict(hist(v, 4.0), 0)
        assert a.fn.times == b.fn.times and a.fn.values == b.fn.values


def test_c7_regression_quality(sioux_training_corpus, tmp_path):
    with criterion("C7 regression: exact affine recovery; >=70% of congested "
                   "network edges reach holdout R^2 >= 0.5"):
        from test_predictors import affine_flow
        state = affine_flow()
        model = train_regression(state, lags=2, samples=10, sample_step=1.0,
                                 neighborhood_radius=2)
        assert model.scores[0] >= 1.0 - 1e-6

        traces = sioux_training_corpus
        model = train_regression(traces, lags=10, samples=10, sample_step=1.0,
                                 neighborhood_radius=5, grid_step=0.25, seed=3)
        net = traces[0].network
        congested = [e.id for e in net.edges
                     if any(max(st.queue_fn(e.id).values) > 1e-6
                            for st in traces)]
        assert congested, "training corpus never congests"
        good = sum(1 for eid in congested if model.scores[eid] >= 0.5)
        assert good >= 0.7 * len(congested), (
            good, len(congested),
            sorted((round(model.scores[e], 3), e) for e in congested)[:10])

        # the score report travels with the model file
        model.save(tmp_path / "sioux.json")
        reloaded = RegressionModel.load(tmp_path / "sioux.json")
        assert reloaded.scores == model.scores


def test_c8_predictor_sweep():
    with criterion("C8 five-predictor inflow sweep in <300s: uncongested "
                   "ties at 3.0, curves non-decreasing"):
        t0 = time.monotonic()
        kinds = [spec["kind"] for spec in PREDICTOR_CYCLE]
        totals = [1.0, 4.0, 7.0, 10.0]
        rows = run_sweep(two_routes(), totals, kinds)
        assert time.monotonic() - t0 < 300.0
        by_kind = {k: [r[2] for r in rows if r[1] == k] for k in kinds}
        for k in kinds:
            assert abs(by_kind[k][0] - 3.0) <= 1e-6, (k, by_kind[k][0])
            curve = by_kind[k]
            for a, b in zip(curve, curve[1:]):
                assert b >= a - 1e-9, (k, curve)


def test_c9_round_length_refinement_converges():
    with criterion("C9 halving the round length gives shrinking differences "
                   "at inflow 20"):
        base = sweep_variant(two_routes(), 20.0, "constant")
        avgs = []
        for eps in (1.0, 0.5, 0.25, 0.125):
            scenario = Scenario(network=base.network,
                                commodities=base.commodities,
                                prediction_step=eps, horizon=base.horizon,
                                predictor_params=base.predictor_params,
                                active_tolerance=base.active_tolerance)
            avgs.append(compute_metrics(
                run(scenario, record_rounds=False)).avg_tt)
        diffs = [abs(a - b) for a, b in zip(avgs, avgs[1:])]
        assert diffs[1] <= diffs[0] + 1e-12, (avgs, diffs)
        assert diffs[2] <= diffs[1] + 1e-12, (avgs, diffs)


def test_c10a_city_network_all_predictors(sioux_scenario):
    with criterion("C10a 24-node city, 12 commodities, all predictors "
                   "in <120s"):
        t0 = time.monotonic()
        result = run(sioux_scenario, record_rounds=False)
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0
        report = compute_metrics(result)
        assert sum(r.outflow_mass for r in report.rows) > 0
        result.state.audit_flow(tol=1e-6)


def test_c10b_metropolitan_scale(tmp_path):
    with criterion("C10b 3538-node / 4803-edge network: import and "
                   "constant-predictor run in <600s"):
        t0 = time.monotonic()
        path = tmp_path / "metro.tntp"
        path.write_text(metro_tntp_text())
        net = import_tntp(path)
        assert len(net.nodes) == 3538
        assert len(net.edges) == 4803
        commodity = Commodity(0, 1, 16, inflow=block_inflow(4.0, 20.0),
                              predictor_spec={"kind": "constant"})
        scenario = Scenario(network=net, commodities=(commodity,),
                            prediction_step=1.0, horizon=60.0)
        result = run(scenario)
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0
        report = compute_metrics(result)
        assert report.rows[0].outflow_mass > 0
        result.state.audit_flow(tol=1e-6)
        # the run's flat exit tables against the audit's per-edge forecasts
        assert audit_dpe(result) == 409
