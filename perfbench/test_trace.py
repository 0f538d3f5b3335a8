"""The benchmark's own test: every named span fires where it should.

    python3 -m pytest perfbench -q

Runs one untraced and one traced repetition of each workload (about a
minute in all) and checks the per-layer metrics against what each workload is
built to exercise.
"""

import pytest

import run
import workloads
from dpeflow import pwl, routing, simulation
from tracer import Tracer


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced(request, tmp_path_factory):
    name = request.param
    cells, _, import_s = run.set_up(name, workloads.Seeds(run=0),
                                    tmp_path_factory.mktemp(name),
                                    traced=True)
    reps = run.measure(cells, seconds=0.0, traced=True)
    failed, problems, gap = run.check(cells, reps)
    metrics = {k: v for k, (v, _) in
               run.layer_metrics(reps, import_s).items()}
    return name, cells, reps, failed, problems, gap, metrics


def test_outputs_pass_their_checks(traced):
    name, _, reps, failed, problems, gap, _ = traced
    assert [r.traced is not None for r in reps] == [False, True]
    assert failed == 0, problems
    if name == "sioux_mixed":
        assert gap > run.NODE_GAP_RESOLUTION  # the known conservation defect
    else:
        assert gap >= run.NODE_GAP_RESOLUTION


# Layers every workload runs through, whatever routing does.
ALWAYS = ("flow_state.advance_calls", "flow_state.assign_calls",
          "flow_state.events", "simulation.rounds")
ALWAYS_S = ("network.import_s", "flow_state.advance_s",
            "flow_state.next_change_s", "simulation.self_s",
            "simulation.metrics_s")
# The label algebra, which scalar routing may bypass for shift-only
# forecasts; sioux_mixed's forecasts are piecewise, so it must run there.
LABEL_ALGEBRA = ("predictors.predict_calls", "routing.label_sets",
                 "routing.active_queries", "pwl.compose_calls",
                 "pwl.min_calls", "pwl.prune_calls", "pwl.constructed")
LABEL_ALGEBRA_S = ("predictors.predict_s", "predictors.exit_fn_s",
                   "routing.labels_s", "pwl.compose_s", "pwl.min_s",
                   "pwl.prune_s", "pwl.construct_s")


def test_every_layer_fires(traced):
    name, cells, _, _, _, _, m = traced
    counts, times = ALWAYS, ALWAYS_S
    if name == "sioux_mixed":
        counts, times = counts + LABEL_ALGEBRA, times + LABEL_ALGEBRA_S
    for metric in counts:
        assert m[metric] > 0, metric
    for metric in times:
        assert m[metric] > 0.0, metric
    edges = sum(len(c.scenario.network.edges) for c in cells)
    # at most one forecast per edge, predictor spec and round
    assert m["predictors.predict_calls"] % (edges // len(cells)) == 0
    assert 0.0 < m["flow_state.busy_share"] <= 1.0


def test_workload_properties(traced):
    name, cells, _, _, _, _, m = traced
    horizons = [c.scenario.horizon / c.scenario.prediction_step
                for c in cells]
    assert m["simulation.rounds"] == sum(round(h) for h in horizons)
    if name == "sioux_mixed":
        assert m["predictors.fifo_fixes"] > 0
        assert m["predictors.forecast_breakpoints_mean"] > 1.0
        assert m["routing.label_breakpoints_max"] > 2
    if name == "metro_constant":
        assert m["flow_state.busy_share"] < 0.01
        assert m["predictors.predict_calls"] <= m["simulation.rounds"] * 4803
        # constant forecasts are shifts: one breakpoint each, if any is made
        assert m["predictors.forecast_breakpoints_mean"] <= 1.0
    if name == "two_route_sweep":
        assert len(cells) == 20
        assert m["flow_state.busy_share"] > 0.5
    if name == "sioux_shared_zero":
        pairs = {(c.sink, c.predictor_spec["kind"])
                 for c in cells[0].scenario.commodities}
        assert len(pairs) < m["routing.label_sets"]


def test_spans_account_for_traced_run_time(traced):
    _, _, reps, _, _, _, m = traced
    rep = reps[1]
    assert 0.99 * rep.wall_s <= rep.traced["trace.span_s"] <= rep.wall_s
    layer_time = sum(v for k, v in m.items()
                     if k.endswith("_s") and k.split(".")[0] in (
                         "predictors", "routing", "pwl", "flow_state",
                         "simulation"))
    assert layer_time == pytest.approx(rep.traced["trace.span_s"], rel=1e-6)


def test_tracer_patches_by_name_bindings_and_restores_them():
    originals = (simulation.compute_labels, simulation.exit_time_fn,
                 routing.compose_monotone, routing.pointwise_min,
                 routing.prune, pwl.prune)
    with Tracer():
        assert simulation.compute_labels is routing.compute_labels
        assert routing.prune is pwl.prune
        patched = (simulation.compute_labels, simulation.exit_time_fn,
                   routing.compose_monotone, routing.pointwise_min,
                   routing.prune, pwl.prune)
        assert all(p is not o for p, o in zip(patched, originals))
    assert (simulation.compute_labels, simulation.exit_time_fn,
            routing.compose_monotone, routing.pointwise_min,
            routing.prune, pwl.prune) == originals
