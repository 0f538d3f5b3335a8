"""Benchmark of dpeflow: one workload per process, run to its horizon.

    python3 perfbench/run.py --workload sioux_mixed --seed 1 --seconds 25 --trace 0

Builds the workload's scenarios from the seeds, repeats the simulation until
``--seconds`` are used up, checks the outputs after timing stops and prints
one JSON line last.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones (see README.md in this directory).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "dpeflow" / "__init__.py").is_file():
    sys.exit(f"dpeflow sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from dpeflow import simulation  # noqa: E402
from dpeflow.predictors import PredictorModeError  # noqa: E402
from dpeflow.routing import ConvergenceError  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# String hashes are salted per process unless PYTHONHASHSEED is set.  The salt
# changes set iteration order and so the cost, not the result, of set-up and
# routing; one fixed salt makes every run measure the same instance.
HASH_SEED = "0"

# Errors a run may raise on a bad scenario or a routing defect; a run that
# raises one counts as failed.  Anything else aborts the benchmark.
RUN_ERRORS = (simulation.StrandedFlowError, ConvergenceError,
              PredictorModeError)

# Relative node-conservation gaps at or below this are float rounding; they
# are reported as this value so that the metric is never zero.  It sits well
# above what reordering a float sum can change and far below both the audit
# tolerance (1e-6) and the known defect (1.2e-3).
NODE_GAP_RESOLUTION = 1e-9
MASS_TOL = 1e-6
AUDIT_TOL = 1e-6
TIE_TOL = 1e-6

# Set-up is repeated at least this often and until this much wall time,
# collections included, is spent.  A full garbage collection before each
# build keeps millisecond set-ups from splitting into a fast and a slow mode
# whose mix moves the median.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 3.0


@dataclass
class Rep:
    """One repetition: every cell of the workload simulated once."""

    wall_s: float
    cpu_s: float
    outcomes: list            # (avg_tt, event count) or the error raised
    traced: dict | None       # per-layer metrics of a traced repetition
    results: list             # (RunResult, MetricsReport) kept for checks


def main(argv=None) -> int:
    args = _parse(argv)
    seeds = workloads.Seeds(args.seed, args.commodity_seed, args.metro_seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        cells, setup_s, import_s = set_up(args.workload, seeds, Path(tmp),
                                          traced=bool(args.trace))
    reps = measure(cells, args.seconds, traced=bool(args.trace))
    failed, problems, gap = check(cells, reps)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = len(reps) * len(cells)
    if args.trace:
        metrics = layer_metrics(reps, import_s)
    else:
        metrics = end_to_end_metrics(reps, setup_s, gap, failed, attempted)
    print(_summary(args.workload, reps, metrics))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="picks the renaming of the workload's nodes")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measuring time; at least one repetition runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--commodity-seed", type=int, default=12,
                   help="random_commodities seed of the Sioux Falls workloads")
    p.add_argument("--metro-seed", type=int, default=47,
                   help="generator seed of the metro network")
    return p.parse_args(argv)


# ----------------------------------------------------------------- set-up


def set_up(name, seeds, work_dir, traced):
    """Build the workload repeatedly.  Returns the last build, the median
    set-up time and, when traced, the median import self time.

    A traced set-up only serves ``network.import_s``, so it stops at the
    minimum repetitions: installing the tracer costs more than a small
    set-up."""
    times, import_times = [], []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or not traced and (
            time.perf_counter() - start < SETUP_MIN_SECONDS):
        gc.collect()
        with Tracer() if traced else contextlib.nullcontext() as tracer:
            t0 = time.perf_counter()
            cells = workloads.build(name, ROOT, work_dir, seeds)
            times.append(time.perf_counter() - t0)
        if tracer is not None:
            import_times.append(tracer.layer_metrics()["network.import_s"])
    import_s = statistics.median(import_times) if import_times else None
    return cells, statistics.median(times), import_s


# ---------------------------------------------------------------- measure


def measure(cells, seconds, traced) -> list[Rep]:
    """Repeat the workload until the next repetition would overrun
    ``seconds``.  Traced runs alternate untraced and traced repetitions and
    make at least one of each."""
    start = time.perf_counter()
    reps: list[Rep] = []
    while True:
        tracing = traced and len(reps) % 2 == 1
        reps.append(_repetition(cells, keep=not reps, tracing=tracing))
        if traced and len(reps) < 2:
            continue
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in reps)
        if elapsed + typical > seconds:
            return reps


def _repetition(cells, keep, tracing) -> Rep:
    outcomes, results = [], []
    with Tracer() if tracing else contextlib.nullcontext() as tracer:
        t0, c0 = time.perf_counter(), time.process_time()
        for cell in cells:
            try:
                result = simulation.run(cell.scenario, record_rounds=False)
                report = simulation.compute_metrics(result)
            except RUN_ERRORS as exc:
                outcomes.append(exc)
                results.append(None)
                continue
            outcomes.append((report.avg_tt, len(result.events)))
            if keep:
                results.append((result, report))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    traced = tracer.layer_metrics() if tracer is not None else None
    return Rep(wall, cpu, outcomes, traced, results)


# ----------------------------------------------------------------- checks


def check(cells, reps):
    """Output checks, after timing.  Returns the number of failed runs, the
    reasons, and the worst relative node-conservation gap."""
    bad = set()
    problems = []
    first = reps[0].outcomes
    for r, rep in enumerate(reps):
        for k, outcome in enumerate(rep.outcomes):
            if isinstance(outcome, Exception):
                bad.add((r, k))
                problems.append(f"{cells[k].label} rep {r}: {outcome!r}")
            elif outcome != first[k]:
                bad.add((r, k))
                problems.append(f"{cells[k].label} rep {r}: (avg_tt, events)"
                                f" {outcome} differs from rep 0 {first[k]}")
    gap = 0.0
    for k, (cell, kept) in enumerate(zip(cells, reps[0].results)):
        if kept is None:
            continue
        result, report = kept
        found = _output_problems(cell, result, report)
        if found:
            bad.update((r, k) for r in range(len(reps)))
            problems.extend(f"{cell.label}: {p}" for p in found)
        gap = max(gap, node_gap(result))
    return len(bad), problems, max(gap, NODE_GAP_RESOLUTION)


def _output_problems(cell, result, report) -> list[str]:
    found = []
    try:
        result.state.audit_flow(tol=AUDIT_TOL)
    except AssertionError as exc:
        found.append(f"audit_flow: {exc}")
    for row in report.rows:
        if row.outflow_mass > row.inflow_mass + MASS_TOL:
            found.append(f"commodity {row.commodity} delivers "
                         f"{row.outflow_mass} > inflow {row.inflow_mass}")
    if cell.tie_check and abs(report.avg_tt - workloads.TIE_AVG_TT) > TIE_TOL:
        found.append(f"avg_tt {report.avg_tt!r} != {workloads.TIE_AVG_TT}")
    return found


def node_gap(result) -> float:
    """Worst node-conservation gap over commodities, nodes and breakpoints,
    relative to the commodity's injected mass.

    Flow of a commodity entering a node other than its sink (from in-edges,
    or injected at its source) must leave it at once on out-edges; compared
    as cumulative functions from the flow state's public accessors.
    """
    scenario = result.scenario
    net, state, horizon = scenario.network, result.state, scenario.horizon
    worst = 0.0
    for i, c in enumerate(scenario.commodities):
        injected = c.inflow.cumulative()
        mass = injected(horizon)
        for v in net.nodes:
            if v == c.sink:
                continue
            arriving = [state.outflow_fn(i, e.id).cumulative()
                        for e in net.in_edges[v]]
            leaving = [state.inflow_fn(i, e.id).cumulative()
                       for e in net.out_edges[v]]
            if v == c.source:
                arriving.append(injected)
            times = {horizon}
            for f in arriving + leaving:
                times.update(t for t in f.times if t <= horizon)
            for t in times:
                diff = sum(f(t) for f in arriving) - sum(f(t) for f in leaving)
                worst = max(worst, abs(diff) / mass)
    return worst


# ---------------------------------------------------------------- metrics


def end_to_end_metrics(reps, setup_s, gap, failed, attempted):
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": (statistics.median(r.wall_s for r in reps), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in reps), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "node_gap": (gap, "ratio"),
        "pass_rate": ((attempted - failed) / attempted, "ratio"),
    }


def layer_metrics(reps, import_s):
    traced = [r for r in reps if r.traced is not None]
    untraced = [r for r in reps if r.traced is None]
    out = {}
    for name in traced[0].traced:
        unit = _unit(name)
        # counts repeat exactly; median_low keeps them whole numbers
        middle = statistics.median if unit == "s" else statistics.median_low
        out[name] = (middle(r.traced[name] for r in traced), unit)
    del out["trace.span_s"]
    out["network.import_s"] = (import_s, "s")
    kept = [k for k in reps[0].results if k is not None]
    busy = total = queue_bps = changes = 0
    for result, _ in kept:
        state, net = result.state, result.scenario.network
        total += len(net.edges)
        for e in net.edges:
            busy += any(any(state.inflow_fn(i, e.id).values)
                        for i in range(state.n_commodities))
            queue_bps += len(state.queue_fn(e.id).times)
        changes += sum(ev.kind == "route_change" for ev in result.events)
    out["flow_state.busy_share"] = (busy / total, "ratio")
    out["flow_state.queue_breakpoints"] = (queue_bps, "count")
    out["simulation.route_changes"] = (changes, "count")
    traced_s = statistics.median(r.wall_s for r in traced)
    out["trace.run_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (
        traced_s - statistics.median(r.wall_s for r in untraced), "s")
    return out


def _unit(name):
    return "s" if name.endswith("_s") else "count"


def _summary(workload, reps, metrics) -> str:
    walls = sorted(r.wall_s for r in reps if r.traced is None)
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    line = (f"{workload}: {len(walls)} untraced repetitions, run_s median "
            f"{statistics.median(walls):.4f} q1 {q[0]:.4f} q3 {q[2]:.4f}")
    traced = [r for r in reps if r.traced is not None]
    if traced:
        span_s = statistics.median(r.traced["trace.span_s"] for r in traced)
        line += (f"; {len(traced)} traced, spans cover "
                 f"{span_s / metrics['trace.run_s'][0]:.4f} of traced run_s")
    return line


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
