"""Command line front end.

Subcommands cover the full study pipeline: run one scenario, sweep an inflow
grid, train a regression model on realized queues, replay the oscillating
counterexample, and attach random commodities to an imported network.  All
outputs are deterministic for a fixed scenario and seed.

Exit codes: 0 on success, 1 on input or validation errors, 2 on simulation
failures (non-convergence, stranded flow, predictor misuse).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .flow_state import FlowOverTime
from .network import (
    Commodity,
    ParseError,
    Scenario,
    ValidationError,
    import_edge_list,
    import_tntp,
    load_scenario,
    random_commodities,
    save_scenario,
)
from .predictors import PredictorModeError, train_regression
from .routing import ConvergenceError
from .simulation import (
    StrandedFlowError,
    compute_metrics,
    run,
    run_counterexample_demo,
    run_sweep,
)

log = logging.getLogger("dpeflow")

METRICS_HEADER = ["commodity", "predictor", "total_tt", "avg_tt",
                  "inflow_mass", "outflow_mass"]
EVENTS_HEADER = ["time", "kind", "edge", "commodity", "detail"]
SWEEP_HEADER = ["total_inflow", "predictor", "avg_tt"]
FLOW_FORMAT = "dpe-flow/1"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = os.environ.get("DPE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValidationError, ParseError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ConvergenceError, StrandedFlowError, PredictorModeError) as e:
        print(f"simulation failed: {e}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpeflow",
        description="Dynamic flow simulator with predictive routing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--scenario", required=True, type=Path)
    p_run.add_argument("--out", type=Path, default=None,
                       help="output directory (default: alongside scenario)")
    p_run.add_argument("--epsilon", type=float, default=None,
                       help="override the prediction step")
    p_run.add_argument("--horizon", type=float, default=None)
    p_run.add_argument("--predictor-overrides", default=None,
                       help='JSON like {"0": {"kind": "linear"}} or '
                            '{"*": {"kind": "constant"}}')
    p_run.add_argument("--dump-flow", action="store_true",
                       help="also write the full edge flow trajectories")
    p_run.add_argument("--format", choices=["csv", "json"], default="csv")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="average travel time over an "
                                           "inflow grid, per predictor")
    p_sweep.add_argument("--scenario", required=True, type=Path)
    p_sweep.add_argument("--out", type=Path, default=None)
    p_sweep.add_argument("--grid", required=True,
                         help="LO:HI:N total inflow grid, N points inclusive")
    p_sweep.add_argument("--predictors",
                         default="zero,constant,linear,reg_linear,regression")
    p_sweep.add_argument("--epsilon", type=float, default=None)
    p_sweep.add_argument("--horizon", type=float, default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_train = sub.add_parser("train", help="fit the regression predictor on "
                                           "a realized run")
    p_train.add_argument("--scenario", required=True, type=Path)
    p_train.add_argument("--out", required=True, type=Path,
                         help="model file to write")
    p_train.add_argument("--epsilon", type=float, default=None)
    p_train.add_argument("--horizon", type=float, default=None)
    p_train.add_argument("--lags", type=int, default=10)
    p_train.add_argument("--grid-step", type=float, default=1.0,
                         help="spacing of training sample times")
    p_train.add_argument("--shared", action="store_true",
                         help="one coefficient set for all edges")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.set_defaults(func=cmd_train)

    p_demo = sub.add_parser("demo-counterexample",
                            help="run the oscillating two-route example")
    p_demo.add_argument("--epsilon", type=float, default=0.25)
    p_demo.add_argument("--horizon", type=float, default=50.0)
    p_demo.add_argument("--out", type=Path, default=None)
    p_demo.set_defaults(func=cmd_demo)

    p_gen = sub.add_parser("generate-commodities",
                           help="attach random commodities to a network")
    p_gen.add_argument("--network", required=True, type=Path,
                       help=".tntp table or edge-list csv/json")
    p_gen.add_argument("--out", required=True, type=Path,
                       help="scenario file to write")
    p_gen.add_argument("--count", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--inflow-factor", type=float, default=0.5)
    p_gen.add_argument("--duration", type=float, default=25.0)
    p_gen.add_argument("--horizon", type=float, default=100.0)
    p_gen.add_argument("--epsilon", type=float, default=1.0)
    p_gen.add_argument("--predictors", default="zero,constant,linear,"
                                               "reg_linear,regression")
    p_gen.set_defaults(func=cmd_generate)

    return parser


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    overrides = {}
    if getattr(args, "epsilon", None) is not None:
        overrides["prediction_step"] = args.epsilon
    if getattr(args, "horizon", None) is not None:
        overrides["horizon"] = args.horizon
    specs = getattr(args, "predictor_overrides", None)
    commodities = scenario.commodities
    if specs:
        try:
            table = json.loads(specs)
        except ValueError as exc:
            raise ValueError(f"bad --predictor-overrides: {exc}") from None
        if not isinstance(table, dict):
            raise ValueError(f"bad --predictor-overrides {specs}; expected a "
                             "JSON object")
        commodities = tuple(
            Commodity(c.id, c.source, c.sink, c.inflow,
                      table.get(str(c.id), table.get("*", c.predictor_spec)))
            for c in commodities)
    if overrides or specs:
        scenario = replace(scenario, commodities=commodities, **overrides)
    return scenario


def _out_dir(args) -> Path:
    out = args.out if args.out is not None else args.scenario.parent
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    scenario = _load(args)
    result = run(scenario)
    report = compute_metrics(result)
    out = _out_dir(args)

    rows = [[r.commodity, r.predictor, f"{r.total_tt:.9g}", f"{r.avg_tt:.9g}",
             f"{r.inflow_mass:.9g}", f"{r.outflow_mass:.9g}"]
            for r in report.rows]
    if args.format == "csv":
        _write_csv(out / "metrics.csv", METRICS_HEADER, rows)
        _write_csv(out / "events.csv", EVENTS_HEADER,
                   [[f"{e.time:.9g}", e.kind,
                     "" if e.edge is None else e.edge,
                     "" if e.commodity is None else e.commodity, e.detail]
                    for e in result.events])
    else:
        payload = {
            "metrics": [dict(zip(METRICS_HEADER, r)) for r in rows],
            "events": [{"time": e.time, "kind": e.kind, "edge": e.edge,
                        "commodity": e.commodity, "detail": e.detail}
                       for e in result.events],
        }
        (out / "run.json").write_text(json.dumps(payload, indent=1) + "\n")
    if args.dump_flow:
        _dump_flow(out / "flow.json", scenario, result.state)
    log.info("run finished: %d rounds, %d events",
             len(result.rounds), len(result.events))
    return 0


def cmd_sweep(args) -> int:
    scenario = _load(args)
    bad = ValueError(f"bad grid {args.grid!r}; expected LO:HI:N")
    try:
        lo, hi, n = args.grid.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise bad from None
    if n < 1 or not lo <= hi:
        raise bad
    totals = [lo + (hi - lo) * k / (n - 1) for k in range(n)] if n > 1 else [lo]
    kinds = [k.strip() for k in args.predictors.split(",") if k.strip()]
    rows = run_sweep(scenario, totals, kinds, jobs=args.jobs)
    out = _out_dir(args)
    if args.format == "csv":
        _write_csv(out / "sweep.csv", SWEEP_HEADER,
                   [[f"{total:.9g}", kind, f"{avg:.9g}"]
                    for total, kind, avg in rows])
    else:
        (out / "sweep.json").write_text(json.dumps(
            [{"total_inflow": t, "predictor": k, "avg_tt": a}
             for t, k, a in rows], indent=1) + "\n")
    return 0


def cmd_train(args) -> int:
    scenario = _load(args)
    # training traces always come from the plain constant predictor
    comms = tuple(Commodity(c.id, c.source, c.sink, c.inflow,
                            {"kind": "constant"})
                  for c in scenario.commodities)
    scenario = replace(scenario, commodities=comms)
    result = run(scenario)
    params = scenario.predictor_params
    model = train_regression(
        result.state,
        lags=args.lags,
        samples=params.samples,
        sample_step=params.sample_step,
        neighborhood_radius=params.neighborhood_radius,
        grid_step=args.grid_step,
        shared=args.shared,
        seed=args.seed,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    model.save(args.out)
    worst = min(model.scores.values())
    log.info("trained %d coefficient sets, worst holdout R^2 %.4f",
             len(model.coefficients), worst)
    return 0


def cmd_demo(args) -> int:
    demo = run_counterexample_demo(args.epsilon, args.horizon)
    lines = [
        f"rounds: {demo['rounds']}",
        f"route flips: {demo['flips']}",
        f"short-route queue at t=1: {demo['short_queue_at_1']:.9g}",
    ]
    tail = demo["queue_trace"][-8:]
    lines.append("last queue samples: "
                 + ", ".join(f"({t:g}, {q:g})" for t, q in tail))
    text = "\n".join(lines)
    print(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    return 0


def cmd_generate(args) -> int:
    path = args.network
    if path.suffix == ".tntp":
        net = import_tntp(path)
    else:
        net = import_edge_list(path)
    kinds = [k.strip() for k in args.predictors.split(",") if k.strip()]
    commodities = random_commodities(
        net, args.count, seed=args.seed, inflow_factor=args.inflow_factor,
        inflow_cutoff=args.duration,
        predictor_kinds=tuple({"kind": k} for k in kinds))
    scenario = Scenario(network=net, commodities=commodities,
                        prediction_step=args.epsilon, horizon=args.horizon,
                        seed=args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario, args.out)
    return 0


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _dump_flow(path: Path, scenario: Scenario, state: FlowOverTime) -> None:
    edges = []
    for e in scenario.network.edges:
        q = state.queue_fn(e.id)
        agg = state.aggregate_outflow_fn(e.id)
        edges.append({
            "edge": e.id,
            "queue": {"times": list(q.times), "values": list(q.values)},
            "outflow": {"times": list(agg.times), "rates": list(agg.values)},
            "inflow": {
                str(i): {"times": list(f.times), "rates": list(f.values)}
                for i in range(len(scenario.commodities))
                for f in [state.inflow_fn(i, e.id)]
                if any(r != 0.0 for r in f.values)},
        })
    payload = {"format": FLOW_FORMAT, "horizon": scenario.horizon,
               "edges": edges}
    path.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
