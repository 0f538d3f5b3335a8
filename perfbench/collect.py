"""Run the benchmark repeatedly, one process at a time, and summarise it.

    python3 perfbench/collect.py --runs 10 --out perfbench/baseline.json

Runs ``run.py`` once per seed (1 .. runs) and workload of BENCHMARK.json,
waits for each process before the next starts, and reports per metric the
median, the quartiles (``statistics.quantiles(n=4)``) and their distance as
a share of the median.  ``--out`` writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace,
               "seeds": list(range(1, args.runs + 1)), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        results, process_s = [], []
        for seed in summary["seeds"]:
            t0 = time.perf_counter()
            results.append(_run_once(bench, workload, seed, args.trace))
            process_s.append(time.perf_counter() - t0)
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "process_s": process_s,
            "metrics": _summarise(results),
        }
        _print(workload, summary["workloads"][workload])
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


def _run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summarise(results):
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else values * 3)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1,
                     "q3": q3,
                     "spread": (q3 - q1) / median if median else None,
                     "values": values}
    return out


def _print(workload, entry):
    print(f"{workload}: attempted {entry['attempted']} failed "
          f"{entry['failed']}, longest process {max(entry['process_s']):.1f} s")
    for name, m in entry["metrics"].items():
        spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
        print(f"  {name:40s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g}"
              f" q3 {m['q3']:<12.6g} spread {spread}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
