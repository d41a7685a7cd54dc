"""Steadiness report: run the benchmark several times and give the spread
of every metric.

    python3 perfbench/steadiness.py --workload digits --seeds 1,1,1,1,2
    python3 perfbench/steadiness.py --workload all --seeds 1,2,3,4,5,6,7,8,9,10

Runs are sequential, so they do not compete for the processor.  For each
metric the report gives the median, the quartile spread (Q3 - Q1, from
statistics.quantiles(values, n=4)) as a share of the median, and that
share against the metric's bound in BENCHMARK.json.  Repeating one seed
measures run-to-run noise; distinct seeds add the spread of the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])
    return {"result": result, "report": report}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    names = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
             else args.workload.split(","))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for name in names:
        runs = [one_run(name, s, bench["run_seconds"]) for s in seeds]
        rows = {}
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            row = {"values": values, "median": statistics.median(values),
                   "spread": spread(values) if len(values) >= 2 and statistics.median(values) else None}
            if bounds.get(metric) and row["spread"] is not None:
                row["spread_over_bound"] = row["spread"] / bounds[metric]
            rows[metric] = row
        summary[name] = {
            "seeds": seeds, "metrics": rows,
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": [r["result"]["failed"] for r in runs],
            "regression_failed": [sum(x["failed"] for x in r["report"]["regression"]) for r in runs],
        }
        for metric, row in rows.items():
            s = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            extra = (f"  ({row['spread_over_bound']:.2f} of bound)"
                     if "spread_over_bound" in row else "")
            print(f"{name:8s} {metric:44s} median {row['median']:.6g}  spread {s}{extra}",
                  flush=True)
    print(json.dumps(summary, sort_keys=True))


if __name__ == "__main__":
    main()
