"""Benchmark for cantorshift: one command, one process, one closed-loop client.

    python3 perfbench/run.py --workload digits --seed 1 --seconds 22 --trace 0

Workloads (see each wl_*.py): digits, salem, gk, cli.  Inputs come from
(workload, seed, pass index).  A run builds the workload, runs one
untimed warm-up pass with extra cross-checks, then times complete passes
for --seconds of wall time, checking every output.  It then runs the
workload's probes (cli: each README example as a fresh process), its
regression rows (known slow or wrong cases, under the per-op deadline,
reported apart from the mix) and measures set-up time in fresh
interpreters.

Latencies and ops/s are reported at the nominal machine speed: the
timed loop measures a fixed reference computation every 0.2 s and
each op's latency is scaled by the reference time around it (see
reference.py), so that the machine's own drift of speed, which moves all
ops together, does not read as a change of the library.  The report
line also gives the unscaled figures, the latency by op kind (also
unscaled) and the reference times.

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced and the same passes again with every layer function wrapped,
and prints the per-layer metrics (per pass) and the tracing overhead.
The line before the last is a report with sample counts, percentiles
by name, failure details, regression rows and per-function tables; the
last line is the result object.  The exit code is 0 whenever a result
is printed, and 2 when the sources to benchmark are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys

from harness import (DEADLINE_S, SRC, Tally, Tracer, kind_summary, latency_summary,
                     measure_setup, run_op, run_passes, wall_of, warm_up)

WORKLOADS = {"digits": "wl_digits", "salem": "wl_salem", "gk": "wl_gk", "cli": "wl_cli"}

SETUP_REPS = 7

# name -> (unit, better, source); the source is a traced function and one
# of its per-pass quantities, or a key of the `extra` dict in run().
PER_LAYER = {
    "numeral.expand_exact.digits": ("count", "lower", ("numeral.expand_exact", "digits")),
    "numeral.expand.self_ms": ("ms", "lower", ("numeral.expand", "self_ms")),
    "numeral.expand_exact.self_ms": ("ms", "lower", ("numeral.expand_exact", "self_ms")),
    "numeral.eval_prefix.self_ms": ("ms", "lower", ("numeral.eval_prefix", "self_ms")),
    "shifts.shift_n.self_ms": ("ms", "lower", ("shifts.shift_n", "self_ms")),
    "shifts.gen_shift.self_ms": ("ms", "lower", ("shifts.gen_shift", "self_ms")),
    "shifts.apply_program.self_ms": ("ms", "lower", ("shifts.apply_program", "self_ms")),
    "salem.evaluate.terms": ("count", "lower", ("salem.evaluate", "terms")),
    "salem.evaluate.inexact_ratio": ("ratio", "lower", "inexact_ratio"),
    "salem.evaluate.self_ms": ("ms", "lower", ("salem.evaluate", "self_ms")),
    "salem.residual.self_ms": ("ms", "lower", ("salem.residual", "self_ms")),
    "salem.emit_table.self_ms": ("ms", "lower", ("salem.emit_table", "self_ms")),
    "salem.mc_mean.samples_per_s": ("1/s", "higher", ("salem.mc_mean", "per_s")),
    "salem.mc_mean.sample_terms": ("count", "lower", ("salem.mc_mean", "sample_terms")),
    "gausskuzmin.measure_bounds.self_ms": ("ms", "lower", ("gausskuzmin.measure_bounds", "self_ms")),
    "gausskuzmin.measure_bounds.undecided_mass": (
        "mass", "lower", ("gausskuzmin.measure_bounds", "undecided_mass")),
    "gausskuzmin.limit_scan.self_ms": ("ms", "lower", ("gausskuzmin.limit_scan", "self_ms")),
    "gausskuzmin.measure_mc.samples_per_s": ("1/s", "higher", ("gausskuzmin.measure_mc", "per_s")),
    "cli.main.self_ms": ("ms", "lower", ("cli.main", "self_ms")),
    "cli.import_ms": ("ms", "lower", "cli_import"),
    "cli.interpreter_ms": ("ms", "lower", "interpreter"),
    "cli.process_ms": ("ms", "lower", "process"),
    "trace.overhead_pct": ("%", "lower", "overhead"),
    "regress.failed": ("count", "lower", "regress_failed"),
    "regress.ms": ("ms", "lower", "regress_ms"),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_regression(wl) -> list:
    rows = []
    for op in wl.regression:
        t = Tally()
        run_op(op, t, keep=True)
        rows.append({"op": op.label, "ms": t.latencies[0] * 1e3,
                     "failed": bool(t.failed),
                     "error": t.failures[0]["error"] if t.failures else None})
    return rows


def layer_metrics(table: dict, extra: dict) -> dict:
    out = {}
    for name, (unit, _, src) in PER_LAYER.items():
        if isinstance(src, tuple):
            row = table.get(src[0], {})
            if src[1] == "per_s":
                busy_s = row.get("busy_ms", 0.0) / 1e3
                value = row.get("samples", 0) / busy_s if busy_s else 0.0
            else:
                value = row.get(src[1], 0)
        elif src == "inexact_ratio":
            row = table.get("salem.evaluate", {})
            value = row["inexact"] / row["results"] if row.get("results") else 0.0
        else:
            value = extra.get(src, 0.0)
        out[name] = {"value": value, "unit": unit}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, passes=None,
        setup_reps: int = SETUP_REPS):
    """Run one workload; returns (result, report).  `passes` fixes the
    number of timed passes instead of timing for `seconds`."""
    mod = importlib.import_module(WORKLOADS[workload])
    spec = json.loads(json.dumps(mod.make_spec(seed)))  # as the set-up probe sees it
    wl = mod.build(spec)
    import cantorshift
    if os.path.dirname(os.path.dirname(os.path.abspath(cantorshift.__file__))) != SRC:
        raise RuntimeError(f"cantorshift imported from {cantorshift.__file__}, not {SRC}")

    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "deadline_s": DEADLINE_S,
              "shares": wl.shares()}
    tally = Tally()
    warm_up(wl, tally)
    # garbage collections then scan what the timed ops allocate, not the
    # modules and workload objects that exist before timing starts
    gc.collect()
    gc.freeze()
    half = seconds / 2 if trace else seconds
    timed_tally = run_passes(wl, Tally(), seconds=half, passes=passes)
    rss = peak_rss_mb()
    probes = Tally()
    for op in getattr(wl, "probes", list)():
        run_op(op, probes, keep=True)
    tallies = [tally, timed_tally, probes]
    extra = {}
    if probes.latencies:
        extra["process"] = statistics.median(probes.latencies) * 1e3
        report["process_ms"] = {"samples": len(probes.latencies), "p50_ms": extra["process"]}
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(wl, Tally(), passes=timed_tally.passes, tracer=tracer)
        finally:
            tracer.uninstall()
        tallies.append(traced)
        extra["overhead"] = (sum(traced.scaled()) / sum(timed_tally.scaled()) - 1) * 100
        report["layers"] = tracer.table(traced.passes)
        if workload == "cli":
            extra["cli_import"] = statistics.median(
                measure_setup(WORKLOADS["cli"], spec, setup_reps)) * 1e3
            extra["interpreter"] = statistics.median(
                wall_of([sys.executable, "-c", "pass"], 5)) * 1e3

    regression = run_regression(wl)
    extra["regress_failed"] = sum(r["failed"] for r in regression)
    extra["regress_ms"] = sum(r["ms"] for r in regression)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = sum(t.wrong for t in tallies)
    summary = latency_summary(timed_tally.scaled(), wl.tail_pct)
    refs_ms = [r * 1e3 for r in timed_tally.refs]
    report.update({
        "passes": timed_tally.passes,
        "latency": summary,
        "latency_unscaled": latency_summary(timed_tally.latencies, wl.tail_pct),
        "reference_ms": {"samples": len(refs_ms), "p50": statistics.median(refs_ms),
                         "min": min(refs_ms), "max": max(refs_ms)},
        "latency_by_kind": kind_summary(timed_tally.by_kind),
        f"latency_p{wl.tail_pct}_ms": summary[f"p{wl.tail_pct}_ms"],
        "max_op_ms": timed_tally.max_op[0] * 1e3,
        "max_op": timed_tally.max_op[1],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "fail_ratio_with_regression": (failed + extra["regress_failed"])
                                      / (attempted + len(regression)),
        "failures": [f for t in tallies for f in t.failures][:10],
        "regression": regression,
    })

    if trace:
        metrics = layer_metrics(report.get("layers", {}), extra)
        report["trace_overhead_pct"] = extra["overhead"]
    else:
        setup = measure_setup(WORKLOADS[workload], spec, setup_reps)
        report["setup_s_samples"] = setup
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": summary["ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": summary["p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": summary[f"p{wl.tail_pct}_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        report["peak_rss_mb"] = rss
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    gc.unfreeze()
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cantorshift", "__init__.py")):
        print(f"perfbench: no cantorshift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
