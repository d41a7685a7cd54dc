"""Self-test of the benchmark on a tiny op count (one timed pass).

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that a wrong answer injected into the library is counted as a
failed op, that latencies are scaled by the reference time around them,
that the reference arithmetic agrees with the library where the library
is exact, and that the CLI examples are the README's.
"""

from __future__ import annotations

import json
import os
import shlex
import sys
from fractions import Fraction as F

import pytest

import oracle
import run
import wl_cli
from harness import ROOT, SRC, Tally
from reference import REF_NOMINAL_S, reference_time

sys.path.insert(0, SRC)

import cantorshift as cs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def tiny(workload, trace=False):
    return run.run(workload, seed=7, seconds=0, trace=trace, passes=1, setup_reps=1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload):
    result, report = tiny(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["passes"] == 1 and report["latency"]["samples"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_named_with_units(workload):
    result, report = tiny(workload, trace=True)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["correct"] and result["failed"] == 0
    assert "trace_overhead_pct" in report and report["layers"]


def _wrong_shift(real):
    def shift_n(x, q, n):
        out = real(x, q, n)
        return out / 2 if isinstance(out, F) else out
    return shift_n


def _wrong_evaluate(real):
    def evaluate(x, q, system, tol=F(1, 10**9)):
        r = real(x, q, system, tol)
        return cs.EvalResult(r.value + F(1, 1000), r.error_bound, r.terms)
    return evaluate


def _wrong_bounds(real):
    def measure_bounds(spec, depth):
        b = real(spec, depth)
        return cs.MeasureBounds(b.upper + F(1, 100), b.upper + F(1, 100), depth, b.decided_mass)
    return measure_bounds


@pytest.mark.parametrize("workload, name, wrap", [
    ("digits", "shift_n", _wrong_shift),
    ("salem", "evaluate", _wrong_evaluate),
    ("gk", "measure_bounds", _wrong_bounds),
])
def test_injected_wrong_answer_counts_as_failure(monkeypatch, workload, name, wrap):
    monkeypatch.setattr(cs, name, wrap(getattr(cs, name)))
    result, report = tiny(workload)
    assert result["failed"] > 0 and not result["correct"]
    assert report["fail_ratio"] > 0
    assert all("wrong output" in f["error"] for f in report["failures"])


def test_latencies_scaled_by_reference_around_them():
    t = Tally(refs=[1.0] * 4 + [2.0] * 4, latencies=[0.5, 0.5, 0.5], segments=[0, 2, 7])
    assert t.scaled() == pytest.approx([0.5 * REF_NOMINAL_S, 0.5 * REF_NOMINAL_S,
                                        0.25 * REF_NOMINAL_S])
    # one disturbed measurement among steady ones does not move the scale
    t = Tally(refs=[1.0, 1.0, 9.0, 1.0, 1.0], latencies=[1.0], segments=[2])
    assert t.scaled() == pytest.approx([REF_NOMINAL_S])
    assert 0 < reference_time(rounds=1) < 1


def test_cli_examples_are_the_readme_examples():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## Command line")[1].split("```sh")[1].split("```")[0]
    examples, cur = [], None
    for line in block.replace("\\\n", " ").strip("\n").split("\n"):
        if line.startswith("$ "):
            cur = [shlex.split(line[2:])[1:], ""]
            examples.append(cur)
        elif not line.strip():
            cur = None
        elif cur is not None:
            cur[1] += line + "\n"
    assert [tuple(e) for e in examples] == [(list(a), o) for a, o in wl_cli.EXAMPLES]


@pytest.mark.parametrize("x", [F(5, 6), F(1, 7), F(3, 8), F(11, 12), F(2, 35)])
def test_oracle_agrees_with_library(x):
    for head, cycle in [((), (2,)), ((), (2, 3)), ((2, 3), (4,)), ((), (10,))]:
        q, ref = cs.QSequence(head, cycle), oracle.Base(head, cycle)
        pre, per = oracle.expansion(x, ref)
        d = cs.expand_exact(x, q)
        assert oracle.digits_value(d.prefix, d.tail.period, ref) == x
        assert oracle.digits_value(pre, per, ref) == x
        for n in range(1, 5):
            assert cs.shift_n(x, q, n) == oracle.frac_shift(x, ref, n)
            assert cs.gen_shift(x, q, n) == oracle.gen_shift_value(x, ref, n)
    for k in range(1, 9):
        t = F(k, 16)
        for sys_kwargs, system in [
            ({"weights": [F(1, 3), F(2, 3)]}, cs.SalemSystem.fixed([F(1, 3), F(2, 3)])),
            ({"weights": [F(1, 3), F(2, 3)], "swap_pairs": True},
             cs.SalemSystem.fixed([F(1, 3), F(2, 3)], reorder=cs.Reorder("rule", name="swap-pairs"))),
        ]:
            r = cs.evaluate(t, 2, system)
            assert r.error_bound == 0 and r.value == oracle.salem_value(t, **sys_kwargs)
    signed = [F(3, 5), F(-1, 5), F(3, 5)]
    r = cs.evaluate(F(7, 27), 3, cs.SalemSystem.fixed(signed))
    assert r.error_bound == 0 and r.value == oracle.salem_value(F(7, 27), weights=signed)
    columns = [[F(k + 1, 2 * k + 3), F(k + 2, 2 * k + 3)] for k in range(12)]
    r = cs.evaluate(x, 2, cs.SalemSystem.matrix(columns))
    assert r.error_bound == 0 and r.value == oracle.salem_value(x, columns=columns)
    assert oracle.salem_mean(columns=columns) == cs.integral(cs.SalemSystem.matrix(columns))
    system = cs.SalemSystem.fixed([F(9, 10), F(1, 10)])
    r = cs.evaluate(x, 2, system)
    assert abs(r.value - oracle.salem_value(x, weights=[F(9, 10), F(1, 10)])) <= r.error_bound
    assert oracle.salem_mean(weights=[F(1, 3), F(2, 3)]) == cs.integral(
        cs.SalemSystem.fixed([F(1, 3), F(2, 3)]))
