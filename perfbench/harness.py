"""Closed-loop timing, per-op deadline, tracing and set-up probes.

One client runs a workload's ops back to back, in complete passes, and
waits for each result before sending the next.  Each op runs under the
per-op deadline; its latency covers the library call only.  The output
check runs after the clock stops.  Between ops, every REF_EVERY_S
seconds, the loop times the fixed reference of reference.py, by which
Tally.scaled() brings each latency to the nominal machine speed.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from reference import REF_EVERY_S, REF_NOMINAL_S, reference_time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Every op of a workload mix stays under a tenth of this at the seed; the
# regression rows are the only ops expected to reach it.
DEADLINE_S = 3.0

INV_PHI = (math.sqrt(5) - 1) / 2

# Input denominators repeat every DEN_CYCLE passes (numerators do not), so
# every run reaches the same largest periods, which set peak memory,
# however many passes the machine's speed allows.
DEN_CYCLE = 16


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so library code
    that catches ValueError or Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Op:
    """One library call and the check of its result.

    `check(result)` returns True for a correct output.  `warm_check`, when
    set, is a dearer cross-check that runs on the warm-up pass only."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    warm_check: Optional[Callable[[object], bool]] = None
    label: str = ""


def timed(call):
    """(seconds, result, error) for one call under the deadline."""
    if signal.getsignal(signal.SIGALRM) is not _on_alarm:
        signal.signal(signal.SIGALRM, _on_alarm)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            t0 = time.perf_counter()
            result = call()
            dt = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return DEADLINE_S, None, "deadline"
    except Exception as exc:  # an undocumented exception is a failed op
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"[:200]
    return dt, result, None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    latencies: list = field(default_factory=list)
    by_kind: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    passes: int = 0
    max_op: tuple = (0.0, "")
    # reference times measured during the timed loop, and for each kept
    # latency the index of the last one measured before it
    refs: list = field(default_factory=list)
    segments: list = field(default_factory=list)

    def record(self, op: Op, dt: float, error: Optional[str], keep: bool):
        self.attempted += 1
        if keep:
            self.latencies.append(dt)
            self.segments.append(len(self.refs) - 1)
            self.by_kind.setdefault(op.kind, []).append(dt)
            if dt > self.max_op[0]:
                self.max_op = (dt, op.label or op.kind)
        if error is not None:
            self.failed += 1
            if error != "deadline":
                self.wrong += 1
            if len(self.failures) < 10:
                self.failures.append({"op": op.label or op.kind, "error": error})

    def scaled(self) -> list:
        """Latencies at the nominal machine speed.  An op between reference
        measurements i and i+1 is scaled by the median of measurements
        i-1 .. i+2, which follows the machine's speed over about a second
        and is not thrown by one disturbed measurement."""
        refs = self.refs
        factor = [REF_NOMINAL_S / statistics.median(refs[max(i - 1, 0):i + 3])
                  for i in range(len(refs))]
        return [dt * factor[i] for dt, i in zip(self.latencies, self.segments)]


def run_op(op: Op, tally: Tally, keep: bool, warm: bool = False, tracer=None):
    if tracer is not None:
        tracer.active = True
    try:
        dt, result, error = timed(op.call)
    finally:
        if tracer is not None:
            tracer.active = False
    if error is None:
        try:
            ok = op.check(result) and (not warm or op.warm_check is None
                                       or op.warm_check(result))
        except Exception as exc:
            ok = False
            error = f"check raised {type(exc).__name__}: {exc}"[:200]
        if not ok and error is None:
            error = f"wrong output: {result!r}"[:200]
    tally.record(op, dt, error, keep)


def run_passes(workload, tally: Tally, seconds: float = 0.0, passes=None,
               tracer=None) -> Tally:
    """Run complete passes 1, 2, ... until `seconds` of wall time have gone
    by, or exactly `passes` of them.  The reference is measured before the
    first op, after the last, and between ops every REF_EVERY_S seconds."""
    start = time.perf_counter()
    tally.refs.append(reference_time())
    next_ref = time.perf_counter() + REF_EVERY_S
    p = 1
    while True:
        if passes is not None:
            if p > passes:
                break
        elif p > 1 and time.perf_counter() - start >= seconds:
            break
        for op in workload.pass_ops(p):
            run_op(op, tally, keep=True, tracer=tracer)
            if time.perf_counter() >= next_ref:
                tally.refs.append(reference_time())
                next_ref = time.perf_counter() + REF_EVERY_S
        tally.passes += 1
        p += 1
    tally.refs.append(reference_time())
    return tally


def warm_up(workload, tally: Tally):
    """Pass 0: untimed, checked, including the warm-up cross-checks."""
    for op in workload.pass_ops(0):
        run_op(op, tally, keep=False, warm=True)


def log_uniform_den(i: int, lo: int, hi: int) -> int:
    """The i-th denominator of a golden-ratio sequence, log-uniform on [lo, hi].

    The sequence does not depend on the seed: cost follows the period,
    an erratic function of the denominator, so seeded denominators
    would make the run's cost profile differ from seed to seed.  Seeds
    vary the numerators and the op order instead."""
    u = (0.5 + i * INV_PHI) % 1.0
    return int(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def kind_summary(by_kind: dict) -> dict:
    """Per op kind: sample count, mean, median and largest latency."""
    return {kind: {"samples": len(lat), "mean_ms": statistics.fmean(lat) * 1e3,
                   "p50_ms": statistics.median(lat) * 1e3, "max_ms": max(lat) * 1e3}
            for kind, lat in sorted(by_kind.items())}


def latency_summary(lat, tail_pct: int) -> dict:
    p50 = statistics.median(lat)
    tail = percentile(lat, tail_pct)
    return {"samples": len(lat), "p50_ms": p50 * 1e3,
            f"p{tail_pct}_ms": tail * 1e3,
            f"beyond_p{tail_pct}": sum(1 for v in lat if v > tail),
            "ops_per_s": len(lat) / sum(lat)}


# ---------------------------------------------------------------------------
# Set-up and interpreter probes (fresh processes)
# ---------------------------------------------------------------------------

def bench_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_SETUP_PROBE = """\
import json, sys, time
sys.path[:0] = [{bench!r}, {src!r}]
import {module} as w
spec = json.load(sys.stdin)
t0 = time.perf_counter()
w.build(spec)
print(time.perf_counter() - t0)
"""


def measure_setup(module: str, spec, reps: int = 3) -> list[float]:
    """Seconds to import cantorshift and build the workload's library
    objects, each in a fresh interpreter."""
    code = _SETUP_PROBE.format(bench=BENCH_DIR, src=SRC, module=module)
    out = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(spec),
                              capture_output=True, text=True, timeout=120,
                              env=bench_env(), cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def wall_of(cmd, reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, capture_output=True, timeout=120, env=bench_env(),
                       cwd=ROOT, check=True)
        out.append(time.perf_counter() - t0)
    return out


# ---------------------------------------------------------------------------
# Tracing: wrappers around each layer's public functions
# ---------------------------------------------------------------------------

LAYERS = {
    "numeral": ("expand", "expand_exact", "eval_prefix", "classify_rationality",
                "cylinder_info"),
    "shifts": ("shift_n", "gen_shift", "apply_program", "normalize_program",
               "reconstruct_identity", "drop_positions"),
    "salem": ("evaluate", "residual", "emit_table", "mc_mean", "integral",
              "validate_system"),
    "gausskuzmin": ("measure_bounds", "measure_mc", "limit_scan"),
    "cli": ("main",),
}


# per-call quantities recorded beside the times, by traced function
COUNTERS = {
    "numeral.expand_exact": lambda r: {"digits": len(r.prefix) + len(r.tail.period)},
    "salem.evaluate": lambda r: {"results": 1, "terms": r.terms, "inexact": int(r.error_bound > 0)},
    "salem.mc_mean": lambda r: {"samples": r.samples, "sample_terms": r.samples * r.terms},
    "gausskuzmin.measure_bounds": lambda r: {"undecided_mass": float(r.upper - r.lower)},
    "gausskuzmin.measure_mc": lambda r: {"samples": r.samples},
}


class Tracer:
    """Replaces each layer function, in every cantorshift namespace that
    holds it, with a wrapper recording calls, busy time and self time
    (busy time minus the time of traced calls made inside it)."""

    def __init__(self):
        self.calls: dict = {}
        self.busy: dict = {}
        self.self_time: dict = {}
        self.counters: dict = {}
        self.active = False
        self._stack: list = []
        self._patched: list = []

    def install(self):
        import cantorshift
        mods = {name: importlib.import_module(f"cantorshift.{name}") for name in LAYERS}
        wrappers = {}
        for mod_name, names in LAYERS.items():
            for fn_name in names:
                fn = getattr(mods[mod_name], fn_name)
                wrappers[id(fn)] = self._wrap(f"{mod_name}.{fn_name}", fn)
        for ns in [cantorshift, *mods.values()]:
            for attr, val in list(vars(ns).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._patched.append((ns, attr, val))
                    setattr(ns, attr, w)

    def uninstall(self):
        for ns, attr, val in reversed(self._patched):
            setattr(ns, attr, val)
        self._patched.clear()

    def _wrap(self, name, fn):
        for d in (self.calls, self.busy, self.self_time):
            d.setdefault(name, 0)
        counter = COUNTERS.get(name)
        counts = self.counters.setdefault(name, {})
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                self.calls[name] += 1
                self.busy[name] += dt
                self.self_time[name] += dt - child
                if stack:
                    stack[-1] += dt
            if counter is not None:
                for key, value in counter(result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def table(self, passes: int) -> dict:
        """Per-function totals divided by the number of traced passes."""
        out = {}
        for name, calls in self.calls.items():
            if calls:
                row = {"calls": calls / passes, "busy_ms": self.busy[name] * 1e3 / passes,
                       "self_ms": self.self_time[name] * 1e3 / passes}
                row.update({k: v / passes for k, v in self.counters[name].items()})
                out[name] = row
        return out
