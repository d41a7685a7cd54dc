"""A fixed reference computation that tracks the speed of the machine.

This machine's speed drifts by a quarter and more over seconds to
minutes (other tenants share its cores and caches), which moves every
timed op of a run together.  The timed loop runs `reference_time()`
every REF_EVERY_S seconds, between ops, and run.py divides each op's
latency by the reference time measured around it.  The reference uses
only the standard library, so no change to cantorshift changes it: a
change that makes an op faster makes its scaled latency smaller by the
same share.

The three parts stand for the kinds of work the library does: an
interpreter loop on small ints and a dict, an exact digit expansion with
`Fraction` states and frozen dataclass records, and a table of tuples
indexed by a dict, large enough to leave the first-level caches.  There
is no numpy part: it would add the reference's own arrays to the peak
RSS of workloads that use little numpy, such as `cli`.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# Seconds between two reference measurements in the timed loop.
REF_EVERY_S = 0.2

# Rounds of the parts per measurement; each part's median is kept.
REF_ROUNDS = 3

# A reference measurement that took this long reads as speed 1: scaled
# latencies are in the milliseconds of a machine at which one reference
# round (the geometric mean of the parts) takes this long.  It is the
# median measured on the 2-CPU x86-64 machine the bounds were set on.
REF_NOMINAL_S = 0.65e-3


def _loop() -> int:
    acc = 0
    seen = {}
    for i in range(300):
        acc = (acc * 31 + i) % 1000003
        seen[i % 97] = acc
    b = 3 ** 600
    for k in range(20):
        b = (b * b) % (7 ** 700 + k)
    return acc + len(seen) + b % 11


@dataclass(frozen=True)
class _Digit:
    pos: int
    digit: int
    rest: Fraction


def _expansion() -> int:
    out = 0
    for num, den, base in ((1, 59, 2), (2, 37, 3), (5, 31, 10)):
        x = Fraction(num, den)
        seen = {}
        digits = []
        while x not in seen:
            seen[x] = len(digits)
            y = x * base
            d = int(y)
            x = y - d
            digits.append(_Digit(len(digits), d, x))
        out += len(tuple(d.digit for d in digits)) + seen[x]
    return out


def _table() -> int:
    rows = [(i, i * 7 % 101, str(i)) for i in range(2000)]
    index = {}
    for r in rows:
        index.setdefault(r[1], []).append(r)
    return sum(len(v) for v in index.values()) + sum(r[0] for r in rows[::7])


PARTS = (_loop, _expansion, _table)


def reference_time(rounds: int = REF_ROUNDS) -> float:
    """Seconds for one reference round: the geometric mean over the
    parts of each part's median time over `rounds` rounds."""
    times = [[] for _ in PARTS]
    for _ in range(rounds):
        for part, out in zip(PARTS, times):
            t0 = time.perf_counter()
            part()
            out.append(time.perf_counter() - t0)
    return math.exp(statistics.fmean(math.log(statistics.median(t)) for t in times))
