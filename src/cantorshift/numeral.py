"""Exact digit arithmetic over Cantor-series and q-ary numeral systems.

A base sequence (q_1, q_2, ...) with every q_k >= 2 represents a number
x in [0, 1] as

    x = e_1/q_1 + e_2/(q_1 q_2) + e_3/(q_1 q_2 q_3) + ...

with the k-th digit e_k drawn from {0, ..., q_k - 1}.  The constant base
q_k = q is the ordinary base-q expansion.  Everything in this module is
exact: values are `fractions.Fraction`, digit strings carry a symbolic
tail descriptor instead of a float approximation, and cylinder endpoints
come out as reduced rationals.

Numbers whose expansion terminates (other than 0 and 1) have a second
representation ending in the maximal digits q_k - 1; the all-zero-tail
form is treated as canonical throughout.

Evaluation.  Every exact value in the package is one integer series:
`_series` runs a Horner loop over steps (den, num, ratio) and returns
(N, A, E), the sum N / E and the weight product A / E.  A digit e_k over
base value q_k is the step (q_k, e_k, 1); the Salem functions of
`salem` use (D, c_e, a_e) for weights over a common denominator D.  A
tail that repeats one block of steps forever is closed by `_close`, the
only place H + P_H * B / (1 - P_B) is formed, from the head's sum and
product and the block's: `_close(steps, K)` sums the head steps[:K] and
the block steps[K:].  A `DigitString` says how its zero, max or periodic
tail continues: `digit` for one position, `digits_to` and `tail_past`
for a run of them.  Where its repeating block starts and how long it is
comes from one rule, `DigitString._block`: the range check, `eval_prefix`
and the Salem closure all read it.

Base values.  A loop over positions reads its base values from one
window, `QSequence.values(start, stop)`, a tuple sliced from the prefix
and the rotated cycle; `QSequence.at` is for a single lookup.  Only the
greedy scan, whose length is not known in advance, reads an endless
iterator over the prefix and the repeated cycle instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle
from math import gcd, lcm, prod
from typing import Optional, Union

from .errors import (
    MAX_EXPAND_DEPTH, MAX_EXPONENT, MAX_PROBE, DomainError, InsufficientDepthError,
    json_decoder, json_int, json_list,
)

__all__ = [
    "QSequence",
    "Tail",
    "ZERO_TAIL",
    "MAX_TAIL",
    "periodic_tail",
    "truncated_tail",
    "DigitString",
    "Interval",
    "Cylinder",
    "ClassifyResult",
    "expand",
    "expand_exact",
    "eval_prefix",
    "classify_rationality",
    "cylinder_info",
    "parse_rational",
    "format_rational",
]

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "num/den", integer, or decimal notation into a Fraction.

    A decimal exponent larger than `errors.MAX_EXPONENT` in size is
    refused before any power of ten is built."""
    try:
        # a superset of the exponents `Fraction` reads (it takes
        # underscores from Python 3.11 on)
        exp = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", str(text), re.IGNORECASE)
        if exp is None or abs(int(exp.group(1))) <= MAX_EXPONENT:
            return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational number: {text!r}") from exc
    raise DomainError(f"decimal exponent in {text!r} exceeds the limit of {MAX_EXPONENT}")


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "num/den" (always with a denominator)."""
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Base sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QSequence:
    """An infinite base sequence, stored as a finite prefix plus a cycle.

    The sequence is prefix[0], prefix[1], ..., then cycle repeated forever.
    Users build one of three declared kinds (see the classmethods); shift
    and digit-drop operations return derived sequences in the same closed
    form, so downstream arithmetic stays exact.  Equality, hashing, `repr`
    and `to_json` all read the normal form `canonical()`; `to_json` names
    the kind from it.

    A loop over positions reads its base values as one window from
    `values`, not one `at` call per position.
    """

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise DomainError("base sequence needs a nonempty cycle")
        for v in self.prefix + self.cycle:
            if not isinstance(v, int) or v < 2:
                raise DomainError(f"base values must be integers >= 2, got {v!r}")

    @classmethod
    def constant(cls, q: int) -> "QSequence":
        """The constant sequence q, q, q, ... (ordinary base-q digits)."""
        return cls((), (json_int(q),))

    @classmethod
    def periodic(cls, values) -> "QSequence":
        """The purely periodic sequence repeating `values` forever."""
        return cls((), _int_digits(values))

    @classmethod
    def explicit(cls, values) -> "QSequence":
        """An explicitly listed head; continues by repeating the last value."""
        vals = _int_digits(values)
        if not vals:
            raise DomainError("explicit base sequence needs at least one value")
        return cls(vals[:-1], (vals[-1],))

    def at(self, k: int) -> int:
        """The k-th base value, 1-indexed."""
        if k < 1:
            raise DomainError(f"base index must be >= 1, got {k}")
        return self.values(k - 1, k)[0]

    def values(self, start: int, stop: int) -> tuple[int, ...]:
        """(q_{start+1}, ..., q_stop): the base values of positions
        start + 1 to stop, sliced from the prefix and the rotated cycle;
        empty when stop <= start."""
        if start < 0:
            raise DomainError(f"base window must start at >= 0, got {start}")
        pre, cyc = self.prefix, self.cycle
        p = len(pre)
        if stop <= p or stop <= start:  # inside the prefix, or empty
            return pre[start:stop] if stop > start else ()
        if start > p:  # the window opens inside the cycle: rotate it there
            r = (start - p) % len(cyc)
            cyc, p = cyc[r:] + cyc[:r], start
        return pre[start:] + (cyc * -(-(stop - p) // len(cyc)))[:stop - p]

    def partial_product(self, m: int) -> int:
        """q_1 q_2 ... q_m as an exact integer; m = 0 gives 1."""
        return prod(self.values(0, m))

    def shift(self, n: int) -> "QSequence":
        """The sequence with the first n values removed."""
        if n < 0:
            raise DomainError("shift count must be >= 0")
        p = max(n, len(self.prefix))
        return QSequence(self.prefix[n:], self.values(p, p + len(self.cycle)))

    def remove_at(self, m: int) -> "QSequence":
        """The sequence with the m-th value (1-indexed) deleted."""
        if m < 1:
            raise DomainError(f"removal index must be >= 1, got {m}")
        rest = self.shift(m)
        return QSequence(self.values(0, m - 1) + rest.prefix, rest.cycle)

    def canonical(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Normal form (prefix, primitive cycle) identifying the sequence."""
        cyc = list(self.cycle)
        n = len(cyc)
        for d in range(1, n + 1):
            if n % d == 0 and cyc == cyc[:d] * (n // d):
                cyc = cyc[:d]
                break
        pre = list(self.prefix)
        while pre and pre[-1] == cyc[-1]:
            pre.pop()
            cyc = [cyc[-1]] + cyc[:-1]
        return tuple(pre), tuple(cyc)

    def __eq__(self, other):
        if not isinstance(other, QSequence):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def to_json(self) -> dict:
        """JSON form {"kind": ..., "values": [...]}; raises if the sequence
        is pre-periodic with a nontrivial cycle (not expressible)."""
        pre, cyc = self.canonical()
        if not pre and len(cyc) == 1:
            return {"kind": "constant", "values": [cyc[0]]}
        if not pre:
            return {"kind": "periodic", "values": list(cyc)}
        if len(cyc) == 1:
            return {"kind": "explicit", "values": list(pre) + [cyc[0]]}
        raise ValueError("pre-periodic derived sequence has no declared JSON kind")

    @classmethod
    @json_decoder
    def from_json(cls, obj) -> "QSequence":
        if isinstance(obj, (int, float)):
            return cls.constant(obj)
        if isinstance(obj, (list, tuple)):
            return cls.explicit(obj)
        kind = obj.get("kind")
        values = json_list(obj.get("values", []))
        if kind == "constant":
            if len(values) != 1:
                raise DomainError("constant base takes exactly one value")
            return cls.constant(values[0])
        if kind == "periodic":
            return cls.periodic(values)
        if kind == "explicit":
            return cls.explicit(values)
        raise DomainError(f"unknown base kind {kind!r}")

    def __repr__(self):
        pre, cyc = self.canonical()
        if not pre and len(cyc) == 1:
            return f"QSequence.constant({cyc[0]})"
        return f"QSequence(prefix={pre}, cycle={cyc})"


# ---------------------------------------------------------------------------
# Digit strings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tail:
    """Tail descriptor: all zeros, all maximal digits, a repeating pattern,
    or unknown beyond the stored depth."""

    kind: str  # "zero" | "max" | "periodic" | "truncated"
    period: tuple[int, ...] = ()
    depth: int = 0

    def to_json(self):
        if self.kind in ("zero", "max"):
            return self.kind
        if self.kind == "periodic":
            return {"periodic": list(self.period)}
        return {"truncated": self.depth}

    @classmethod
    @json_decoder
    def from_json(cls, obj) -> "Tail":
        if obj in ("zero", "max"):
            return cls(obj)
        if isinstance(obj, dict) and "periodic" in obj:
            return periodic_tail(json_list(obj["periodic"]))
        if isinstance(obj, dict) and "truncated" in obj:
            return truncated_tail(json_int(obj["truncated"]))
        raise DomainError(f"unknown tail form {obj!r}")


ZERO_TAIL = Tail("zero")
MAX_TAIL = Tail("max")


def _int_digits(digits) -> tuple[int, ...]:
    """`digits` (digits, base values or digit positions) as a tuple of
    ints.  One made only of ints passes a single type test; any other
    item is read by `json_int`, so 3.0 and a numpy integer are read, while
    1.5 and booleans are refused.  A string or bytes is refused rather
    than read one character at a time."""
    if isinstance(digits, (str, bytes)):
        raise DomainError(f"expected an iterable of integers, got {digits!r}")
    digits = tuple(digits)
    return digits if set(map(type, digits)) <= {int} else tuple(map(json_int, digits))


def periodic_tail(pattern) -> Tail:
    pattern = _int_digits(pattern)
    if not pattern:
        raise DomainError("periodic tail needs a nonempty pattern")
    return Tail("periodic", period=pattern)


def truncated_tail(depth: int) -> Tail:
    if depth < 0:
        raise DomainError("truncation depth must be >= 0")
    return Tail("truncated", depth=depth)


@dataclass(frozen=True)
class Interval:
    """A closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class DigitString:
    """A digit representation: exact finite prefix plus a tail descriptor.

    The k-th digit must lie in {0, ..., q_k - 1}.  Note that 0 has only the
    all-zero representation; a max tail always denotes a strictly positive
    number.  Equality is structural -- use `eval_prefix` to compare values.
    """

    base: QSequence
    prefix: tuple[int, ...]
    tail: Tail = ZERO_TAIL

    def __post_init__(self):
        prefix = _int_digits(self.prefix)
        object.__setattr__(self, "prefix", prefix)
        t = self.tail
        # a periodic tail is checked up to the end of its first block:
        # past it the (digit, base value) pairs repeat (see `_block`)
        digits = self.digits_to(sum(self._block())) if t.kind == "periodic" else prefix
        qv = self.base.values(0, len(digits))
        for d, q in zip(digits, qv):  # keeps no index: found again on a fault
            if not 0 <= d < q:
                i = next(k for k, (e, v) in enumerate(zip(digits, qv)) if not 0 <= e < v)
                if i < len(prefix):
                    raise DomainError(
                        f"digit {digits[i]} at position {i + 1} outside range 0..{qv[i] - 1}")
                raise DomainError(
                    f"periodic tail digit {digits[i]} outside range at position {i + 1}")
        if t.kind == "truncated" and t.depth != len(prefix):
            raise DomainError(
                f"truncated tail depth {t.depth} != prefix length {len(prefix)}")

    def _block(self, r: int = 1, start: int = 0) -> tuple[int, int]:
        """(K, T): K is the first multiple of r at or past max(depth,
        base prefix, start), and from position K + 1 on the (digit, base
        value) pairs repeat every T = lcm(tail period or 1, base cycle, r)
        positions; a zero or max tail has period 1."""
        K = -(-max(len(self.prefix), len(self.base.prefix), start) // r) * r
        return K, lcm(len(self.tail.period) or 1, len(self.base.cycle), r)

    @property
    def depth(self) -> int:
        return len(self.prefix)

    def digit(self, k: int) -> int:
        """The k-th digit, 1-indexed, materializing the tail if needed."""
        if k < 1:
            raise DomainError("digit index must be >= 1")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        t = self.tail
        if t.kind == "max":
            return self.base.at(k) - 1
        if t.kind == "truncated":
            raise InsufficientDepthError(
                f"digit {k} unknown: string truncated at depth {t.depth}", required=k)
        pat = t.period or (0,)  # a zero tail repeats the digit 0
        return pat[(k - len(self.prefix) - 1) % len(pat)]

    def digits_to(self, n: int) -> tuple[int, ...]:
        """The first n digits, continuing the prefix by the tail past it."""
        d = len(self.prefix)
        if n <= d:
            return self.prefix[:n]
        t = self.tail
        if t.kind == "truncated":
            raise InsufficientDepthError(
                f"cannot materialize to depth {n}: truncated at {d}", required=n)
        if t.kind == "max":
            return self.prefix + tuple(v - 1 for v in self.base.values(d, n))
        pat = t.period or (0,)
        return self.prefix + pat * ((n - d) // len(pat)) + pat[:(n - d) % len(pat)]

    def tail_past(self, n: int) -> Tail:
        """The tail that continues `digits_to(n)`, for n >= depth."""
        if n < len(self.prefix):
            raise DomainError(f"position {n} lies inside the prefix of depth {len(self.prefix)}")
        t = self.tail
        if t.kind != "periodic":
            return t
        r = (n - len(self.prefix)) % len(t.period)
        return Tail("periodic", period=t.period[r:] + t.period[:r])

    def materialize(self, n: int) -> "DigitString":
        """An equal-valued string whose explicit prefix has length >= n."""
        if n <= len(self.prefix):
            return self
        return DigitString(self.base, self.digits_to(n), self.tail_past(n))

    def to_json(self) -> dict:
        return {"prefix": list(self.prefix), "tail": self.tail.to_json()}

    @classmethod
    def from_json(cls, obj, base: QSequence) -> "DigitString":
        # the prefix list is read before the tail, and its digits after it
        # by the constructor
        prefix = json_list(obj.get("prefix", []))
        return cls(base, prefix, Tail.from_json(obj.get("tail", "zero")))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _series(steps) -> tuple[int, int, int]:
    """(N, A, E) for steps (den_k, num_k, ratio_k): N / E is the sum of
    num_k / den_k * prod_{j<k} ratio_j / den_j and A / E the product of
    all ratio_k / den_k, in integers.

    A digit e_k over base value q_k is the step (q_k, e_k, 1).
    """
    n, a, e = 0, 1, 1
    for den, num, ratio in steps:
        n = n * den + num * a
        a *= ratio
        e *= den
    return n, a, e


def _close(steps, K: int) -> Fraction:
    """H + P_H * B / (1 - P_B) for the `_series` sums of the head
    steps[:K] and of the block steps[K:] that repeats forever after it;
    needs |P_B| < 1."""
    n_head, a_head, e_head = _series(steps[:K])
    n_block, a_block, e_block = _series(steps[K:])
    gap = e_block - a_block  # E_B (1 - P_B)
    return Fraction(n_head * gap + a_head * n_block, e_head * gap)


def _steps(digits, base: QSequence):
    """`_series` steps of digits at positions 1, 2, ... over base."""
    return [(qk, e, 1) for qk, e in zip(base.values(0, len(digits)), digits)]


def eval_prefix(d: DigitString) -> Union[Fraction, Interval]:
    """Exact value of a digit string.

    Zero, max, and periodic tails give an exact Fraction; a truncated tail
    gives the exact interval of all numbers sharing the known prefix.

    Past K = max(depth, base prefix) the (tail phase, base phase) pair
    repeats every T = lcm(tail period, base cycle) positions
    (`DigitString._block`), so the digits after K are one block of T
    digits repeated.
    """
    if d.tail.kind == "truncated":
        return cylinder_info(d.prefix, d.base).interval()
    K, T = d._block()
    return _close(_steps(d.digits_to(K + T), d.base), K)


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------

def _cycle_part(b: int, pi: int) -> int:
    """The largest divisor of b whose prime factors all divide pi."""
    rest, g = b, gcd(b, pi)
    while g > 1:
        rest //= g
        g = gcd(rest, g)
    return b // rest


def _decision_bound(x: Fraction, q: QSequence) -> int:
    # every remainder has denominator dividing x.denominator, so the state
    # machine must repeat or terminate within this many steps
    return len(q.prefix) + x.denominator * len(q.cycle) + 2


def _check_probe(probe: Optional[int]) -> Optional[int]:
    """An explicit probe read as an integer, refused below 0 or past
    `MAX_PROBE`; None is a default and stays None."""
    if probe is None:
        return None
    probe = json_int(probe)
    if probe < 0:
        raise DomainError(f"probe must be >= 0, got {probe}")
    if probe > MAX_PROBE:
        raise DomainError(f"probe {probe} exceeds the limit of {MAX_PROBE}")
    return probe


def _check_unit_interval(x: Fraction):
    if not isinstance(x, Fraction):
        raise DomainError(f"expected an exact Fraction, got {type(x).__name__}")
    if x < 0 or x > 1:
        raise DomainError(f"value {x} outside [0, 1]")


def _resolve(x: Fraction, q: QSequence, limit: int):
    """(digits, exact): the greedy digits of x read within `limit` steps,
    and x's exact string when the scan decided it, else None.

    This is the greedy scan, with remainder-state tracking.  The exact
    string ends in a zero tail when the remainder hits zero (the
    expansion terminates) and in a periodic tail from the first
    recurrence of a (remainder, base-phase) state; x = 1 is the
    all-maximal string, with no digits read.

    Every remainder is a/b over the denominator b of x, so its numerator
    a and the base phase identify the state.  Past the base prefix, one
    base cycle maps a to a * P mod b, where P is the product of the
    cycle, so a lies on a cycle of states iff b / gcd(a, b) is prime to
    P, that is iff the part of b built from P's primes divides a.  The
    first such state is the entry; the scan keeps only it and runs until
    it recurs at the same base phase.
    """
    if x == 1:
        return [], DigitString(q, (), MAX_TAIL)
    pre = len(q.prefix)
    c = len(q.cycle)
    digits: list[int] = []
    a, b = x.numerator, x.denominator
    part = _cycle_part(b, prod(q.cycle))
    entry = start = None
    for k, qk in zip(range(limit), chain(q.prefix, cycle(q.cycle))):
        if a == 0:
            break
        if entry is None:
            if k >= pre and a % part == 0:
                entry, start = k, a
        elif a == start and (k - entry) % c == 0:
            return digits, DigitString(q, tuple(digits[:entry]), periodic_tail(digits[entry:]))
        d, a = divmod(a * qk, b)
        digits.append(d)
    return digits, (DigitString(q, tuple(digits), ZERO_TAIL) if a == 0 else None)


_DEFAULT_PROBE_SLACK = 4096


def expand(x: Fraction, q: QSequence, depth: int,
           probe_limit: Optional[int] = None) -> DigitString:
    """Greedy expansion of x to exactly `depth` digits.

    The tail is ZERO when the expansion terminates within `depth` digits,
    PERIODIC when the digits from position depth+1 on are detected to
    repeat, and TRUNCATED otherwise.  Detection scans remainder states up
    to `probe_limit` steps (default: enough to always decide for small
    denominators, capped at depth + 4096).  `depth` runs from 1 to
    `MAX_EXPAND_DEPTH` (10**6), and an explicit `probe_limit` to at most
    `MAX_PROBE` (10**7).

    x = 1 is represented as the all-maximal-digit string.
    """
    _check_unit_interval(x)
    depth = json_int(depth)
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    if depth > MAX_EXPAND_DEPTH:
        raise DomainError(f"depth {depth} exceeds the limit of {MAX_EXPAND_DEPTH}")
    probe_limit = _check_probe(probe_limit)
    if probe_limit is None:
        probe_limit = min(_decision_bound(x, q),
                          max(depth, len(q.prefix)) + _DEFAULT_PROBE_SLACK)
    digits, exact = _resolve(x, q, max(probe_limit, depth))
    if exact is not None and exact.depth <= depth:
        return exact.materialize(depth)
    return DigitString(q, tuple(digits[:depth]), truncated_tail(depth))


def expand_exact(x: Fraction, q: QSequence) -> DigitString:
    """Fully resolved expansion of a rational: ZERO, PERIODIC, or MAX tail.

    Unlike `expand` this never truncates.  The scan bound is derived
    from the denominator of x, so large denominators cost
    proportionally, up to `MAX_PROBE` (10**7) digits: an x whose
    preperiod plus period is longer is refused with a DomainError that
    names the limit.
    """
    _check_unit_interval(x)
    exact = _resolve(x, q, min(_decision_bound(x, q), MAX_PROBE))[1]
    if exact is None:
        raise DomainError(f"the expansion of {x} does not close within the limit of "
                          f"{MAX_PROBE} digits")
    return exact


@dataclass(frozen=True)
class ClassifyResult:
    """Outcome of rationality classification against a base sequence.

    kind is "q-rational" (terminating expansion; both tail forms included,
    except at the endpoints 0 and 1 which have a single representation),
    "q-irrational" (periodic, non-terminating; `certificate` holds the
    exact eventually-periodic string), or "undecided".
    """

    kind: str
    zero_form: Optional[DigitString] = None
    max_form: Optional[DigitString] = None
    certificate: Optional[DigitString] = None
    probe_depth: int = 0


def classify_rationality(x: Fraction, q: QSequence,
                         probe_depth: Optional[int] = None) -> ClassifyResult:
    """Decide whether x has a terminating expansion in base q.

    With the default probe depth the answer is decided unless x's
    preperiod plus period passes `MAX_PROBE` (10**7) digits, where the
    scan stops; then, as with an explicit probe too small for x, it is
    "undecided".  An explicit probe runs to at most `MAX_PROBE` steps.
    """
    _check_unit_interval(x)
    probe_depth = _check_probe(probe_depth)
    if probe_depth is None:
        probe_depth = min(_decision_bound(x, q), MAX_PROBE)
    exact = _resolve(x, q, probe_depth)[1]
    if exact is None:
        return ClassifyResult("undecided", probe_depth=probe_depth)
    kind = exact.tail.kind
    if kind == "periodic":
        return ClassifyResult("q-irrational", certificate=exact, probe_depth=probe_depth)
    if kind == "max":  # x == 1: unique representation
        return ClassifyResult("q-rational", max_form=exact, probe_depth=probe_depth)
    p = exact.prefix  # empty for x == 0, which has one representation
    max_form = DigitString(q, p[:-1] + (p[-1] - 1,), MAX_TAIL) if p else None
    return ClassifyResult("q-rational", zero_form=exact, max_form=max_form,
                          probe_depth=probe_depth)


# ---------------------------------------------------------------------------
# Cylinders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cylinder:
    """All numbers whose first m digits equal a fixed base tuple: a closed
    interval of width 1/(q_1 ... q_m)."""

    base_digits: tuple[int, ...]
    q: QSequence
    inf: Fraction
    sup: Fraction
    measure: Fraction

    @property
    def rank(self) -> int:
        return len(self.base_digits)

    def contains(self, x) -> bool:
        return self.inf <= x <= self.sup

    def interval(self) -> Interval:
        return Interval(self.inf, self.sup)


def cylinder_info(base_digits, q: QSequence) -> Cylinder:
    """Endpoints and exact measure of the cylinder over a digit tuple."""
    d = DigitString(q, base_digits)
    n, a, e = _series(_steps(d.prefix, q))
    return Cylinder(d.prefix, q, Fraction(n, e), Fraction(n + a, e), Fraction(a, e))
