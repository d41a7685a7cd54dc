"""Singular monotone-type functions built from digit-weight systems.

A weight tuple p = (p_0, ..., p_{q-1}) with every |p_i| < 1, sum 1, and
all partial sums beta_i = p_0 + ... + p_{i-1} strictly inside (0, 1)
defines a function on [0, 1] through the base-q digits of the argument:
consuming digits in some order n_1, n_2, ... (the *reorder*), the value
is the series

    g(x) = sum_k beta_{d(n_k)} * prod_{j<k} p_{d(n_j)},

where d(n) is the n-th digit of x.  With the in-order reorder and all
p_i > 0 this is the classic strictly-increasing singular function with
g'(x) = 0 almost everywhere; signed weights give bounded non-monotone
variants.  The series is the unique bounded solution of the system of
self-similarity equations that peel off one digit per step.

A system is one schedule of weight columns: explicit columns serve
digit positions 1..P, and a repeating tuple, if there is one, serves
every later position.  A fixed tuple is the schedule with no columns, a
finite matrix the one with no tuple, whose series ends at step P.  A
system with a tuple accepts identity, rule-based, or finite-list
reorders; one without reads its columns in order.

Every sum here runs through `numeral._series`, the integer kernel that
also evaluates Cantor-series digit strings.  A weight column becomes one
row of steps (D, c_e, a_e) over its common denominator D, with
beta_e = c_e / D and p_e = a_e / D; `SalemSystem` keeps those rows.

Evaluation at a rational point is exact for a schedule that ends in a
repeating tuple, read in an unbounded order (identity or a rule): past
the digit string's prefix and the columns the digits read repeat with
one period under the one tuple, so the self-similarity equations close
in one step, g(tail) = S / (1 - P) over one period with partial sum S
and weight product P, formed by `numeral._close`.  Finite
systems and truncated digit strings instead truncate the series once the
tail bound derived from the largest |p_i| drops below the requested
tolerance, and report that bound (or stop exactly when the system runs
out of steps).  That stopping step depends on the system alone, and the
terms up to it are summed in one call.

Only the sampler `mc_mean` and the word source `_words32`, which it
shares with `gausskuzmin.measure_mc`, use numpy; they import numpy when
called, so importing this module (or the package) does not load it.
The digits are those of numpy's seeded bounded draw; for q = 2**k <= 64
`mc_mean` reads them as the top k bits of the generator's raw bytes,
drawn as 64-bit words (see `mc_mean` and `_words32`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm, sqrt
from numbers import Number
from typing import Optional, Union

from .errors import (
    MAX_POINTS, MAX_SAMPLES, DomainError, InvalidSystemError, json_decoder, json_int,
    json_list,
)
from .numeral import (
    ZERO,
    DigitString,
    QSequence,
    _close,
    _int_digits,
    _series,
    expand_exact,
    format_rational,
    parse_rational,
)

__all__ = [
    "Reorder",
    "SalemSystem",
    "Violation",
    "ValidationReport",
    "validate_system",
    "ensure_valid",
    "EvalResult",
    "evaluate",
    "residual",
    "integral",
    "TableRow",
    "emit_table",
    "McMean",
    "mc_mean",
]


# ---------------------------------------------------------------------------
# Reorders
# ---------------------------------------------------------------------------

# name -> one block (rule(1), ..., rule(r)) of a bijection of the steps:
# steps mr+1 .. mr+r read positions mr + rule(1), ..., mr + rule(r), so
# every block of r steps reads exactly its own block of r positions.  The
# identity is the block (1,)
_RULES = {"swap-pairs": (2, 1)}


@dataclass(frozen=True)
class Reorder:
    """Order in which digit positions are consumed.

    kind "identity" reads positions 1, 2, 3, ...; kind "rule" applies a
    named bijection of the positive integers (currently "swap-pairs",
    which transposes 1<->2, 3<->4, ...); kind "list" reads an explicit
    finite schedule of positions >= 1 and refuses past its end.
    """

    kind: str = "identity"
    values: tuple[int, ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("identity", "rule", "list"):
            raise DomainError(f"unknown reorder kind {self.kind!r}")
        if self.kind == "rule" and self.name not in _RULES:
            raise DomainError(f"unknown reorder rule {self.name!r}")
        object.__setattr__(self, "values", _int_digits(self.values))
        if self.kind == "list" and not self.values:
            raise DomainError("list reorder needs at least one entry")
        if self.kind == "list" and min(self.values) < 1:
            raise DomainError(
                f"list reorder positions must be >= 1, got {min(self.values)}")

    def _block(self) -> tuple[int, ...]:
        """One block of an unbounded kind (see `_RULES`)."""
        return _RULES[self.name] if self.kind == "rule" else (1,)

    def position(self, k: int) -> int:
        """The digit position consumed at step k (both 1-indexed)."""
        if k < 1:
            raise DomainError(f"step index must be >= 1, got {k}")
        if self.kind != "list":
            block = self._block()
            i = (k - 1) % len(block)
            return k - 1 - i + block[i]
        if k > len(self.values):
            raise DomainError(
                f"reorder schedule has {len(self.values)} steps; step {k} undefined")
        return self.values[k - 1]

    def length(self) -> Optional[int]:
        """Number of steps, or None for the unbounded kinds."""
        return len(self.values) if self.kind == "list" else None

    def period(self) -> Optional[int]:
        """Block length r of an unbounded kind: steps mr+1 .. mr+r read
        positions mr + position(1), ..., mr + position(r).  None for a list."""
        return None if self.kind == "list" else len(self._block())

    def to_json(self) -> dict:
        if self.kind == "identity":
            return {"kind": "identity"}
        if self.kind == "rule":
            return {"kind": "rule", "name": self.name}
        return {"kind": "list", "values": list(self.values)}

    @classmethod
    def from_json(cls, obj) -> "Reorder":
        if obj is None:
            return cls()
        # the identity reads no field, and a rule only its name
        kind = obj.get("kind", "identity")
        values = json_list(obj.get("values", [])) if kind == "list" else ()
        return cls(kind, values, obj.get("name", "") if kind == "rule" else "")


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

def _coerce_weights(values) -> tuple[Fraction, ...]:
    return tuple(parse_rational(v) if not isinstance(v, Fraction) else v
                 for v in values)


@dataclass(frozen=True)
class SalemSystem:
    """A digit-weight system: one schedule of weight columns.

    `columns`, when given, serve digit positions 1..P in order; the
    tuple `weights`, when given, serves every later position.  So a
    fixed system (`fixed`) is a tuple and no columns, a finite matrix
    (`matrix`) is P columns and no tuple, and its series ends at step P;
    empty columns before a tuple are no columns.  A list reorder is any
    finite schedule of positions, in any order and with repeats
    (`integral` refuses the exact mean of one that repeats a position).
    """

    weights: Optional[tuple[Fraction, ...]] = None
    columns: Optional[tuple[tuple[Fraction, ...], ...]] = None
    reorder: Reorder = Reorder()

    def __post_init__(self):
        if self.weights is None and self.columns is None:
            raise DomainError("a system takes a weight tuple, columns or both")
        if self.weights is not None:
            object.__setattr__(self, "weights", _coerce_weights(self.weights))
        if self.columns is not None:
            columns = tuple(map(_coerce_weights, self.columns))
            # empty columns before a tuple are the fixed system's None
            object.__setattr__(self, "columns",
                               None if not columns and self.weights is not None else columns)
        # P, the number of columns before the tuple, read at every step
        object.__setattr__(self, "_P", len(self.columns or ()))

    @classmethod
    def fixed(cls, weights, reorder: Reorder = Reorder()) -> "SalemSystem":
        return cls(weights=tuple(weights), reorder=reorder)

    @classmethod
    def matrix(cls, columns) -> "SalemSystem":
        return cls(columns=tuple(tuple(c) for c in columns))

    @property
    def q(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def stage_limit(self) -> Optional[int]:
        """Number of series terms the system defines, None if unbounded."""
        return len(self.columns) if self.weights is None else self.reorder.length()

    @cached_property
    def _columns(self) -> tuple[tuple[Fraction, ...], ...]:
        """The schedule's columns: those serving positions 1..P, then the
        tuple, if there is one, at index P."""
        return (self.columns or ()) + ((self.weights,) if self.weights is not None else ())

    def _column(self, n: int) -> int:
        """Index in `_columns` (and `_step_rows`) of the column that
        serves digit position n: n - 1 up to P, P past it (the tuple's
        index, out of range when there is none)."""
        return n - 1 if n <= self._P else self._P

    def _step(self, k: int) -> tuple[int, int]:
        """(n, i): the digit position n that step k reads, and the index
        `_column(n)` of the column that serves it."""
        n = self.reorder.position(k)
        return n, self._column(n)

    def p_row(self, n: int) -> tuple[Fraction, ...]:
        """Weight tuple applied to digit position n."""
        i = self._column(n)
        if i >= len(self._columns):
            raise DomainError(
                f"system has {len(self._columns)} columns; position {n} undefined")
        return self._columns[i]

    def beta_row(self, n: int) -> tuple[Fraction, ...]:
        """Partial sums (beta_0 = 0, beta_1, ..., beta_{q-1}) for position n."""
        return _betas(self.p_row(n))

    @cached_property
    def _column_max(self) -> tuple[Fraction, ...]:
        """Largest |p| of each column, indexed like `_columns`."""
        return tuple(max(abs(p) for p in col) for col in self._columns)

    @cached_property
    def global_max(self) -> Fraction:
        """Largest |p| across all columns; the truncation bound base."""
        return max(self._column_max)

    @cached_property
    def _step_rows(self) -> tuple[list[tuple[int, int, int]], ...]:
        """The `_series` step of each digit, one row per column of
        `_columns` (see `_step_row`)."""
        return tuple(_step_row(col) for col in self._columns)

    @cached_property
    def _validation(self) -> "ValidationReport":
        """`validate_system`'s verdict; the system is frozen, so every
        public call after the first reads it from here."""
        return validate_system(self)

    def to_json(self) -> dict:
        out: dict = {"q": self.q}
        if self.weights is not None:
            out["p"] = [format_rational(p) for p in self.weights]
        if self.columns is not None:
            out["columns"] = [[format_rational(p) for p in col]
                              for col in self.columns]
        out["reorder"] = self.reorder.to_json()
        return out

    @classmethod
    @json_decoder
    def from_json(cls, obj) -> "SalemSystem":
        if not isinstance(obj, dict):
            raise DomainError("system JSON must be an object")
        reorder = Reorder.from_json(obj.get("reorder"))
        if "p" not in obj and "columns" not in obj:
            raise DomainError("system JSON needs \"p\" or \"columns\"")
        # the constructor parses the weights; json_list refuses a null list
        # as malformed, where the constructor would read it as absent
        weights = tuple(json_list(obj["p"])) if "p" in obj else None
        columns = tuple(map(json_list, json_list(obj["columns"]))) if "columns" in obj else None
        system = cls(weights, columns, reorder)
        declared = obj.get("q")
        if declared is not None and json_int(declared) != system.q:
            raise DomainError(
                f"declared q={declared} does not match {system.q} weights")
        return system


def _betas(col: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return tuple(accumulate(col[:-1], initial=ZERO))


def _step_row(col: tuple[Fraction, ...]) -> list[tuple[int, int, int]]:
    """`_series` steps (D, c_e, a_e) of a weight column over its common
    denominator D: digit e adds beta_e = c_e / D and multiplies by
    p_e = a_e / D."""
    D = lcm(*(p.denominator for p in col))
    return [(D, b.numerator * (D // b.denominator), p.numerator * (D // p.denominator))
            for p, b in zip(col, _betas(col))]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    condition: str   # semantic id of the violated requirement
    where: str       # column / entry locator
    detail: str

    def __str__(self):
        return f"{self.condition} at {self.where}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: Optional[Violation] = None

    def __str__(self):
        return "ok" if self.ok else str(self.violation)


def validate_system(system: SalemSystem) -> ValidationReport:
    """Check a system's defining requirements; reports the first failure.

    Conditions, in the order tested: "alphabet" (uniform column length
    >= 2), "coefficient-range" (every |p| < 1), "column-sum" (each
    column sums to 1), "partial-sum-range" (each partial sum strictly
    inside (0, 1)), "reorder" (a system without a weight tuple consumes
    its columns in order; a system with one takes any reorder).
    """
    cols, q = system._columns, system.q

    def bad(condition, where, detail):
        return ValidationReport(False, Violation(condition, where, detail))

    if q < 2:
        return bad("alphabet", "column 1", f"needs >= 2 weights, got {q}")
    for n, col in enumerate(cols, start=1):
        if len(col) != q:
            return bad("alphabet", f"column {n}",
                       f"length {len(col)} != {q}")
    for n, col in enumerate(cols, start=1):
        for i, p in enumerate(col):
            if not -1 < p < 1:
                return bad("coefficient-range", f"column {n}, digit {i}",
                           f"|{p}| >= 1")
    for n, col in enumerate(cols, start=1):
        s = sum(col)
        if s != 1:
            return bad("column-sum", f"column {n}", f"sums to {s}, not 1")
    for n, col in enumerate(cols, start=1):
        betas = _betas(col)
        for i in range(1, q):
            if not 0 < betas[i] < 1:
                return bad("partial-sum-range", f"column {n}, partial sum {i}",
                           f"beta_{i} = {betas[i]} outside (0, 1)")

    if system.weights is None and system.reorder.kind != "identity":
        return bad("reorder", "schedule",
                   "matrix systems consume their columns in order")
    return ValidationReport(True)


def ensure_valid(system: SalemSystem) -> None:
    """Raise InvalidSystemError unless the system is valid; the verdict
    is computed once per system."""
    report = system._validation
    if not report.ok:
        raise InvalidSystemError(f"invalid system: {report.violation}",
                                 report=report)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalResult:
    """Value of the series and a rigorous bound on the truncation error
    (zero when the sum was closed exactly).

    `terms` counts the series steps summed.  A closed zero or max tail
    counts the steps up to the end of the digit prefix (rounded up to a
    whole reorder block); a closed periodic tail adds one period of the
    digits read; a truncated sum counts the steps before it stopped.
    """

    value: Fraction
    error_bound: Fraction
    terms: int


DEFAULT_TOL = Fraction(1, 10**9)


def _as_tol(tol) -> Fraction:
    t = tol if isinstance(tol, Fraction) else parse_rational(str(tol))
    if t <= 0:
        raise DomainError(f"tolerance must be > 0, got {tol}")
    return t


def _eval_stage(d: DigitString, system: SalemSystem, tol: Fraction,
                stage: int) -> EvalResult:
    """Sum the series terms after the first `stage` steps.

    Stage 0 is the function value itself; stage j is the renormalized
    remainder that the j-th self-similarity equation relates to stage
    j - 1 (for in-order consumption it coincides with the value at the
    j-fold shifted point).

    A schedule that ends in a tuple, read in an unbounded reorder,
    closes a zero, max or periodic tail exactly.  With r the reorder
    period, `DigitString._block(r, P)` gives K0, the first multiple of r
    at or past both the depth and the P columns, and T; H is P rounded up
    to a multiple of r.  Past K0 every step reads the tuple, and the steps
    read the tail's digits in blocks of T = lcm(tail period, r) steps
    that repeat (a zero or max tail has period 1).  Only the steps up to
    H look up their position's column; later ones read the tuple's row.
    The head runs to K = max(K0, stage rounded up to a multiple of r),
    and `_close` returns H + P_H * B / (1 - P_B) for the head's steps
    and one block's.

    Every other case takes the tolerance path.  The remainder bound r
    after step k is a product of column maxima |p|, so the last step k
    depends on the system and `tol` alone: the first where r sinks below
    tol * (1 - max |p|), or the system's last step (the sum is then
    exact).  Each step reads its digit as it is taken, so a truncated
    string raises as soon as the first digit it lacks is needed, and
    one `_series` call sums the steps stage + 1 .. k.
    """
    t = d.tail
    limit = system.stage_limit()
    if limit is None and t.kind != "truncated":
        r = system.reorder.period()
        rows, P = system._step_rows, system._P  # the tuple's row is rows[P]
        H = -(-P // r) * r  # every step past H reads the tuple
        K0, T = d._block(r, P)
        # the steps past K0 repeat every T steps, so a later stage has
        # the remainder of one within T of K0
        if stage > K0:
            stage -= (stage - K0) // T * T
        K = max(K0, -(-stage // r) * r)
        digits = d.digits_to(K + T)
        perm = [system.reorder.position(i) - 1 for i in range(1, r + 1)]
        step = rows[P]
        steps = [step[digits[m + i]] for m in range(H, K + T, r) for i in perm]
        if H:  # the steps up to H read their positions' columns
            steps[:0] = [rows[min(m + i, P)][digits[m + i]] for m in range(0, H, r) for i in perm]
        return EvalResult(_close(steps[stage:], K - stage), ZERO,
                          K - stage + (T if t.kind == "periodic" else 0))

    # tolerance path: take steps until the remainder bound r = rn / rd
    # sinks below tol * (1 - m) = tn / td, or the system runs out of
    # steps (then the finite sum is exact); each step's digit is read as
    # it is taken, so a truncated string raises at its first missing
    # digit.  rn and rd are the unreduced products of the column maxima's
    # numerators and denominators, reduced once at the end
    m = system.global_max
    tn, td = (tol * (1 - m)).as_integer_ratio()
    rn = rd = 1
    k = stage
    steps = []
    while (limit is None or k < limit) and rn * td >= tn * rd:
        k += 1
        n, i = system._step(k)
        steps.append(system._step_rows[i][d.digit(n)])
        c = system._column_max[i]
        rn *= c.numerator
        rd *= c.denominator
    bound = ZERO if limit is not None and k >= limit else Fraction(rn, rd) / (1 - m)
    return EvalResult(Fraction(*_series(steps)[::2]), bound, k - stage)


def _prepare_point(x, q: int, system: SalemSystem) -> DigitString:
    if not isinstance(q, int) or q < 2:
        raise DomainError(f"alphabet size must be an integer >= 2, got {q!r}")
    if q != system.q:
        raise DomainError(f"system has {system.q} weights but q={q}")
    base = QSequence.constant(q)
    if isinstance(x, DigitString):
        if x.base != base:
            raise DomainError("digit string base does not match q")
        # an equal base stored with a prefix or a longer cycle would move
        # the block `_block` reads
        return x if x.base.cycle == (q,) and not x.base.prefix else (
            DigitString(base, x.prefix, x.tail))
    return expand_exact(x, base)


def evaluate(x, q: int, system: SalemSystem, tol=DEFAULT_TOL) -> EvalResult:
    """Value of the system's function at x, with a truncation-error bound.

    x may be a Fraction in [0, 1] or a DigitString over the constant
    base q.  A system that ends in a weight tuple, with an identity or
    rule reorder, evaluates every zero, max or periodic tail exactly
    (error bound 0), so every rational x is exact; a truncated string or
    a finite system is summed until the tail bound drops below `tol` or
    its steps run out.

    The exact value at a point of period L is a rational of about L times
    log2(D) bits for the common weight denominator D, and summing and
    reducing it costs time quadratic in L: seconds at L = 80020 with
    D = 100, many minutes near L = 10^6.  For a bounded-cost value at
    such a point, pass `expand(x, QSequence.constant(q), depth,
    probe_limit=0)`: a truncated string takes the tolerance path.  The
    string is truncated only while `depth` is at most the point's
    preperiod plus one period; past that the scan finds the period and
    returns a periodic string, whose value is exact and costs as much
    again.
    """
    ensure_valid(system)
    d = _prepare_point(x, q, system)
    return _eval_stage(d, system, _as_tol(tol), 0)


def residual(x, q: int, system: SalemSystem, k: int, tol=DEFAULT_TOL) -> Fraction:
    """Defect of the k-th self-similarity equation at x: left minus right.

    The left side is the stage k-1 remainder of the series at x, the
    right side is beta_{d} + p_{d} times the stage-k remainder, where d
    is the digit consumed at step k.  For the series solution this is 0
    up to the evaluation tolerances (|residual| <= 2 * tol), and exactly
    0 where `evaluate` is exact; both sides go through the same
    evaluation engine used by `evaluate`.
    """
    k = json_int(k)
    if k < 1:
        raise DomainError(f"equation index must be >= 1, got {k}")
    ensure_valid(system)
    d = _prepare_point(x, q, system)
    t = _as_tol(tol)
    n = system.reorder.position(k)
    dig = d.digit(n)
    left = _eval_stage(d, system, t, k - 1)
    right_tail = _eval_stage(d, system, t, k)
    right = system.beta_row(n)[dig] + system.p_row(n)[dig] * right_tail.value
    return left.value - right


def integral(system: SalemSystem) -> Fraction:
    """Exact Lebesgue mean of the function over [0, 1].

    Digits are independent and uniform under Lebesgue measure, so each
    term factors: step k adds the mean beta of the column it reads times
    q^(1-k), in reading order.  For an unbounded reorder every step past
    the columns' last reorder block reads the tuple, and `_close` sums
    the head and one block of the geometric tail; with no columns that
    is (beta_1 + ... + beta_{q-1}) / (q - 1).  Finite systems (matrices,
    and any injective list) get the corresponding finite sum.  Requires
    an injective schedule; repeats would correlate the factors.
    """
    ensure_valid(system)
    limit = system.stage_limit()
    if len(set(system.reorder.values)) < len(system.reorder.values):
        raise DomainError(
            "exact mean needs an injective reorder; use the sampling estimate")
    # step k adds s_k / q times q^(1-k), for s_k the sum of its betas
    steps = [(system.q * row[0][0], sum(c for _, c, _ in row[1:]), row[0][0])
             for row in system._step_rows]
    if limit is None:  # past K, P rounded up to whole reorder blocks, every step is the tuple's
        r = system.reorder.period()
        K = -(-system._P // r) * r
        return _close([steps[system._step(k)[1]] for k in range(1, K + r + 1)], K)
    return Fraction(*_series(steps[system._step(k)[1]] for k in range(1, limit + 1))[::2])


# ---------------------------------------------------------------------------
# Tables and sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    x: Fraction
    value: Fraction
    error_bound: Fraction


def emit_table(system: SalemSystem, grid, tol=DEFAULT_TOL) -> list[TableRow]:
    """Evaluate on a grid: a number n, read as an integer by `json_int`
    (so Fraction(5) is 5 and 2.5 is refused), means n uniform points
    spanning [0, 1] inclusive, for n from 2 to `MAX_POINTS` (10**5);
    otherwise an iterable of rationals.  A string is refused rather than
    read one character at a time, and so is a grid of any other kind,
    such as None."""
    ensure_valid(system)
    if isinstance(grid, (str, bytes)) or not isinstance(grid, (Number, Iterable)):
        raise DomainError(f"a grid is a point count or an iterable of rationals, got {grid!r}")
    if isinstance(grid, Number):
        grid = json_int(grid)
        if grid < 2:
            raise DomainError("a uniform grid needs at least 2 points")
        if grid > MAX_POINTS:
            raise DomainError(f"{grid} points exceed the limit of {MAX_POINTS}")
        xs = [Fraction(i, grid - 1) for i in range(grid)]
    else:
        xs = [x if isinstance(x, Fraction) else parse_rational(x)
              for x in grid]
    t = _as_tol(tol)  # refused before the first point, also on an empty grid
    results = [evaluate(x, system.q, system, t) for x in xs]
    return [TableRow(x, res.value, res.error_bound) for x, res in zip(xs, results)]


@dataclass(frozen=True)
class McMean:
    """Monte-Carlo estimate of the Lebesgue mean."""

    mean: float
    std_err: float
    samples: int
    seed: int
    terms: int


_MC_CAP = 20_000
_MC_CHUNK = 65536  # most rows of digits one chunk draws
_MC_BLOCK_BYTES = 64 * 2**20  # cap on one chunk's digit block, and on one row
# rows summed together: their float buffers stay in L2.  A multiple of
# 4, so a raw block that is not a chunk's last is whole 32-bit words
_MC_ROWS = 4096
# terms between checks for frozen rows, whose float sums no later term
# can move: a block drops them once they are at least half of its live
# rows, and stops once every row is frozen (see mc_mean)
_MC_LIVE_EVERY = 16
# most bytes of digit rows a block moves at once when it drops rows
_MC_MOVE_BYTES = 2**20


def _words32(rng, n: int):
    """`rng.integers(0, 2**32, size=n, dtype=np.uint32)` for a PCG64
    generator `rng` and n >= 1, drawn as 64-bit words.

    PCG64 hands out a 32-bit word as the low half of a 64-bit output and
    keeps the high half for its next 32-bit call (`has_uint32` and
    `uinteger` in `bit_generator.state`).  So the n words are that kept
    half, if there is one, then the halves of ceil(n'/2) 64-bit words,
    low half first, for the n' words still wanted.  When n' is odd the
    last high half is kept in the state as the uint32 draw would keep
    it, and a kept half used here is cleared, so every later draw sees
    the same stream.  Only `uinteger` behind a cleared flag, which PCG64
    never reads, may differ from the uint32 draw's state.  The state is
    read again and written only when the kept half changes.
    """
    import numpy as np

    gen = rng.bit_generator
    state = gen.state
    carry = state["has_uint32"]
    need = n - carry
    wide = rng.integers(0, 2**64, size=(need + 1) // 2, dtype=np.uint64)
    halves = wide.astype("<u8", copy=False).view("<u4")
    if carry:
        words = np.empty(n, dtype=np.uint32)
        words[0] = state["uinteger"]
        words[1:] = halves[:need]
    else:
        words = halves[:n]
    if carry or need & 1:
        state = gen.state
        state["has_uint32"] = need & 1
        if need & 1:
            state["uinteger"] = int(halves[-1])
        gen.state = state
    return words


def mc_mean(system: SalemSystem, samples: int, seed: int) -> McMean:
    """Sample the mean by drawing digit strings uniformly.

    The result is fixed by (system, samples, seed), the inputs it
    records.  The series is cut at enough terms for a 1e-9 tail bound
    (capped); the remaining bias is far below the reported standard
    error at practical sample sizes.  `samples` runs from 2 to
    `MAX_SAMPLES` (10**7), and `seed` must be at least 0.  One sample reads the digits up to the
    largest position its terms consume; a schedule whose row of those
    digits exceeds 64 MiB is refused before numpy is loaded.  A chunk
    covers at most 65536 rows of digits from numpy's seeded generator,
    and fewer when its digits would exceed 64 MiB.

    The digits are those of one `rng.integers(0, q, size=(rows,
    positions), dtype=int8)` per chunk (int64 for q >= 128), and each
    block of 4096 of its rows reads its rows from one flat buffer of
    drawn digits that no block has read yet (numpy fills a draw in row
    order, so a flat draw of rows * positions digits holds the same
    ones).  Apart from the int8 case below, each block draws its own
    part just before it is summed, so no draw takes more than one
    block's digits: at most min(4096 * positions * bytes per digit,
    64 MiB).  For q >= 128 a
    block makes the int64 bounded draw of its own rows, which reads on
    in the chunk draw's stream: numpy takes each digit below 2**32 from
    whole 32-bit words (one more after a rejection), so no call leaves
    part of a word behind.  For q = 2**k <= 64 the bounded draw (Lemire's
    method) takes each digit as the top k bits of one byte of the
    generator's 32-bit words, low byte first, and never rejects one.
    So such a block takes raw 32-bit words from `_words32`, one byte per
    digit: half as many 64-bit words, read low half first, with the
    generator's buffered half word used first and an odd last half
    buffered again.  A chunk has more than one block only in blocks of
    4096 rows, so each block but a chunk's last reads a whole number of
    words; the chunk's last block drops the bytes of its last word that
    it does not read, as the chunk draw does.  So the stream continues
    where the chunk draw would leave it.  The top bits are shifted down
    only in the columns a block sums.
    Any other q <= 127 draws the whole chunk at once, which may hold up
    to 64 MiB: numpy's int8 draw drops the unused bytes of its last
    32-bit word on every call, and it rejects some bytes, so a block's
    share of the chunk draw's words is not known in advance.

    The rows of a chunk are summed in blocks of 4096: each term
    shifts the block's digit column once into a reused index buffer
    and looks up beta and p into two reused float buffers, so the
    running values and products stay in cache.  Every 16 terms a block
    checks which of its live rows are frozen: |prod| * 2**55 <= |v| for
    the row's running product prod and value v, which also covers a
    product that has underflowed to 0.  Every p and beta of a valid
    system lies in [-1, 1] as a float, so |prod| never grows and no
    later term exceeds |v| * 2**-55, less than a quarter ulp of v.
    v + term then rounds back to v, also for a negative term when v is a
    power of two, and v = 0 gains only a signed zero.  So a frozen row's
    sum can never move again.  When at least half of the live rows are
    frozen, their values go back to the chunk's values, and the block
    carries on with the live rows alone: copies of their values and
    products, and their digit rows moved to the front of the block's
    own digits, at most 1 MiB of them at a time, so no second block of
    digits is held.  It stops once no row is live.  The float operations
    on each row that is still summed are the ones of the plain per-term
    loop, in the same order, so the result is that loop's, bit for bit.
    """
    ensure_valid(system)
    samples, seed = json_int(samples), json_int(seed)
    if samples < 2:
        raise DomainError("need at least 2 samples")
    if samples > MAX_SAMPLES:
        raise DomainError(f"samples {samples} exceed the limit of {MAX_SAMPLES}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    q = system.q
    m = float(system.global_max)
    limit = system.stage_limit()
    k_tol = 1
    bound = m
    while bound >= 1e-9 * (1.0 - m) and k_tol < _MC_CAP:
        k_tol += 1
        bound *= m
    terms = k_tol if limit is None else min(k_tol, limit)
    plan = [system._step(t) for t in range(1, terms + 1)]
    maxpos = max((n for n, _ in plan), default=1)
    size = 1 if q <= 127 else 8  # bytes per digit: int8 or int64
    if maxpos * size > _MC_BLOCK_BYTES:
        raise DomainError(
            f"a sample reads digit position {maxpos}: {maxpos * size} bytes "
            f"of digits exceed the limit of {_MC_BLOCK_BYTES}")
    import numpy as np

    # int / int rounds correctly, as float(Fraction) does
    used = system._step_rows[:maxpos]  # position n reads a column index below n
    b_rows = [np.array([c / D for D, c, _ in row]) for row in used]
    p_rows = [np.array([a / D for D, _, a in row]) for row in used]
    steps = [(b_rows[i], p_rows[i], n - 1) for n, i in plan]

    chunk = min(_MC_CHUNK, _MC_BLOCK_BYTES // (maxpos * size))
    # q = 2**k <= 64: draw raw words, and shift each byte down by 8 - k
    raw = q <= 64 and q & (q - 1) == 0
    shift = 9 - q.bit_length() if raw else 0
    # any other q <= 127 takes the whole chunk's int8 digits in one draw
    whole = size == 1 and not raw
    rows = min(_MC_ROWS, chunk, samples)
    move = max(1, _MC_MOVE_BYTES // (maxpos * size))  # digit rows moved at once
    idx_buf = np.empty(rows, dtype=np.intp)
    b_buf, p_buf, prod_buf = np.empty(rows), np.empty(rows), np.empty(rows)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        mrows = min(chunk, samples - done)
        # drawn digits, in row order, that no block has read yet: the
        # whole chunk's int8 draw, a raw block's bytes or a block's int64
        # draw.  Each block reads its rows from here
        spare = rng.integers(0, q, size=mrows * maxpos, dtype=np.int8) if whole else None
        vals = np.zeros(mrows)
        for r0 in range(0, mrows, rows):
            k = min(rows, mrows - r0)
            n = k * maxpos
            if raw:
                spare = _words32(rng, -(-n // 4)).astype("<u4", copy=False).view(np.uint8)
            elif size == 8:
                spare = rng.integers(0, q, size=n, dtype=np.int64)
            block, spare = spare[:n].reshape(k, maxpos), spare[n:]
            out = v = vals[r0:r0 + k]
            live = None  # the rows of v in the block, once rows are dropped
            idx, b, p, prod = idx_buf[:k], b_buf[:k], p_buf[:k], prod_buf[:k]
            prod.fill(1.0)
            for t, (b_col, p_col, j) in enumerate(steps):
                if t and not t % _MC_LIVE_EVERY:
                    # a row moves iff |v| < |prod| * 2**55, both exact
                    np.multiply(np.abs(prod, out=p), 2.0**55, out=p)
                    moving = np.less(np.abs(v, out=b), p)
                    nlive = np.count_nonzero(moving)
                    if 2 * nlive <= len(v):  # at least half are frozen
                        if not nlive:
                            break
                        if live is not None:  # v is a copy: its values go back
                            out[live] = v
                        keep = np.flatnonzero(moving)
                        live = keep if live is None else live[keep]
                        v, prod = v[keep], prod[keep]
                        # the live digit rows move to the front of the
                        # block, `move` rows at a time: keep[i] >= i, so
                        # no row is overwritten before it is read
                        front = block[:nlive]
                        for a in range(0, nlive, move):
                            front[a:a + move] = block[keep[a:a + move]]
                        block = front
                        idx, b, p = idx_buf[:nlive], b_buf[:nlive], p_buf[:nlive]
                np.right_shift(block[:, j], shift, out=idx)
                # every digit lies in [0, q), so "clip" never moves one
                np.take(b_col, idx, out=b, mode="clip")
                np.take(p_col, idx, out=p, mode="clip")
                b *= prod
                v += b
                prod *= p
            if live is not None:
                out[live] = v
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += mrows
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
    return McMean(mean, sqrt(var / samples), samples, seed, terms)
