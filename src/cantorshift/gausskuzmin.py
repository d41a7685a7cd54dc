"""Lebesgue measure of digit-defined sets, exactly and by sampling.

The sets under study compare a shift-program image of the argument with
a threshold:

    { z in [0, 1] : P(z) < R }

where P is a `ShiftProgram` and R is a constant, a second program of
the same z, or a program applied to a fixed point.  Such a set is (up
to its boundary {P(z) = R}) a union of rank-d cylinders once d exceeds the
digits the programs consume, so its measure can be bracketed exactly:
classify every rank-d cylinder as inside, outside, or straddling by
comparing the two image intervals, and weight by the cylinder measure
1/(q_1 ... q_d).  The bracket width is exactly the straddling mass and
shrinks as d grows.

A constant or `ProgramOnX` threshold x needs no walk for its exact
value: under Lebesgue measure the digits a program keeps are
independent and uniform, so its image is uniform on [0, 1] and
mu{P(z) < x} = clamp(x, 0, 1) for every base and program (1 minus that
for "ge"); the walk brackets this value.  A `ProgramOnZ` threshold is a
second image of the same z, not independent of the first, and its
boundary {P(z) = R(z)} can carry positive mass, but only when the two
image denominators are equal.  Then the images of a rank-d cylinder
share one tail, so P(z) - R(z) is constant on it, and a tied cylinder
lies inside "ge": the walk and the sampler classify every cylinder by
this one rule, and the bracket is exact at every d past the digits the
programs consume.

A program image over a rank-d cylinder is itself an interval with
rational endpoints: the digits surviving the program contribute a known
partial sum, the unseen tail contributes [0, 1/(product of surviving
bases)].  Both endpoint numerators are linear in the digits, so each
cylinder test is one integer comparison of the scaled difference of the
two images, sum c_s*e_s, against two thresholds.  The walk takes the
positions in decreasing significance (q_s - 1)*|e_s| and counts a
subtree wholesale once its range of sums is inside, outside, or
straddling as a whole.  Positions with e_s = 0 (read by neither side,
or with equal weight over equal denominators, as past `required_depth`
on a tie) scale every count alike and are left out.  The bounds are
exact, and the counts do not depend on the order of the walk.

The sampler `measure_mc` classifies one rank-d cylinder per sample by
the same scaled difference and thresholds (`_scaled_difference`).  It
sums the difference one digit position at a time and counts a sample
as soon as the positions still to come cannot move it across a
threshold; its last chunk stops drawing once every sample is counted,
and another chunk passes the raw-word rows it no longer needs with
`PCG64.advance`.

Only `measure_mc` uses numpy, and it imports numpy when called, so
importing this module (or the package) does not load it.  Its
power-of-two digits come from `salem._words32`, the 64-bit word source
it shares with `salem.mc_mean`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, sqrt
from typing import Callable, Optional, Union

from .errors import (MAX_BOUNDS_DEPTH, MAX_PARAMS, MAX_SAMPLES, DomainError,
                     InsufficientDepthError, json_decoder, json_int)
from .numeral import (
    QSequence,
    format_rational,
    parse_rational,
)
from .salem import _words32
from .shifts import ShiftProgram, _surviving_positions, apply_program

__all__ = [
    "ConstRhs",
    "ProgramOnZ",
    "ProgramOnX",
    "rhs_from_json",
    "GKSetSpec",
    "MeasureBounds",
    "measure_bounds",
    "McMeasure",
    "measure_mc",
    "ScanRow",
    "limit_scan",
    "sigma_family",
    "generator_family",
]


# ---------------------------------------------------------------------------
# Set specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstRhs:
    """Compare against a fixed rational threshold."""

    value: Fraction

    def to_json(self):
        return {"const": format_rational(self.value)}


@dataclass(frozen=True)
class ProgramOnZ:
    """Compare against a second program applied to the same argument."""

    program: ShiftProgram

    def to_json(self):
        return {"programOnZ": self.program.to_json()}


@dataclass(frozen=True)
class ProgramOnX:
    """Compare against a program applied to a fixed point (a constant
    that is specified operationally rather than numerically)."""

    program: ShiftProgram
    x: Fraction

    def to_json(self):
        return {"programOnX": {"program": self.program.to_json(),
                               "x": format_rational(self.x)}}


Rhs = Union[ConstRhs, ProgramOnZ, ProgramOnX]


@json_decoder
def rhs_from_json(obj) -> Rhs:
    if not isinstance(obj, dict):
        raise DomainError("threshold JSON must be an object")
    if "const" in obj:
        return ConstRhs(parse_rational(obj["const"]))
    if "programOnZ" in obj:
        return ProgramOnZ(ShiftProgram.from_json(obj["programOnZ"]))
    if "programOnX" in obj:
        inner = obj["programOnX"]
        return ProgramOnX(ShiftProgram.from_json(inner["program"]),
                          parse_rational(inner["x"]))
    raise DomainError(f"unknown threshold form: {sorted(obj)}")


@dataclass(frozen=True)
class GKSetSpec:
    """A measurable set given by a program comparison.

    relation "lt" is the strict set {P(z) < R}; "ge" is its complement
    {P(z) >= R}, so the two measures sum to 1.  The boundary {P(z) = R}
    is a null set for a constant or `ProgramOnX` threshold, but not
    always for `ProgramOnZ`: past `required_depth` every digit survives
    on both sides, so two images with equal partial sums and equal
    denominators agree on the whole cylinder (q=3, GEN(2) GEN(3)
    against two shifts ties on a set of measure 1/9).  Such a tie
    belongs to "ge", in `measure_bounds` and `measure_mc` alike.
    """

    q: QSequence
    lhs: ShiftProgram
    rhs: Rhs
    relation: str = "lt"

    def __post_init__(self):
        if self.relation not in ("lt", "ge"):
            raise DomainError(f"relation must be \"lt\" or \"ge\", got {self.relation!r}")

    @property
    def required_depth(self) -> int:
        """Digits of z both sides consume before their tails are free."""
        need = self.lhs.required_depth
        if isinstance(self.rhs, ProgramOnZ):
            need = max(need, self.rhs.program.required_depth)
        return need

    def to_json(self) -> dict:
        return {"q": self.q.to_json(), "lhs": self.lhs.to_json(),
                "rhs": self.rhs.to_json(), "relation": self.relation}

    @classmethod
    @json_decoder
    def from_json(cls, obj) -> "GKSetSpec":
        if not isinstance(obj, dict):
            raise DomainError("set spec JSON must be an object")
        return cls(QSequence.from_json(obj["q"]),
                   ShiftProgram.from_json(obj["lhs"]),
                   rhs_from_json(obj["rhs"]),
                   obj.get("relation", "lt"))


# ---------------------------------------------------------------------------
# Exact bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureBounds:
    """Exact bracket: lower <= measure <= upper, both rationals; the gap
    is exactly the mass of straddling rank-`depth` cylinders."""

    lower: Fraction
    upper: Fraction
    depth: int
    decided_mass: Fraction

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def to_json(self) -> dict:
        return {"lower": format_rational(self.lower),
                "upper": format_rational(self.upper),
                "depth": self.depth,
                "decided_mass": format_rational(self.decided_mass)}


def _image_weights(word, qv) -> tuple[list[int], int]:
    """Per-position numerator weights of the program image, plus its
    denominator, over the base values `qv` = (q_1, ..., q_depth).

    The image of digits (c_1, ..., c_depth) is
    [sum c_s * w_s, sum c_s * w_s + 1] / D with w_s = 0 for deleted
    positions; surviving position s_j has weight D / (b_1 ... b_j)
    over the image base values b_i.
    """
    surv = _surviving_positions(word, len(qv))
    weights = [0] * len(qv)
    acc = 1
    for s in reversed(surv):
        weights[s - 1] = acc
        acc *= qv[s - 1]
    return weights, acc


def _resolve_rhs(spec: GKSetSpec, qv):
    """(weights, base numerator, denominator, tail) for the right side,
    over the base values `qv` = (q_1, ..., q_depth).

    Its image over a cylinder is [base + sum c_s*w_s,
    base + sum c_s*w_s + tail] / denominator.  A constant (or a program
    applied to a fixed point) becomes a degenerate zero-width "image":
    zero weights, its own numerator as base and no tail.  A program of
    z gets real weights, base 0 and a one-unit tail.
    """
    rhs = spec.rhs
    if isinstance(rhs, ProgramOnZ):
        w, d = _image_weights(rhs.program.word, qv)
        return w, 0, d, 1
    if isinstance(rhs, ProgramOnX):
        val = apply_program(rhs.program, rhs.x, spec.q)
    else:
        val = rhs.value
    return [0] * len(qv), val.numerator, val.denominator, 0


def _scaled_difference(spec: GKSetSpec, qv):
    """(e, below, above) for the scaled difference of the two images over
    the base values `qv` = (q_1, ..., q_depth).

    With left weights wl_s over dl and right ones wr_s over dr (see
    `_resolve_rhs`), e_s = (wl_s*dr - wr_s*dl)/g for the gcd g of the
    unscaled values.  A rank-depth cylinder with digits c_s, whose sum
    S = sum c_s*e_s, lies inside "lt" iff S <= below and inside "ge"
    iff S >= above.  A program threshold over an equal denominator has
    above = 0: both images share one tail, so S = 0 means equal images
    over the whole cylinder, a tie inside "ge", and no S lies strictly
    between the thresholds.
    """
    wl, dl = _image_weights(spec.lhs.word, qv)
    wr, base_r, dr, tail_r = _resolve_rhs(spec, qv)
    diff = [a * dr - b * dl for a, b in zip(wl, wr)]
    # every sum is a multiple of g, so the thresholds round inwards
    g = gcd(*diff) or 1
    tie = isinstance(spec.rhs, ProgramOnZ) and dl == dr
    return ([e // g for e in diff], (base_r * dl - dr) // g,
            0 if tie else -(-(base_r + tail_r) * dl // g))


def measure_bounds(spec: GKSetSpec, depth: int) -> MeasureBounds:
    """Exact lower/upper bounds on the measure at cylinder rank `depth`.

    Requires depth >= (digits consumed by the programs) + 1 so at least
    one free digit constrains the comparison, and depth <=
    `MAX_BOUNDS_DEPTH` (10**4).

    With e_s = wl_s*dr - wr_s*dl, a rank-`depth` cylinder with digits
    c_s lies inside "lt" iff sum c_s*e_s <= base_r*dl - dr, inside "ge"
    iff sum c_s*e_s >= (base_r + tail_r)*dl, and straddles otherwise;
    for a `ProgramOnZ` threshold over an equal denominator (dl = dr) the
    images share one tail, so a tied cylinder, sum c_s*e_s = 0, lies
    inside "ge" and none straddles: the bracket is exact, lower = upper
    with decided_mass 1, at every depth.
    Cost: positions are walked in decreasing (q_s - 1)*|e_s| order,
    and a node is counted wholesale once its partial sum plus the
    positive and negative terms still to come lies on one side of a
    threshold or strictly between the two, so only nodes whose range of
    sums crosses a threshold are expanded.  Positions with e_s = 0 are
    left out: they scale every count and the number of cylinders by the
    same factor.  So the tie tails past `required_depth` cost nothing.
    """
    depth = json_int(depth)
    if depth > MAX_BOUNDS_DEPTH:
        raise DomainError(f"depth {depth} exceeds the limit of {MAX_BOUNDS_DEPTH}")
    req = spec.required_depth
    if depth < req + 1:
        raise InsufficientDepthError(
            f"depth {depth} too shallow: programs consume {req} digits, "
            f"need depth >= {req + 1}", required=req + 1)
    qv = spec.q.values(0, depth)
    diff, below, above = _scaled_difference(spec, qv)
    # a position with e = 0 moves no sum: it multiplies every count and
    # the total alike, so it drops out of every fraction below
    steps = []
    for qs, e in zip(qv, diff):
        if e:
            span = (qs - 1) * e
            steps.append((abs(span), span, qs, e))
    steps.sort()

    # the walk takes positions from the end of `steps`; a node with r
    # positions left and partial sum acc has leaves[r] leaves, whose
    # sums span [acc + down[r], acc + up[r]]
    up, down, leaves = [0], [0], [1]
    for _, span, qs, _ in steps:
        up.append(up[-1] + span if span > 0 else up[-1])
        down.append(down[-1] + span if span < 0 else down[-1])
        leaves.append(leaves[-1] * qs)

    low = high = straddle = 0
    stack = [(len(steps), 0)]
    pop, push = stack.pop, stack.append
    while stack:
        r, acc = pop()
        hi, lo = acc + up[r], acc + down[r]
        if hi <= below:
            low += leaves[r]
        elif lo >= above:
            high += leaves[r]
        elif below < lo and hi < above:
            straddle += leaves[r]
        else:
            _, _, qs, e = steps[r - 1]
            for c in range(qs):
                push((r - 1, acc + c * e))

    total = leaves[-1]
    inside = low if spec.relation == "lt" else high
    return MeasureBounds(Fraction(inside, total),
                         Fraction(inside + straddle, total),
                         depth,
                         Fraction(total - straddle, total))


# ---------------------------------------------------------------------------
# Monte-Carlo estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McMeasure:
    """Sampling estimate of the set's measure.

    `std_err` is the Wald estimate sqrt(p(1 - p)/samples) at p =
    `estimate`.  It is 0 when no sample hits or every sample does, and
    it understates the spread when the true measure is near 0 or 1.
    """

    estimate: float
    std_err: float
    hits: int
    samples: int
    seed: int
    depth: int


_INT64_LIMIT = 2**62
_MC_CHUNK = 65536  # most samples one chunk draws, and most raw words one draw takes
_MC_CHECK = 256  # a check is due once the positions since the last split a cylinder this many ways


def _mc_depth(q: QSequence, req: int, extra: int) -> int:
    """Deepest digit count whose cylinder denominator stays in int64."""
    d = 0
    prod = 1
    # every base value is >= 2, so 63 of them pass the limit
    for v in q.values(0, min(req + extra, 63)):
        prod *= v
        if prod > _INT64_LIMIT:
            break
        d += 1
    if d < req + 1:
        raise DomainError(
            "base values grow too quickly for a sampling depth beyond the "
            "program's digit consumption")
    return d


def _skip32(rng, n: int) -> None:
    """Move a PCG64 generator `rng` past n >= 0 32-bit words, so that
    every later draw reads the stream that follows `_words32(rng, n)`.

    The words are the buffered half word, if there is one, then the
    halves of 64-bit words; `advance` passes whole 64-bit words and
    clears the buffered half, so an odd count draws its last 64-bit word
    to buffer the high half, as `_words32` does.
    """
    if not n:
        return
    gen = rng.bit_generator
    need = n - gen.state["has_uint32"]
    gen.advance(need // 2)
    if need & 1:
        _words32(rng, 1)


def measure_mc(spec: GKSetSpec, samples: int, seed: int,
               extra_depth: int = 32) -> McMeasure:
    """Estimate the measure by sampling digit strings uniformly.

    Each sample is a rank-`depth` cylinder, where `depth` is the
    programs' digit consumption plus `extra_depth`, cut where the
    cylinder denominator would pass 2**62.  A sample is a hit iff its
    cylinder lies inside the set as `measure_bounds` classifies it: its
    scaled image difference S = sum c_s*e_s is <= below for "lt" and
    >= above for "ge", with the thresholds of `_scaled_difference` (so a
    tied cylinder over an equal denominator is a hit for "ge").  A
    straddling cylinder is a miss.

    S is summed in int64, one position at a time over a row of the
    chunk's samples: |S| stays below the cylinder denominator (at most
    2**62), since for a fixed threshold S is the left image numerator
    and for a program of z |S| < lcm(dl, dr), a divisor of the
    cylinder denominator.  The later positions add at most `up` and at
    least `down` to S (the sums of their positive and of their negative
    spans (q_s - 1)*e_s), and the test is monotone in S, so a sample
    whose S passes it at both S + down and S + up, or fails it at both,
    is decided.  Once the base values summed since the last check
    multiply to at least min(undecided samples, 256), a check counts
    the decided samples and drops them from the row arithmetic; a
    position after which every step is 0 is always checked, so the last
    one decides every sample.

    The result is fixed by (spec, samples, seed, extra_depth), the
    inputs it records (`depth` follows from the spec and `extra_depth`).
    `samples` runs from 1 to `MAX_SAMPLES` (10**7), drawn in chunks of
    at most 65536; `seed` must be at least 0 and `extra_depth` at least 1.

    Position i's digits for a chunk of m samples are still those of
    `rng.integers(0, q_i, size=m)`, one position after another.  For
    q_i = 2**k <= 2**32 that bounded draw (Lemire's method) takes each
    digit as the top k bits of one 32-bit word and never rejects one,
    so such a row is m words from `_words32` shifted down by 32 - k
    instead.  The words are drawn as 64-bit ones, with the generator's
    buffered half word carried into and out of the draw, which leaves
    the stream where the bounded draws would.  Consecutive such rows
    share one draw of at most 65536 words, since their words follow one
    another in the stream.  Other bases keep the bounded draw.  Once
    every sample of a chunk other than the last is decided, the chunk
    still reads each remaining row at the same site: it draws a bounded
    row, which may reject words, slices a raw row off a shared draw
    that already covers it, and passes any other raw row's words with
    one `_skip32`; so the next chunk reads the same stream.  The last
    chunk stops drawing once every sample is decided.  So neither the
    checks nor their schedule change a result.
    """
    samples, seed, extra_depth = json_int(samples), json_int(seed), json_int(extra_depth)
    if samples < 1:
        raise DomainError("need at least 1 sample")
    if samples > MAX_SAMPLES:
        raise DomainError(f"samples {samples} exceed the limit of {MAX_SAMPLES}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if extra_depth < 1:
        raise DomainError(f"extra depth must be >= 1, got {extra_depth}")
    depth = _mc_depth(spec.q, spec.required_depth, extra_depth)
    qv = spec.q.values(0, depth)
    steps, below, above = _scaled_difference(spec, qv)
    if spec.relation == "lt":
        top = below
    else:
        # S >= above becomes -S <= -above
        steps = [-e for e in steps]
        top = -above
    # every sum, partial or whole, lies in (-2**62, 2**62), so clamping
    # the threshold changes no comparison and keeps `sure` and `open`
    # below in int64
    top = min(max(top, -_INT64_LIMIT), _INT64_LIMIT)
    # (q, shift, step, raw rows from here on, sure, open) per position;
    # q = 2**k <= 2**32 takes the top k bits of a raw word, any other q
    # the bounded draw.  A sample whose sum so far is at most `sure` is
    # a hit whatever the later digits, one above `open` is a miss
    rows = []
    run = up = down = 0
    for v, e in zip(reversed(qv), reversed(steps)):
        raw = v & (v - 1) == 0 and v <= 2**32
        run = run + 1 if raw else 0
        rows.append((v, 33 - v.bit_length() if raw else None, e, run, top - up, top - down))
        if e > 0:
            up += (v - 1) * e
        else:
            down += (v - 1) * e
    rows.reverse()

    import numpy as np

    size = min(_MC_CHUNK, samples)
    digs_buf, term_buf = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    sums_buf = np.empty(size, dtype=np.int64)
    rng = np.random.default_rng(seed)
    hits = done = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        done += m
        # n samples of the chunk are undecided, at indices `keep` of a
        # row (None: all of them)
        n, keep, drawn = m, None, 1
        sums = sums_buf[:m]
        sums.fill(0)
        words = ()
        for q, shift, e, run, sure, open_ in rows:
            if not n and done == samples:
                break  # nothing reads the stream after the last chunk
            # once every sample is decided the row is still read here, so
            # that the next chunk reads the stream where it would after it
            if shift is None:
                row = rng.integers(0, q, size=m)
            elif n or len(words):
                if not len(words):
                    # this raw row and the raw rows after it share one draw
                    # of at most 65536 words
                    words = _words32(rng, min(run, max(1, _MC_CHUNK // m)) * m)
                row, words = words[:m], words[m:]
            else:
                _skip32(rng, m)
            if not n:
                continue
            if e:
                if keep is not None:
                    row = row[keep]
                if shift is not None:
                    row = np.right_shift(row, shift, out=digs_buf[:n])
                sums += np.multiply(row, e, out=term_buf[:n])
                drawn *= q
            if drawn >= min(n, _MC_CHECK) or sure == open_:
                drawn = 1
                hits += int(np.count_nonzero(sums <= sure))
                left = np.flatnonzero((sums > sure) & (sums <= open_))
                n = len(left)
                keep = left if keep is None else keep[left]
                sums_buf[:n] = sums[left]
                sums = sums_buf[:n]
    est = hits / samples
    se = sqrt(max(est * (1.0 - est), 0.0) / samples)
    return McMeasure(est, se, hits, samples, seed, depth)


# ---------------------------------------------------------------------------
# Families and scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    param: int
    bounds: Optional[MeasureBounds]
    error: Optional[str] = None


def limit_scan(family: Callable[[int], GKSetSpec], params,
               depth_rule: Optional[Callable[[int], int]] = None) -> list[ScanRow]:
    """Bounds for a parameterized family of sets, one row per parameter.

    `family` maps the parameter to a set spec; parameters the family
    rejects (e.g. counts a congruence rule does not admit) produce a
    row carrying the error instead of aborting the scan.  The default
    depth is the digits consumed plus six, giving a bracket width of at
    most the corresponding cylinder measure.  At most `MAX_PARAMS`
    (10**5) parameters are taken; a longer iterable is refused before
    any row is computed, and so is a parameter that is not an integer
    (`errors.json_int`: 2 and 2.0 read as 2, 2.5 is refused).
    """
    if isinstance(params, (str, bytes)):  # not read item by item
        raise DomainError(f"scan parameters must be integers, not a string: {params!r}")
    params = list(islice(params, MAX_PARAMS + 1))
    if len(params) > MAX_PARAMS:
        raise DomainError(f"scan parameters exceed the limit of {MAX_PARAMS}")
    rows = []
    for n in list(map(json_int, params)):  # every parameter is read before any row
        try:
            spec = family(n)
            depth = depth_rule(n) if depth_rule else spec.required_depth + 6
            rows.append(ScanRow(n, measure_bounds(spec, depth)))
        except ValueError as exc:  # all package errors derive from ValueError
            rows.append(ScanRow(n, None, str(exc)))
    return rows


def sigma_family(q: QSequence, x, relation: str = "lt") -> Callable[[int], GKSetSpec]:
    """The family n -> { z : (n-fold shift of z) RELATION x }."""
    val = x if isinstance(x, Fraction) else parse_rational(x)
    return lambda n: GKSetSpec(q, ShiftProgram.sigma_power(n),
                               ConstRhs(val), relation)


def generator_family(q: QSequence, rule: dict, rhs: Rhs,
                     relation: str = "lt") -> Callable[[int], GKSetSpec]:
    """The family k -> { z : (rule word of length k)(z) RELATION rhs }."""
    return lambda k: GKSetSpec(q, ShiftProgram.from_generator(rule, k),
                               rhs, relation)
