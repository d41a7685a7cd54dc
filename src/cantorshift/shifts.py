"""Shift and digit-deletion operators on Cantor-series expansions.

Two primitive moves act on a digit string:

* the left shift `sigma`, which discards the first digit and renumbers,
  so sigma(x) = sum_{k>=2} e_k / (q_2 ... q_k) over the shifted base; and
* the position-m deletion `sigma_m`, which removes the m-th digit (and
  the m-th base value) and closes the gap.

A `ShiftProgram` is a word of such moves applied left to right, each
indexing into the *current* string, i.e. positions are re-counted after
every deletion.  Its meaning is which digit positions survive, and in
what order; one function computes that for both kinds of input.  An
exact rational reads only the digits the program consumes and sums the
surviving ones with `numeral._series`, the package's one integer series
kernel, closed by the remainder; a `DigitString` image is built once
from the surviving positions of the source's digits and tail.
Programs can be spelled out or produced by a generator rule, which is a
word length and an index schedule: `_rule_length` gives the length (the
family parameter k, a rule's own count, k admitted by a congruence
filter, or what a composed family's admission rule phi admits) and
`_schedule_word` fills it with deletions (a constant index, an affine
a*j + b, an explicit table, or a composed family's schedule psi).  A
program keeps only its word.

`normalize_program` rewrites a word into an equivalent one using the
identities that collapse deletion patterns into pure shift powers:

* deleting position 1 is the shift itself;
* m deletions at position 2 followed by one shift equal m + 1 shifts;
* a strictly increasing run of deletions at k_1 < ... < k_n followed by
  at least k_n - 1 shifts equals k_n + n - 1 shifts.

The second is the third applied m times, from the right.  The third
holds atom by atom: a deletion at k followed by at least k - 1 shifts is
k shifts, and each such rewrite lengthens the shift run that the atom to
its left sees.  So one pass from the right, counting the shifts that
open the suffix, reaches the normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import (MAX_PROGRAM_DEPTH, DomainError, InsufficientDepthError, json_decoder,
                     json_int, json_list)
from .numeral import (
    DigitString,
    QSequence,
    _check_unit_interval,
    _int_digits,
    _series,
    _steps,
    truncated_tail,
)

__all__ = [
    "Atom",
    "SIGMA",
    "GEN",
    "ShiftProgram",
    "shift_n",
    "gen_shift",
    "apply_program",
    "normalize_program",
    "reconstruct_identity",
    "ReconstructionCheck",
    "required_depth",
    "drop_positions",
]


# ---------------------------------------------------------------------------
# Atoms and programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """One move: kind "sigma" (drop the first digit) or "gen" (drop the
    digit at `index`, counted in the current string)."""

    kind: str
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("sigma", "gen"):
            raise DomainError(f"unknown atom kind {self.kind!r}")
        if type(self.index) is not int:  # a check, not `json_int`: words reach 10**6 atoms
            raise DomainError(f"expected an integer, got {self.index!r}")
        if self.kind == "gen" and self.index < 1:
            raise DomainError(f"deletion index must be >= 1, got {self.index}")
        if self.kind == "sigma" and self.index != 0:  # `required_depth` reads it as 0
            raise DomainError(f"a shift atom has index 0, got {self.index}")

    def to_json(self) -> dict:
        if self.kind == "sigma":
            return {"sigma": None}
        return {"gen": self.index}

    @classmethod
    def from_json(cls, obj) -> "Atom":
        if not isinstance(obj, dict):
            raise DomainError(f"atom must be an object, got {obj!r}")
        if "sigma" in obj:
            return SIGMA
        if "gen" in obj:
            return GEN(json_int(obj["gen"]))
        raise DomainError(f"unknown atom form {obj!r}")

    def __repr__(self):
        return "SIGMA" if self.kind == "sigma" else f"GEN({self.index})"


SIGMA = Atom("sigma")


def GEN(m: int) -> Atom:
    return Atom("gen", m)


# the plain rule kinds; any other rule with "psi" and "phi" is composed
_RULE_KINDS = ("const-repeat", "mod-filter", "affine", "table")


def _schedule_word(step: dict, count: int) -> tuple[Atom, ...]:
    """The deletions GEN(psi(1)), ..., GEN(psi(count)) of the index
    schedule psi = `step`: the constant m of a const-repeat or mod-filter
    rule (checked at every count, 0 included), a table rule's entries
    (refused past its end), or a*j + b for an affine rule (a and b are
    not read for a count below 1).  A schedule is read and checked once."""
    kind = step.get("kind")
    if kind in ("const-repeat", "mod-filter"):
        return (GEN(json_int(step["m"])),) * count
    if kind == "table":  # `_rule_length` refuses a count past the entries
        values = json_list(step.get("values", []))[:_rule_length(step, count)]
        return tuple(GEN(json_int(v)) for v in values)
    if kind != "affine":
        raise DomainError(f"schedule kind {kind!r} cannot produce indices")
    if count < 1:
        return ()
    a, b = json_int(step["a"]), json_int(step["b"])
    if a < 0 or a + b < 1:
        raise DomainError(f"affine schedule a={a}, b={b} must keep indices >= 1")
    return tuple(GEN(a * j + b) for j in range(1, count + 1))


def _rule_length(rule: dict, k: Optional[int]) -> int:
    """The length of a generator rule's word at the family parameter `k`:
    k itself, or when k is None a const-repeat rule's own "k" or a
    table's length; for a table, k only up to its number of entries; for
    a mod-filter rule, k only if k = 1 (mod c); for a composed family,
    the length its admission rule `phi` gives, so phi is read for
    nothing else.  No index is read.  A negative length is refused;
    every atom adds at least 1 to the word's required depth, so a length
    past `MAX_PROGRAM_DEPTH` is refused before any atom is built."""
    if not isinstance(rule, dict):
        raise DomainError("generator rule must be an object")
    kind = rule.get("kind")
    if kind not in _RULE_KINDS:
        if "psi" in rule and "phi" in rule:
            return _rule_length(rule["phi"], k)
        raise DomainError(f"unknown generator rule kind {kind!r}")
    n = len(json_list(rule.get("values", []))) if kind == "table" else None
    if k is None and kind in ("const-repeat", "table"):  # the rule's own length
        k = rule.get("k") if kind == "const-repeat" else n
    if k is None:
        what = "a word length" if kind == "affine" else "a repetition count"
        raise DomainError(f"{kind} rule needs {what}")
    k = json_int(k)
    if k < 0:
        raise DomainError("repetition count must be >= 0")
    if k > MAX_PROGRAM_DEPTH:
        raise DomainError(
            f"a word of {k} atoms requires a depth past the limit of {MAX_PROGRAM_DEPTH}")
    if kind == "mod-filter":
        c = json_int(rule["c"])
        if c < 1:
            raise DomainError("mod-filter modulus must be >= 1")
        if k % c != 1 % c:
            raise DomainError(f"count {k} not admitted by mod-filter: need k = 1 (mod {c})")
    if kind == "table" and k > n:
        raise DomainError(f"table schedule has {n} entries; step {n + 1} undefined")
    return k


def _rule_word(rule: dict, k: Optional[int]) -> tuple[Atom, ...]:
    """The word of a generator rule: its length (`_rule_length`) filled
    by an index schedule (`_schedule_word`), the rule itself for a plain
    kind and `psi` for a composed family.  `psi` may be any schedule, and
    is not read for an empty word."""
    count = _rule_length(rule, k)
    if rule.get("kind") in _RULE_KINDS:
        return _schedule_word(rule, count)
    return _schedule_word(rule["psi"], count) if count else ()


@dataclass(frozen=True)
class ShiftProgram:
    """A finite word of shift/deletion atoms, applied left to right.

    A program is its word alone: one built by `from_generator` keeps no
    record of its rule, and `to_json` writes the word.
    """

    word: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        for a in self.word:
            if not isinstance(a, Atom):
                raise DomainError(f"program word must contain atoms, got {a!r}")

    @classmethod
    def identity(cls) -> "ShiftProgram":
        return cls(())

    @classmethod
    def sigma_power(cls, n: int) -> "ShiftProgram":
        n = json_int(n)
        if n < 0:
            raise DomainError("shift power must be >= 0")
        return cls((SIGMA,) * n)

    @classmethod
    @json_decoder
    def from_generator(cls, rule: dict, k: Optional[int] = None) -> "ShiftProgram":
        return cls(_rule_word(rule, k))

    @property
    def required_depth(self) -> int:
        return required_depth(self.word)

    def is_sigma_power(self) -> Optional[int]:
        """The exponent n if the word is exactly n shifts, else None."""
        if all(a.kind == "sigma" for a in self.word):
            return len(self.word)
        return None

    def to_json(self) -> dict:
        return {"word": [a.to_json() for a in self.word]}

    @classmethod
    @json_decoder
    def from_json(cls, obj) -> "ShiftProgram":
        if not isinstance(obj, dict):
            raise DomainError("program JSON must be an object")
        if "word" in obj:
            return cls(tuple(Atom.from_json(a) for a in json_list(obj["word"])))
        if "generator" in obj:
            return cls.from_generator(obj["generator"], obj.get("k"))
        raise DomainError("program JSON needs a \"word\" list or a \"generator\" rule")

    def __repr__(self):
        return f"ShiftProgram([{', '.join(map(repr, self.word))}])"


def required_depth(word) -> int:
    """Smallest known prefix length that lets the word run on a truncated
    string.  Computed right to left: a shift consumes one more digit than
    its continuation; a deletion at m needs at least m digits."""
    req = 0
    for atom in reversed(tuple(word)):
        req = max(atom.index, req + 1)  # a shift has index 0
    return req


# ---------------------------------------------------------------------------
# Program images on rationals
# ---------------------------------------------------------------------------

def _surviving_positions(word, depth: int) -> list[int]:
    """Positions of 1..depth left after the program, in image order.

    Every atom deletes one position; a shift (index 0) deletes the
    first.  An atom that reaches past the positions still left raises,
    naming the atom and the depth the whole word needs.
    """
    pos = list(range(depth, 0, -1))  # reversed, so a shift pops the end
    try:
        for atom in word:
            del pos[-(atom.index or 1)]
    except IndexError:
        i = depth - len(pos)  # atoms run so far
        raise InsufficientDepthError(
            f"atom {i + 1} ({word[i]!r}) of the program runs past the "
            f"{depth} digits available", required=required_depth(word)) from None
    return pos[::-1]


def _greedy_head(x: Fraction, qv) -> tuple[list[int], int, int]:
    """The greedy digits of x over the base values `qv` (a window
    q_1, ..., q_depth) and the remainder a/b, the value of the digits
    after them over the shifted base.

    x = 1 is the all-maximal-digit string, whose remainder is 1.
    """
    _check_unit_interval(x)
    if x == 1:
        return [v - 1 for v in qv], 1, 1
    a, b = x.numerator, x.denominator
    digits = []
    for v in qv:
        e, a = divmod(a * v, b)
        digits.append(e)
    return digits, a, b


def _rational_image(word, depth: int, x: Fraction, q: QSequence) -> Fraction:
    """Exact image of a rational under a program word that requires
    `depth` = required_depth(word) digits.

    Every digit past `depth` survives, in order, behind the surviving head
    digits, so the image is the `_series` of the surviving head digits
    over their base values, closed by the remainder.  Cost: `depth`
    greedy steps over one window of `depth` base values, which the
    series reads as well.
    """
    qv = q.values(0, depth)
    digits, a, b = _greedy_head(x, qv)
    n, w, e = _series([(qv[s - 1], digits[s - 1], 1)
                       for s in _surviving_positions(word, depth)])
    return Fraction(n * b + w * a, e * b)


# ---------------------------------------------------------------------------
# Program images on digit strings, and the operators
# ---------------------------------------------------------------------------

Value = Union[Fraction, DigitString]


def _string_image(word, required: int, d: DigitString) -> DigitString:
    """The image of a digit string under a program word, built once.

    An atom maps a known prefix length l to max(l, k) - 1, so the word
    maps it to max(l, R) - len(word) with R = `required` (required_depth(word)):
    one materialisation to max(depth, R) fixes the image prefix, the rotation
    of a periodic tail and the base.  The base comes from one window of base
    values, through the source base's prefix and one cycle past it.  A
    truncated string is not extended; a word that needs more than its depth
    raises.
    """
    truncated = d.tail.kind == "truncated"
    n = d.depth if truncated else max(d.depth, required)
    surv = _surviving_positions(word, n)
    digits = d.digits_to(n)
    p = max(n, len(d.base.prefix))  # the image base's cycle starts past q_p
    qv = d.base.values(0, p + len(d.base.cycle))
    base = QSequence(tuple(qv[s - 1] for s in surv) + qv[n:p], qv[p:])
    tail = truncated_tail(len(surv)) if truncated else d.tail_past(n)
    return DigitString(base, tuple(digits[s - 1] for s in surv), tail)


def _check_depth(depth: int) -> None:
    if depth > MAX_PROGRAM_DEPTH:
        raise DomainError(
            f"required depth {depth} exceeds the limit of {MAX_PROGRAM_DEPTH}")


def _image(word, x: Value, q: QSequence) -> Value:
    """The image of x under a word, refused before any base value or
    digit is read when the word requires more than `MAX_PROGRAM_DEPTH`."""
    depth = required_depth(word)
    _check_depth(depth)
    if isinstance(x, DigitString):
        return _string_image(word, depth, x)
    return _rational_image(word, depth, x, q)


def shift_n(x: Value, q: QSequence, n: int) -> Value:
    """Apply the left shift n times.

    For a rational input the result is frac(x q_1 ... q_n), the exact
    value of the remainder series over the shifted base (1 stays 1); it
    costs n greedy steps.  A DigitString input gives one image built from
    the surviving positions n + 1, n + 2, ...: their digits and base values.
    """
    n = json_int(n)
    if n < 0:
        raise DomainError(f"shift count must be >= 0, got {n}")
    _check_depth(n)  # before the n-atom word is built
    return _image((SIGMA,) * n, x, q)


def gen_shift(x: Value, q: QSequence, m: int) -> Value:
    """Delete the m-th digit of x (1-indexed) and renumber.

    A rational input costs m greedy steps: the first m - 1 digits keep
    their weights and the remainder after digit m closes the image.
    Both routes reject m < 1 with a DomainError.
    """
    return _image((GEN(m),), x, q)


def drop_positions(d: DigitString, positions) -> DigitString:
    """Delete a set of digit positions counted in the *original* string.

    The positions, highest first, form a word of deletions whose indices
    all still name original positions; its image is built once from the
    surviving positions.
    """
    pos = sorted(set(_int_digits(positions)), reverse=True)
    if pos and pos[-1] < 1:
        raise DomainError("digit positions must be >= 1")
    return _image(tuple(map(GEN, pos)), d, d.base)


def apply_program(program: ShiftProgram, x: Value, q: QSequence) -> Value:
    """Run a program left to right; every atom indexes the current string.

    A rational input costs O(required depth) greedy steps, however long
    the period of its expansion; a DigitString input materialises at
    most the required depth once.
    """
    return _image(program.word, x, q)


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------

def normalize_program(program: ShiftProgram) -> ShiftProgram:
    """Rewrite a word to its normal form under the composition identities.

    One pass from the right carries the number of shifts that open the
    suffix already rewritten.  A deletion at k followed by at least
    k - 1 shifts becomes a shift in place (at k = 1, whatever follows);
    any other deletion stays and the count restarts at 0.  The result is
    the fixed point of the module's identities, keeps the word's length,
    and evaluates identically on every input deep enough for both forms.
    """
    word = list(program.word)
    shifts = 0
    for i in range(len(word) - 1, -1, -1):
        if word[i].index <= shifts + 1:  # a shift has index 0
            word[i] = SIGMA
            shifts += 1
        else:
            shifts = 0
    return ShiftProgram(tuple(word))


# ---------------------------------------------------------------------------
# Reconstruction identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructionCheck:
    """Witness of x = (partial digit sum) + shifted value / (q_1...q_n)."""

    holds: bool
    lhs: Fraction
    rhs: Fraction
    shifted: Fraction


def reconstruct_identity(x: Fraction, q: QSequence, n: int) -> ReconstructionCheck:
    """Verify that dropping n digits and reassembling recovers x exactly.

    The shifted value comes from `shift_n` and the head from the first n
    greedy digits under the identity program's weights, so both sides go
    through the digit machinery, not an algebraic rearrangement.  Cost:
    O(n) greedy steps.
    """
    n = json_int(n)
    shifted = shift_n(x, q, n)
    digits, _, _ = _greedy_head(x, q.values(0, n))
    head, w, denom = _series(_steps(digits, q))
    rhs = Fraction(head, denom) + shifted * w / denom
    return ReconstructionCheck(x == rhs, x, rhs, shifted)
