"""Shift operators, deletion operators, programs, and rewriting."""

import itertools
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cantorshift import (
    Atom,
    ConstRhs,
    DigitString,
    DomainError,
    GEN,
    GKSetSpec,
    InsufficientDepthError,
    QSequence,
    SIGMA,
    ShiftProgram,
    apply_program,
    drop_positions,
    eval_prefix,
    expand,
    expand_exact,
    gen_shift,
    normalize_program,
    reconstruct_identity,
    required_depth,
    periodic_tail,
    shift_n,
    truncated_tail,
)
from cantorshift import shifts
from cantorshift.errors import MAX_PROGRAM_DEPTH, json_decoder, json_int, json_list


@st.composite
def bases(draw):
    kind = draw(st.sampled_from(["constant", "periodic", "explicit"]))
    if kind == "constant":
        return QSequence.constant(draw(st.integers(2, 5)))
    vals = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    if kind == "periodic":
        return QSequence.periodic(vals)
    return QSequence.explicit(vals)


@st.composite
def unit_rationals(draw, max_den=300):
    den = draw(st.integers(1, max_den))
    return F(draw(st.integers(0, den)), den)


@st.composite
def words(draw):
    atoms = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            atoms.append(SIGMA)
        else:
            atoms.append(GEN(draw(st.integers(1, 5))))
    return tuple(atoms)


def truncated_string(q: QSequence, digits) -> DigitString:
    return DigitString(q, tuple(digits), truncated_tail(len(digits)))


def naive_image(word, x, q):
    """Plain-list reference for a program image: (value, base).

    Greedy digits of x and the base values go into Python lists, up to
    the depth the word reads; each atom then deletes one entry of both
    lists, and the value is their Horner sum closed by the remainder.
    The base comes from `shift`/`remove_at` one atom at a time.
    """
    bases = [q.at(k) for k in range(1, required_depth(word) + 1)]
    digits, rest = [], x
    for b in bases:
        if rest == 1:  # 1 is the all-maximal-digit string
            digits.append(b - 1)
        else:
            digits.append(int(rest * b))
            rest = rest * b - digits[-1]
    base = q
    for atom in word:
        if atom.kind == "sigma":
            digits.pop(0)
            bases.pop(0)
            base = base.shift(1)
        else:
            del digits[atom.index - 1]
            del bases[atom.index - 1]
            base = base.remove_at(atom.index)
    value = rest
    for dig, b in zip(reversed(digits), reversed(bases)):
        value = (dig + value) / b
    return value, base


# ---------------------------------------------------------------------------
# Primitive operators
# ---------------------------------------------------------------------------

class TestShiftN:
    def test_worked_mixed_base(self):
        q = QSequence.explicit([2, 3, 4])
        assert shift_n(F(5, 6), q, 1) == F(2, 3)
        assert shift_n(F(5, 6), q, 2) == F(0)

    def test_zero_shift_is_identity(self):
        assert shift_n(F(2, 7), QSequence.constant(2), 0) == F(2, 7)

    def test_base2_doubling_mod_one(self):
        # in base 2 the shift is x -> 2x mod 1 (max form at 1 maps to 1)
        q = QSequence.constant(2)
        for num in range(0, 16):
            x = F(num, 16)
            expected = 2 * x - (2 * x).__floor__() if x != 1 else F(1)
            if 2 * x == 1 or (2 * x - 1) == 1:
                # the terminating points follow the greedy (zero-tail) branch
                expected = 2 * x if 2 * x < 1 else 2 * x - 1
            assert shift_n(x, q, 1) == expected

    def test_endpoints(self):
        q = QSequence.periodic([2, 3])
        assert shift_n(F(0), q, 4) == 0
        assert shift_n(F(1), q, 4) == 1

    def test_digit_string_shift(self):
        q = QSequence.explicit([2, 3, 4])
        d = expand_exact(F(5, 6), q)
        s = shift_n(d, q, 1)
        assert s.base == q.shift(1)
        assert eval_prefix(s) == F(2, 3)

    def test_truncated_needs_depth(self):
        d = truncated_string(QSequence.constant(2), (1, 0))
        assert shift_n(d, QSequence.constant(2), 2).prefix == ()
        with pytest.raises(InsufficientDepthError) as e:
            shift_n(d, QSequence.constant(2), 3)
        assert e.value.required == 3

    @settings(max_examples=120, deadline=None)
    @given(unit_rationals(), bases(), st.integers(0, 6))
    def test_matches_tail_series(self, x, q, n):
        # the shifted value is the tail series: x minus the first n terms,
        # rescaled by the first n base values
        s = shift_n(x, q, n)
        head = eval_prefix(DigitString(q, expand(x, q, n).prefix)) if n else F(0)
        assert s == (x - head) * q.partial_product(n)
        assert 0 <= s <= 1


class TestGenShift:
    def test_worked_values(self):
        assert gen_shift(F(3, 4), QSequence.constant(2), 2) == F(1, 2)
        assert gen_shift(F(5, 6), QSequence.explicit([2, 3, 4]), 2) == F(1, 2)

    def test_first_position_equals_shift(self):
        q = QSequence.periodic([3, 2])
        for num in range(0, 13):
            x = F(num, 12)
            assert gen_shift(x, q, 1) == shift_n(x, q, 1)

    def test_fixed_points(self):
        q = QSequence.explicit([2, 3, 4])
        for m in (1, 2, 3, 5):
            assert gen_shift(F(0), q, m) == 0
            assert gen_shift(F(1), q, m) == 1

    @settings(max_examples=150, deadline=None)
    @given(unit_rationals(), bases(), st.integers(1, 6))
    def test_closed_form_equals_digit_drop(self, x, q, m):
        # independent route: expand exactly, delete the digit, evaluate
        d = expand_exact(x, q)
        dropped = drop_positions(d, [m])
        assert gen_shift(x, q, m) == eval_prefix(dropped)

    def test_affine_on_cylinder(self):
        # within one rank-m cylinder the deletion is affine with slope q_m
        q = QSequence.explicit([2, 3, 4])
        m = 2
        a, b = F(5, 7) - F(1, 100), F(5, 7)  # both start (1, 1, ...)
        assert expand(a, q, m).prefix == expand(b, q, m).prefix
        assert gen_shift(b, q, m) - gen_shift(a, q, m) == q.at(m) * (b - a)

    def test_digit_string_route_changes_base(self):
        q = QSequence.explicit([2, 3, 4])
        d = expand_exact(F(5, 6), q)
        out = gen_shift(d, q, 2)
        assert out.base == q.remove_at(2)
        assert eval_prefix(out) == F(1, 2)

    def test_truncated_depth_check(self):
        d = truncated_string(QSequence.constant(3), (2, 1))
        with pytest.raises(InsufficientDepthError):
            gen_shift(d, QSequence.constant(3), 3)
        out = gen_shift(d, QSequence.constant(3), 2)
        assert out.prefix == (2,) and out.tail == truncated_tail(1)


class TestReconstruction:
    @settings(max_examples=150, deadline=None)
    @given(unit_rationals(), bases(), st.integers(0, 8))
    def test_identity_holds(self, x, q, n):
        chk = reconstruct_identity(x, q, n)
        assert chk.holds
        assert chk.lhs == chk.rhs == x

    def test_witness_fields(self):
        chk = reconstruct_identity(F(5, 6), QSequence.explicit([2, 3, 4]), 1)
        assert chk.shifted == F(2, 3)


# ---------------------------------------------------------------------------
# Rational image kernel
# ---------------------------------------------------------------------------

@st.composite
def kernel_points(draw, q):
    """0, 1, a terminating point (denominator q_1...q_n) or a periodic one
    (a prime factor >= 7 in the denominator, which no base value has)."""
    kind = draw(st.sampled_from(["zero", "one", "terminating", "periodic"]))
    if kind == "zero":
        return F(0)
    if kind == "one":
        return F(1)
    if kind == "terminating":
        den = q.partial_product(draw(st.integers(1, 6)))
        return F(draw(st.integers(1, den - 1)), den)
    prime = draw(st.sampled_from([7, 11, 13, 97, 101]))
    den = prime * draw(st.integers(1, 30))
    return F(draw(st.integers(1, den - 1).filter(lambda n: n % prime)), den)


@st.composite
def kernel_cases(draw):
    q = draw(bases())
    word = draw(words())
    if draw(st.booleans()):
        # GEN(1) anywhere in the word, or the word emptied
        word = draw(st.sampled_from([(), (GEN(1),) + word, word + (GEN(1),)]))
    return q, word, draw(kernel_points(q))


class CountingBase(QSequence):
    """A constant base that counts the values read from it, one at a time
    or as a window."""

    def __init__(self, value):
        super().__init__((), (value,))
        object.__setattr__(self, "reads", 0)

    def at(self, k):
        object.__setattr__(self, "reads", self.reads + 1)
        return super().at(k)

    def values(self, start, stop):
        window = super().values(start, stop)
        object.__setattr__(self, "reads", self.reads + len(window))
        return window


class TestRationalKernel:
    @settings(max_examples=200, deadline=None)
    @given(kernel_cases())
    def test_programs_match_digit_string_oracle(self, case):
        # both routes against the plain-list reference, which maps atoms
        # to positions on its own
        q, word, x = case
        d = expand_exact(x, q)
        n = len(word)
        ops = [(word, lambda v: apply_program(ShiftProgram(word), v, q)),
               ((SIGMA,) * n, lambda v: shift_n(v, q, n))]
        ops += [((GEN(m),), lambda v, m=m: gen_shift(v, q, m)) for m in {1, n + 1}]
        for w, op in ops:
            value, base = naive_image(w, x, q)
            assert op(x) == value
            image = op(d)
            assert eval_prefix(image) == value
            assert image.base == base

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 10**30), st.data(), bases(), st.integers(0, 40))
    def test_large_denominators(self, den, data, q, n):
        x = F(data.draw(st.integers(0, den - 1)), den)
        y = x * q.partial_product(n)
        assert shift_n(x, q, n) == y - (y.numerator // y.denominator)

    def test_long_period_regressions(self):
        q = QSequence.constant(2)
        # binary periods 80020 and 1000002; the kernel reads one digit
        assert shift_n(F(1, 80021), q, 1) == F(2, 80021)
        assert shift_n(F(1, 1000003), q, 1) == F(2, 1000003)

    @pytest.mark.parametrize("op, most", [
        (lambda x, q: shift_n(x, q, 3), 2 * 3),
        (lambda x, q: gen_shift(x, q, 4), 2 * 4),
        (lambda x, q: apply_program(ShiftProgram((GEN(2), GEN(2), SIGMA)), x, q), 2 * 3),
        (lambda x, q: apply_program(ShiftProgram((SIGMA, GEN(5), SIGMA)), x, q), 2 * 7),
        # the shift, the head digits and their weights each read n values
        (lambda x, q: reconstruct_identity(x, q, 5), 3 * 5),
    ])
    def test_reads_only_required_depth(self, op, most):
        # the binary period of 1/1000003 is 1000002: a route that expands
        # the whole period reads about a million base values
        q = CountingBase(2)
        op(F(1, 1000003), q)
        assert 0 < q.reads <= most

    @pytest.mark.parametrize("x", [F(3, 2), F(-1, 2)])
    def test_every_program_checks_the_input(self, x):
        q = QSequence.constant(2)
        for p in (ShiftProgram.identity(), ShiftProgram((SIGMA,)), ShiftProgram((GEN(2),))):
            with pytest.raises(DomainError):
                apply_program(p, x, q)
        with pytest.raises(DomainError):
            shift_n(x, q, 0)
        with pytest.raises(DomainError):
            reconstruct_identity(x, q, 0)


    @pytest.mark.parametrize("op", [
        lambda x, q: shift_n(x, q, MAX_PROGRAM_DEPTH + 1),
        lambda x, q: gen_shift(x, q, MAX_PROGRAM_DEPTH + 1),
        # the shift then the deletion require one more than the deletion
        lambda x, q: apply_program(
            ShiftProgram((SIGMA, GEN(MAX_PROGRAM_DEPTH))), x, q),
    ], ids=["shift_n", "gen_shift", "apply_program"])
    def test_required_depth_capped_before_any_read(self, op):
        # at 10**8 the window of base values and the digit list alone
        # would take gigabytes
        q = CountingBase(2)
        d = DigitString(q, (1,), periodic_tail((0, 1)))
        reads = q.reads
        for x in (F(1, 3), d):
            with pytest.raises(DomainError, match=f"required depth {MAX_PROGRAM_DEPTH + 1} "
                                                  f"exceeds the limit of {MAX_PROGRAM_DEPTH}$"):
                op(x, q)
        with pytest.raises(DomainError, match=f"limit of {MAX_PROGRAM_DEPTH}$"):
            drop_positions(d, [2, MAX_PROGRAM_DEPTH + 1])
        assert q.reads == reads


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

class TestPrograms:
    def test_atoms_validate(self):
        with pytest.raises(DomainError):
            Atom("gen", 0)
        with pytest.raises(DomainError):
            Atom("weird")

    def test_apply_tracks_bases_on_rationals(self):
        q = QSequence.explicit([2, 3, 4])
        p = ShiftProgram((GEN(2), SIGMA))
        # delete position 2, then shift: survivors of (e1,e2,e3,...) are (e3,...)
        assert apply_program(p, F(5, 6), q) == shift_n(F(5, 6), q, 2)

    def test_current_position_semantics(self):
        # two deletions at position 2 hit original positions 2 and 3
        q = QSequence.constant(2)
        x = F(0b1011, 16)  # digits 1,0,1,1
        out = apply_program(ShiftProgram((GEN(2), GEN(2))), x, q)
        d = expand_exact(x, q)
        assert out == eval_prefix(drop_positions(d, [2, 3]))

    def test_string_and_rational_routes_agree(self):
        q = QSequence.constant(2)
        p = ShiftProgram((GEN(3), SIGMA, GEN(2)))
        for num in range(0, 33):
            x = F(num, 32)
            ds = expand_exact(x, q)
            assert eval_prefix(apply_program(p, ds, q)) == apply_program(p, x, q)

    @settings(max_examples=100, deadline=None)
    @given(words(), unit_rationals(max_den=200), bases())
    def test_routes_agree_generally(self, word, x, q):
        p = ShiftProgram(word)
        value, base = naive_image(word, x, q)
        assert apply_program(p, x, q) == value
        image = apply_program(p, expand_exact(x, q), q)
        assert eval_prefix(image) == value
        assert image.base == base

    def test_insufficient_depth_names_atom(self):
        q = QSequence.constant(2)
        d = truncated_string(q, (1, 0, 1))
        p = ShiftProgram((SIGMA, SIGMA, GEN(2)))
        with pytest.raises(InsufficientDepthError) as e:
            apply_program(p, d, q)
        assert "atom 3 (GEN(2))" in str(e.value)
        assert e.value.required == required_depth(p.word)

    def test_string_image_checks_the_period_at_most_twice(self, monkeypatch):
        # building a string with a periodic tail checks the whole period,
        # up to the end of the block `_block` gives; the image is built
        # from the source's digits and tail without materialising the
        # source first, so only the image checks it
        q = QSequence.constant(2)
        d = expand_exact(F(1, 4093), q)  # period 4092
        calls = []
        block = DigitString._block
        monkeypatch.setattr(DigitString, "_block",
                            lambda self, r=1: calls.append(1) or block(self, r))
        word = (SIGMA, SIGMA, GEN(2), GEN(2), GEN(2), GEN(2))
        image = apply_program(ShiftProgram(word), d, q)
        assert len(calls) <= 1
        assert eval_prefix(image) == naive_image(word, F(1, 4093), q)[0]
        calls.clear()
        drop_positions(d, [2, 7, 4])
        assert len(calls) <= 1


class TestRequiredDepth:
    def test_worked_values(self):
        assert required_depth(()) == 0
        assert required_depth((SIGMA, SIGMA)) == 2
        assert required_depth((GEN(5),)) == 5
        assert required_depth((GEN(2), GEN(2), SIGMA)) == 3
        assert required_depth((GEN(2), GEN(5), SIGMA, SIGMA, SIGMA, SIGMA)) == 6

    @settings(max_examples=120, deadline=None)
    @given(words())
    def test_runs_at_required_depth_not_below(self, word):
        q = QSequence.constant(3)
        p = ShiftProgram(word)
        need = required_depth(word)
        ok = truncated_string(q, (1,) * need)
        out = apply_program(p, ok, q)
        assert out.depth == need - len(word)
        if need > 0:
            short = truncated_string(q, (1,) * (need - 1))
            with pytest.raises(InsufficientDepthError):
                apply_program(p, short, q)


# ---------------------------------------------------------------------------
# Reference generator words: one builder per rule kind
# ---------------------------------------------------------------------------

def _oracle_word_length(count) -> int:
    count = json_int(count)
    if count < 0:
        raise DomainError("repetition count must be >= 0")
    if count > MAX_PROGRAM_DEPTH:
        raise DomainError(
            f"a word of {count} atoms requires a depth past the limit of {MAX_PROGRAM_DEPTH}")
    return count


def _oracle_schedule_word(step: dict, count: int):
    """Per-kind reference: the deletions of an affine or a table schedule."""
    if count < 1:
        return ()
    kind = step.get("kind")
    if kind == "affine":
        a, b = json_int(step["a"]), json_int(step["b"])
        if a < 0 or a + b < 1:
            raise DomainError(
                f"affine schedule a={a}, b={b} must keep indices >= 1")
        return tuple(shifts.GEN(a * j + b) for j in range(1, count + 1))
    if kind == "table":
        values = json_list(step.get("values", []))
        n = len(values)
        word = tuple(shifts.GEN(json_int(values[j])) for j in range(min(count, n)))
        if count > n:
            raise DomainError(
                f"table schedule has {n} entries; step {n + 1} undefined")
        return word
    raise DomainError(f"schedule kind {kind!r} cannot produce indices")


def _oracle_rule_word(rule: dict, k):
    """Per-kind reference for a generator rule's word: each kind builds its
    own word, and a composed family builds phi's whole word to count it."""
    if not isinstance(rule, dict):
        raise DomainError("generator rule must be an object")
    kind = rule.get("kind")
    if kind == "const-repeat":
        count = k if k is not None else rule.get("k")
        if count is None:
            raise DomainError("const-repeat rule needs a repetition count")
        count = _oracle_word_length(count)
        return (shifts.GEN(json_int(rule["m"])),) * count
    if kind == "mod-filter":
        m, c = json_int(rule["m"]), json_int(rule["c"])
        if c < 1:
            raise DomainError("mod-filter modulus must be >= 1")
        if k is None:
            raise DomainError("mod-filter rule needs a repetition count")
        k = _oracle_word_length(k)
        if k % c != 1 % c:
            raise DomainError(
                f"count {k} not admitted by mod-filter: need k = 1 (mod {c})")
        return (shifts.GEN(m),) * k
    if kind == "affine":
        if k is None:
            raise DomainError("affine rule needs a word length")
        return _oracle_schedule_word(rule, _oracle_word_length(k))
    if kind == "table":
        values = json_list(rule.get("values", []))
        count = _oracle_word_length(len(values) if k is None else k)
        if count > len(values):
            raise DomainError(
                f"table rule has {len(values)} entries, requested {count}")
        return _oracle_schedule_word(rule, count)
    if "psi" in rule and "phi" in rule:
        return _oracle_schedule_word(rule["psi"], len(_oracle_rule_word(rule["phi"], k)))
    raise DomainError(f"unknown generator rule kind {kind!r}")


@json_decoder
def _oracle_program(rule, k=None) -> ShiftProgram:
    return ShiftProgram(_oracle_rule_word(rule, k))


@st.composite
def _plain_rules(draw, kinds=("const-repeat", "mod-filter", "affine", "table")):
    """A valid generator rule of one of `kinds`."""
    kind = draw(st.sampled_from(kinds))
    rule = {"kind": kind}
    if kind in ("const-repeat", "mod-filter"):
        rule["m"] = draw(st.integers(1, 9))
    if kind == "const-repeat" and draw(st.booleans()):
        rule["k"] = draw(st.integers(0, 9))
    if kind == "mod-filter":
        rule["c"] = draw(st.integers(1, 4))
    if kind == "affine":
        rule["a"] = draw(st.integers(0, 3))
        rule["b"] = draw(st.integers(1 - rule["a"], 5))
    if kind == "table":
        rule["values"] = draw(st.lists(st.integers(1, 9), max_size=8))
    return rule


def _composed_rules():
    """A composed family: a schedule psi the per-kind builders read (affine
    or table) with any plain phi."""
    return st.builds(lambda psi, phi: {"psi": psi, "phi": phi},
                     _plain_rules(("affine", "table")), _plain_rules())


# ---------------------------------------------------------------------------
# Generator rules
# ---------------------------------------------------------------------------

class TestGeneratorRules:
    def test_const_repeat(self):
        p = ShiftProgram.from_generator({"kind": "const-repeat", "m": 2}, 3)
        assert p.word == (GEN(2),) * 3
        p2 = ShiftProgram.from_generator({"kind": "const-repeat", "m": 4, "k": 2})
        assert p2.word == (GEN(4), GEN(4))

    def test_affine_schedule(self):
        p = ShiftProgram.from_generator({"kind": "affine", "a": 2, "b": 1}, 3)
        assert p.word == (GEN(3), GEN(5), GEN(7))

    def test_program_compares_and_hashes_by_its_word(self):
        rule = {"kind": "affine", "a": 1, "b": 1}
        p, same = ShiftProgram.from_generator(rule, 3), ShiftProgram((GEN(2), GEN(3), GEN(4)))
        assert p == same and hash(p) == hash(same)
        assert p.to_json() == {"word": [{"gen": 2}, {"gen": 3}, {"gen": 4}]}
        spec = GKSetSpec(QSequence.constant(2), p, ConstRhs(F(1, 2)))
        assert {spec} == {GKSetSpec(QSequence.constant(2), same, ConstRhs(F(1, 2)))}
        with pytest.raises(DomainError):
            ShiftProgram.from_generator({"kind": "affine", "a": 0, "b": 0}, 2)

    def test_table_schedule(self):
        rule = {"kind": "table", "values": [4, 2, 7]}
        assert ShiftProgram.from_generator(rule).word == (GEN(4), GEN(2), GEN(7))
        assert ShiftProgram.from_generator(rule, 2).word == (GEN(4), GEN(2))
        with pytest.raises(DomainError):
            ShiftProgram.from_generator(rule, 5)

    def test_mod_filter_admission(self):
        rule = {"kind": "mod-filter", "m": 2, "c": 3}
        assert ShiftProgram.from_generator(rule, 4).word == (GEN(2),) * 4
        for bad in (2, 3, 5):
            with pytest.raises(DomainError):
                ShiftProgram.from_generator(rule, bad)

    def test_composed_schedule_and_admission(self):
        rule = {"psi": {"kind": "affine", "a": 1, "b": 1},
                "phi": {"kind": "mod-filter", "m": 2, "c": 2}}
        p = ShiftProgram.from_generator(rule, 3)
        assert p.word == (GEN(2), GEN(3), GEN(4))
        with pytest.raises(DomainError):
            ShiftProgram.from_generator(rule, 2)

    @pytest.mark.parametrize("rule, k", [
        ({"kind": "const-repeat", "m": 2}, 10**12),
        ({"kind": "const-repeat", "m": 2, "k": 10**12}, None),
        ({"kind": "mod-filter", "m": 2, "c": 1}, 10**12),
        ({"kind": "affine", "a": 1, "b": 1}, 10**12),
        ({"kind": "table", "values": [2, 3]}, 10**12),
        ({"psi": {"kind": "affine", "a": 1, "b": 1},
          "phi": {"kind": "const-repeat", "m": 2}}, 10**12),
    ], ids=["const-repeat", "const-repeat-own-count", "mod-filter", "affine", "table",
         "composed"])
    def test_word_past_the_depth_limit_is_refused_before_it_is_built(self, rule, k):
        # 10**12 atoms would not fit in memory; every atom adds at least 1
        # to the required depth
        with pytest.raises(DomainError, match=f"a word of {10**12} atoms requires "
                                              f"a depth past the limit of {MAX_PROGRAM_DEPTH}$"):
            ShiftProgram.from_generator(rule, k)

    def test_word_at_the_depth_limit_is_built(self):
        word = ShiftProgram.from_generator({"kind": "const-repeat", "m": 1}, MAX_PROGRAM_DEPTH).word
        assert len(word) == MAX_PROGRAM_DEPTH and required_depth(word) == MAX_PROGRAM_DEPTH

    def test_json_round_trip_keeps_generator(self):
        p = ShiftProgram.from_generator({"kind": "const-repeat", "m": 2}, 2)
        j = p.to_json()
        assert ShiftProgram.from_json(j) == p
        assert ShiftProgram.from_json(
            {"generator": {"kind": "const-repeat", "m": 2}, "k": 2}).word == p.word

    def test_plain_json_round_trip(self):
        p = ShiftProgram((SIGMA, GEN(3)))
        assert ShiftProgram.from_json(p.to_json()) == p
        with pytest.raises(DomainError):
            ShiftProgram.from_json({"nonsense": 1})

    def test_program_json_is_its_word(self):
        # a program keeps no record of its rule; a "generator" beside a
        # "word" is ignored like any unknown key
        p = ShiftProgram.from_generator({"kind": "affine", "a": 1, "b": 1}, 2)
        assert p.to_json() == {"word": [{"gen": 2}, {"gen": 3}]}
        assert ShiftProgram.from_json(
            {"word": [{"sigma": None}], "generator": {"kind": "affine", "a": 1, "b": 1}}
        ).word == (SIGMA,)
        assert ShiftProgram.from_json({"word": [], "generator": "junk"}).word == ()

    def test_composed_constant_schedule(self):
        # psi may be any schedule: a const-repeat one repeats its m
        rule = {"psi": {"kind": "const-repeat", "m": 2}, "phi": {"kind": "affine", "a": 1, "b": 1}}
        for k in range(6):
            assert ShiftProgram.from_generator(rule, k).word == (GEN(2),) * k

    def test_admission_rule_is_read_for_its_length_only(self, monkeypatch):
        # one GEN per atom of the word; the per-kind builders also build
        # phi's word of 1000 atoms, only to count them
        calls = []
        monkeypatch.setattr(shifts, "GEN", lambda m: calls.append(m) or GEN(m))
        rule = {"psi": {"kind": "affine", "a": 1, "b": 1},
                "phi": {"kind": "affine", "a": 1, "b": 1}}
        assert ShiftProgram.from_generator(rule, 1000).word == tuple(map(GEN, range(2, 1002)))
        assert len(calls) == 1000
        calls.clear()
        assert _oracle_program(rule, 1000).word == tuple(map(GEN, range(2, 1002)))
        assert len(calls) == 2000

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_plain_rules(), _composed_rules()), st.one_of(st.none(), st.integers(-2, 12)))
    def test_word_equals_the_per_kind_builders(self, rule, k):
        try:
            want = _oracle_program(rule, k).word
        except DomainError as exc:
            message = str(exc)
            if "entries, requested" in message:
                # a table past its length, as a rule or as a composed
                # family's phi, names the step the schedule lacks
                n = len(rule.get("phi", rule)["values"])
                message = f"table schedule has {n} entries; step {n + 1} undefined"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                ShiftProgram.from_generator(rule, k)
            return
        assert ShiftProgram.from_generator(rule, k).word == want


# ---------------------------------------------------------------------------
# Refused inputs
# ---------------------------------------------------------------------------

def _composed(psi):
    return {"psi": psi, "phi": {"kind": "const-repeat", "m": 2}}


REFUSALS = {
    "atom-form": (lambda: Atom.from_json({"shift": 1}),
                  "unknown atom form {'shift': 1}"),
    "atom-not-object": (lambda: Atom.from_json("sigma"),
                        "atom must be an object, got 'sigma'"),
    "table-past-end": (lambda: ShiftProgram.from_generator(
                           _composed({"kind": "table", "values": [2]}), 2),
                       "table schedule has 1 entries; step 2 undefined"),
    "admission-table-past-end": (lambda: ShiftProgram.from_generator(
                                     {"psi": {"kind": "affine", "a": 1, "b": 1},
                                      "phi": {"kind": "table", "values": [2, 3]}}, 3),
                                 "table schedule has 2 entries; step 3 undefined"),
    "schedule-kind": (lambda: ShiftProgram.from_generator(_composed({"kind": "spiral"}), 1),
                      "schedule kind 'spiral' cannot produce indices"),
    "rule-not-object": (lambda: ShiftProgram.from_generator([2], 1),
                        "generator rule must be an object"),
    "const-repeat-no-count": (lambda: ShiftProgram.from_generator(
                                  {"kind": "const-repeat", "m": 2}),
                              "const-repeat rule needs a repetition count"),
    "const-repeat-negative": (lambda: ShiftProgram.from_generator(
                                  {"kind": "const-repeat", "m": 2}, -1),
                              "repetition count must be >= 0"),
    "mod-filter-modulus": (lambda: ShiftProgram.from_generator(
                               {"kind": "mod-filter", "m": 2, "c": 0}, 1),
                           "mod-filter modulus must be >= 1"),
    "mod-filter-no-count": (lambda: ShiftProgram.from_generator(
                                {"kind": "mod-filter", "m": 2, "c": 3}),
                            "mod-filter rule needs a repetition count"),
    "affine-no-length": (lambda: ShiftProgram.from_generator(
                             {"kind": "affine", "a": 1, "b": 1}),
                         "affine rule needs a word length"),
    "rule-kind": (lambda: ShiftProgram.from_generator({"kind": "spiral"}, 1),
                  "unknown generator rule kind 'spiral'"),
    "non-atom": (lambda: ShiftProgram((SIGMA, 2)),
                 "program word must contain atoms, got 2"),
    "sigma-power": (lambda: ShiftProgram.sigma_power(-1),
                    "shift power must be >= 0"),
    "program-not-object": (lambda: ShiftProgram.from_json([{"sigma": None}]),
                           "program JSON must be an object"),
    "shift-count": (lambda: shift_n(F(1, 3), QSequence.constant(2), -1),
                    "shift count must be >= 0, got -1"),
    "position": (lambda: drop_positions(expand_exact(F(1, 3), QSequence.constant(2)), [0]),
                 "digit positions must be >= 1"),
    # a negative word length is refused by every rule kind, not read as 0
    "mod-filter-negative": (lambda: ShiftProgram.from_generator(
                                {"kind": "mod-filter", "m": 2, "c": 3}, -5),
                            "repetition count must be >= 0"),
    "affine-negative": (lambda: ShiftProgram.from_generator(
                            {"kind": "affine", "a": 1, "b": 1}, -5),
                        "repetition count must be >= 0"),
    "table-negative": (lambda: ShiftProgram.from_generator(
                           {"kind": "table", "values": [2, 3]}, -1),
                       "repetition count must be >= 0"),
    # JSON numbers where an integer is expected are refused, not truncated
    "atom-json-fraction": (lambda: Atom.from_json({"gen": 2.9}),
                           "expected an integer, got 2.9"),
    "rule-field-fraction": (lambda: ShiftProgram.from_generator(
                                {"kind": "affine", "a": 1, "b": 0.5}, 2),
                            "expected an integer, got 0.5"),
    "rule-count-fraction": (lambda: ShiftProgram.from_json(
                                {"generator": {"kind": "const-repeat", "m": 2}, "k": 1.5}),
                            "expected an integer, got 1.5"),
    # a JSON string is refused, not read item by item, and a boolean is not 0 or 1
    "table-rule-string": (lambda: ShiftProgram.from_generator({"kind": "table", "values": "23"}),
                          "expected a JSON array, got '23'"),
    "table-schedule-string": (lambda: ShiftProgram.from_generator(
                                  _composed({"kind": "table", "values": "23"}), 2),
                              "expected a JSON array, got '23'"),
    "atom-json-bool": (lambda: Atom.from_json({"gen": True}), "expected an integer, got True"),
    "word-json-string": (lambda: ShiftProgram.from_json({"word": "ab"}),
                         "expected a JSON array, got 'ab'"),
    # the library constructors refuse a non-integer index, not truncate it
    "atom-bool": (lambda: GEN(True), "expected an integer, got True"),
    "atom-fraction": (lambda: GEN(2.5), "expected an integer, got 2.5"),
    "shift-index": (lambda: Atom("sigma", 3), "a shift atom has index 0, got 3"),
    "position-fraction": (lambda: drop_positions(expand_exact(F(1, 3), QSequence.constant(2)),
                                                 [1.5]),
                          "expected an integer, got 1.5"),
    "position-string": (lambda: drop_positions(expand_exact(F(1, 3), QSequence.constant(2)),
                                               "12"),
                        "expected an iterable of integers, got '12'"),
    # so do the shift counts
    "shift-count-fraction": (lambda: shift_n(F(1, 3), QSequence.constant(2), 2.5),
                             "expected an integer, got 2.5"),
    "reconstruct-count-fraction": (lambda: reconstruct_identity(F(1, 3), QSequence.constant(2),
                                                                2.5),
                                   "expected an integer, got 2.5"),
    "sigma-power-fraction": (lambda: ShiftProgram.sigma_power(1.5),
                             "expected an integer, got 1.5"),
}


def test_zero_count_word_is_empty_and_integral_json_numbers_are_read():
    for rule in ({"kind": "const-repeat", "m": 2}, {"kind": "mod-filter", "m": 2, "c": 1},
                 {"kind": "affine", "a": 1, "b": 1}, {"kind": "table", "values": [2]}):
        assert ShiftProgram.from_generator(rule, 0).word == ()
    for v in (2, 2.0, "2"):
        assert Atom.from_json({"gen": v}) == GEN(2)
        assert ShiftProgram.from_generator({"kind": "affine", "a": v, "b": 1}, 2).word == (
            GEN(3), GEN(5))


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_input_names_its_fault(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------

def _count_sigmas_from(word, start) -> int:
    n = 0
    while start + n < len(word) and word[start + n].kind == "sigma":
        n += 1
    return n


def normalize_oracle(program: ShiftProgram) -> ShiftProgram:
    """Reference rewriter: the identities applied to a fixed point.

    After GEN(1) -> SIGMA, it rescans from the left after every rewrite
    and fires the first that applies: a run of deletions at 2 followed by
    a shift, or a strictly increasing deletion run k_1 < ... < k_n
    followed by at least k_n - 1 shifts.  Quadratic or worse in the word
    length, so only for short words.
    """
    word = [SIGMA if (a.kind == "gen" and a.index == 1) else a
            for a in program.word]
    changed = True
    while changed:
        changed = False
        for i, atom in enumerate(word):
            if atom.kind != "gen":
                continue
            if atom.index == 2:
                # maximal run of deletions at position 2
                j = i
                while j < len(word) and word[j] == Atom("gen", 2):
                    j += 1
                run = j - i
                if _count_sigmas_from(word, j) >= 1:
                    word[i:j + 1] = [SIGMA] * (run + 1)
                    changed = True
                    break
            # maximal strictly increasing run starting here
            j = i
            last = 0
            while (j < len(word) and word[j].kind == "gen"
                   and word[j].index > last):
                last = word[j].index
                j += 1
            n = j - i
            need = last - 1
            if n >= 1 and _count_sigmas_from(word, j) >= need:
                word[i:j + need] = [SIGMA] * (last + n - 1)
                changed = True
                break
    return ShiftProgram(tuple(word))


class TestNormalize:
    def test_equals_oracle_on_every_short_word(self):
        atoms = [SIGMA] + [GEN(m) for m in range(1, 6)]
        count = 0
        for n in range(6):
            for word in itertools.product(atoms, repeat=n):
                p = ShiftProgram(word)
                assert normalize_program(p) == normalize_oracle(p), word
                count += 1
        assert count == 9331

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(SIGMA), st.builds(GEN, st.integers(1, 12))),
                    max_size=30))
    def test_equals_oracle(self, word):
        p = ShiftProgram(tuple(word))
        assert normalize_program(p) == normalize_oracle(p)

    def test_alternating_word_collapses(self):
        # every GEN(3) sees at least two shifts once the ones to its
        # right have become shifts
        word = (GEN(3), SIGMA) * 5000 + (SIGMA,)
        assert normalize_program(ShiftProgram(word)).word == (SIGMA,) * 10001

    def test_long_increasing_run_is_linear(self):
        # GEN(2), ..., GEN(20001) with no shift after it stays as it is;
        # rescanning the run from every start took 20 s
        start = time.perf_counter()
        p = ShiftProgram.from_generator({"kind": "affine", "a": 1, "b": 1}, 20000)
        out = normalize_program(p)
        assert time.perf_counter() - start < 1
        assert out == p

    def test_deletion_at_one_is_shift(self):
        p = normalize_program(ShiftProgram((GEN(1), GEN(1))))
        assert p.word == (SIGMA, SIGMA)

    def test_repeated_twos_then_shift(self):
        for m in range(1, 6):
            p = normalize_program(ShiftProgram((GEN(2),) * m + (SIGMA,)))
            assert p.is_sigma_power() == m + 1

    def test_increasing_run(self):
        word = (GEN(2), GEN(3), SIGMA, SIGMA)
        assert normalize_program(ShiftProgram(word)).is_sigma_power() == 4
        word = (GEN(1), GEN(3), GEN(6), SIGMA) + (SIGMA,) * 4
        # leading GEN(1) becomes a shift; run (3,6) then 5 shifts -> 6+2-1
        out = normalize_program(ShiftProgram(word))
        assert out.is_sigma_power() == 1 + 7

    def test_chained_rewrites(self):
        word = (GEN(5), GEN(2), GEN(3), SIGMA, SIGMA)
        assert normalize_program(ShiftProgram(word)).is_sigma_power() == 5

    def test_irreducible_words_unchanged(self):
        for word in ((GEN(3), GEN(5), SIGMA, SIGMA),
                     (SIGMA, GEN(3)),
                     (GEN(4), GEN(2))):
            assert normalize_program(ShiftProgram(word)).word == word

    def test_extra_shifts_left_over(self):
        # the rewrite consumes one shift and leaves the rest in place
        word = (GEN(2), SIGMA, SIGMA, SIGMA)
        out = normalize_program(ShiftProgram(word))
        assert out.is_sigma_power() == 4

    @settings(max_examples=120, deadline=None)
    @given(words(), st.integers(2, 4))
    def test_rewrite_preserves_semantics(self, word, qval):
        q = QSequence.constant(qval)
        p = ShiftProgram(word)
        n = normalize_program(p)
        need = max(required_depth(word), required_depth(n.word), 1)
        digits = tuple((i * 7 + 3) % qval for i in range(need + 4))
        s = truncated_string(q, digits)
        a = apply_program(p, s, q)
        b = apply_program(n, s, q)
        # both leave truncated strings; equal value intervals and bases
        assert eval_prefix(a) == eval_prefix(b)
        assert a.base == b.base

    @settings(max_examples=80, deadline=None)
    @given(words(), unit_rationals(max_den=100), st.integers(2, 4))
    def test_rewrite_preserves_rational_values(self, word, x, qval):
        q = QSequence.constant(qval)
        p = ShiftProgram(word)
        assert apply_program(p, x, q) == apply_program(normalize_program(p), x, q)
