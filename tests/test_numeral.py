"""Digit expansion, evaluation, classification, cylinders."""

import re
import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cantorshift import (
    MAX_TAIL,
    DigitString,
    DomainError,
    InsufficientDepthError,
    Interval,
    QSequence,
    Tail,
    ZERO_TAIL,
    classify_rationality,
    cylinder_info,
    eval_prefix,
    expand,
    expand_exact,
    format_rational,
    parse_rational,
    periodic_tail,
    truncated_tail,
)
from cantorshift import numeral
from cantorshift.errors import MAX_EXPAND_DEPTH, MAX_EXPONENT, MAX_PROBE
from cantorshift.numeral import _decision_bound, _resolve


@st.composite
def bases(draw):
    kind = draw(st.sampled_from(["constant", "periodic", "explicit"]))
    if kind == "constant":
        return QSequence.constant(draw(st.integers(2, 6)))
    vals = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    if kind == "periodic":
        return QSequence.periodic(vals)
    return QSequence.explicit(vals)


P23 = QSequence.periodic([2, 3])
E234 = QSequence.explicit([2, 3, 4])


@st.composite
def pre_periodic_bases(draw):
    prefix = draw(st.lists(st.integers(2, 12), max_size=4))
    cycle = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
    return QSequence(tuple(prefix), tuple(cycle))


@st.composite
def unit_rationals(draw, max_den=400):
    den = draw(st.integers(1, max_den))
    num = draw(st.integers(0, den))
    return F(num, den)


def digit_by_scaling(x: F, q: QSequence, k: int) -> int:
    # independent digit formula: e_k = floor(x P_k) - q_k floor(x P_{k-1})
    pk = q.partial_product(k)
    pk1 = q.partial_product(k - 1)
    return (x.numerator * pk) // x.denominator - q.at(k) * (
        (x.numerator * pk1) // x.denominator)


def direct_sum(digits, q: QSequence) -> F:
    return sum((F(d, q.partial_product(i + 1)) for i, d in enumerate(digits)),
               F(0))


# ---------------------------------------------------------------------------
# Base sequences
# ---------------------------------------------------------------------------

class TestQSequence:
    def test_kinds_and_indexing(self):
        q = QSequence.explicit([2, 3, 4])
        assert [q.at(k) for k in range(1, 6)] == [2, 3, 4, 4, 4]
        p = QSequence.periodic([2, 3])
        assert [p.at(k) for k in range(1, 6)] == [2, 3, 2, 3, 2]
        c = QSequence.constant(5)
        assert c.at(1) == c.at(100) == 5

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(2, 12), max_size=4),
           st.lists(st.integers(2, 12), min_size=1, max_size=4),
           st.sampled_from(["in-prefix", "past-prefix", "empty", "across"]), st.data())
    def test_values_window_matches_single_lookups(self, prefix, cycle, where, data):
        q = QSequence(tuple(prefix), tuple(cycle))
        p = len(prefix)
        if where == "in-prefix":  # stop <= len(prefix)
            stop = data.draw(st.integers(0, p))
            start = data.draw(st.integers(0, stop))
        elif where == "past-prefix":  # start past the prefix
            start = data.draw(st.integers(p, p + 12))
            stop = data.draw(st.integers(start, start + 30))
        elif where == "empty":  # start == stop, or stop before start
            start = data.draw(st.integers(0, p + 12))
            stop = data.draw(st.integers(-2, start))
        else:
            start = data.draw(st.integers(0, p))
            stop = data.draw(st.integers(p, p + 30))
        assert q.values(start, stop) == tuple(q.at(k) for k in range(start + 1, stop + 1))

    def test_values_window_starts_at_zero_or_later(self):
        with pytest.raises(DomainError, match="got -1"):
            QSequence.constant(2).values(-1, 3)

    def test_partial_product(self):
        q = QSequence.explicit([2, 3, 4])
        assert q.partial_product(0) == 1
        assert q.partial_product(3) == 24
        assert q.partial_product(5) == 24 * 16

    def test_shift_matches_reindexing(self):
        q = QSequence.periodic([2, 3, 5])
        for n in range(7):
            s = q.shift(n)
            assert [s.at(k) for k in range(1, 8)] == [q.at(k + n) for k in range(1, 8)]

    def test_remove_at_matches_list_deletion(self):
        q = QSequence.explicit([2, 3, 4, 5])
        for m in range(1, 9):
            r = q.remove_at(m)
            ref = [q.at(k) for k in range(1, 12)]
            del ref[m - 1]
            assert [r.at(k) for k in range(1, 11)] == ref

    def test_remove_at_periodic_stays_periodic(self):
        p = QSequence.periodic([2, 3])
        r = p.remove_at(2)
        assert [r.at(k) for k in range(1, 6)] == [2, 2, 3, 2, 3]

    def test_equality_is_extensional(self):
        assert QSequence.periodic([2, 3, 2, 3]) == QSequence.periodic([2, 3])
        assert QSequence.explicit([2, 2, 2]) == QSequence.constant(2)
        assert QSequence.periodic([2, 3]) != QSequence.periodic([3, 2])
        assert hash(QSequence.constant(2)) == hash(QSequence.explicit([2, 2]))

    def test_validation(self):
        with pytest.raises(DomainError):
            QSequence.constant(1)
        with pytest.raises(DomainError):
            QSequence.periodic([])
        with pytest.raises(DomainError):
            QSequence.explicit([2, 0])

    def test_json_round_trip(self):
        for q in (QSequence.constant(3), QSequence.periodic([2, 3]),
                  QSequence.explicit([2, 3, 4])):
            assert QSequence.from_json(q.to_json()) == q
        assert QSequence.from_json(7) == QSequence.constant(7)
        assert QSequence.from_json([2, 3]) == QSequence.explicit([2, 3])

    def test_pre_periodic_has_no_json_form(self):
        q = QSequence.periodic([2, 3]).remove_at(1)  # prefix (3,), cycle (2,3)... derived
        with pytest.raises(ValueError):
            QSequence((5,), (2, 3)).to_json()
        # but a derived sequence that collapses is fine
        assert QSequence((2,), (2,)).to_json() == {"kind": "constant", "values": [2]}
        assert q == QSequence((), (3, 2))


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------

class TestExpand:
    def test_mixed_base_terminating(self):
        q = QSequence.explicit([2, 3, 4])
        d = expand(F(5, 6), q, 2)
        assert d.prefix == (1, 2)
        assert d.tail.kind == "zero"

    def test_terminating_pads_zeros(self):
        d = expand(F(1, 2), QSequence.constant(2), 5)
        assert d.prefix == (1, 0, 0, 0, 0)
        assert d.tail.kind == "zero"

    def test_periodic_detection(self):
        d = expand(F(1, 3), QSequence.constant(2), 6)
        assert d.prefix == (0, 1, 0, 1, 0, 1)
        assert d.tail == periodic_tail((0, 1))

    def test_periodic_tail_rotation(self):
        # cutting a period mid-cycle must rotate the stored pattern
        d = expand(F(1, 3), QSequence.constant(2), 5)
        assert d.prefix == (0, 1, 0, 1, 0)
        assert d.tail == periodic_tail((1, 0))
        assert eval_prefix(d) == F(1, 3)

    def test_one_is_all_max(self):
        q = QSequence.explicit([2, 3, 4])
        d = expand(F(1), q, 3)
        assert d.prefix == (1, 2, 3)
        assert d.tail.kind == "max"
        assert eval_prefix(d) == 1

    def test_zero(self):
        d = expand(F(0), QSequence.constant(3), 4)
        assert d.prefix == (0, 0, 0, 0) and d.tail.kind == "zero"

    def test_truncation_when_probe_too_small(self):
        # 1/7 repeats with period 3; a 3-step probe ends before the
        # remainder state recurs, so the tail stays unknown
        d = expand(F(1, 7), QSequence.constant(2), 3, probe_limit=3)
        assert d.tail.kind == "truncated"
        v = eval_prefix(d)
        assert isinstance(v, Interval)
        assert v.contains(F(1, 7))
        assert v.width == F(1, 8)
        assert expand(F(1, 7), QSequence.constant(2), 3).tail == periodic_tail((0, 0, 1))

    def test_depth_capped_before_any_digit(self):
        q = QSequence.constant(2)
        with pytest.raises(DomainError, match=f"limit of {MAX_EXPAND_DEPTH}$"):
            expand(F(1, 3), q, MAX_EXPAND_DEPTH + 1)
        assert expand(F(1, 3), q, 1500).tail == periodic_tail((0, 1))

    def test_explicit_probe_capped_before_any_digit(self, monkeypatch):
        # the binary period of 1/(10**30 + 57) is far longer than any
        # probe: with a probe of 10**8 `expand` gave no answer within 10 s
        x, q = F(1, 10**30 + 57), QSequence.constant(2)
        assert expand(x, q, 1, probe_limit=MAX_PROBE // 1000).tail.kind == "truncated"
        assert classify_rationality(x, q, probe_depth=MAX_PROBE // 1000).kind == "undecided"
        monkeypatch.setattr(numeral, "_resolve", None)
        for call in (lambda: expand(x, q, 1, probe_limit=MAX_PROBE + 1),
                     lambda: expand(F(1), q, 1, probe_limit=MAX_PROBE + 1),
                     lambda: classify_rationality(x, q, probe_depth=MAX_PROBE + 1)):
            with pytest.raises(DomainError, match=f"probe {MAX_PROBE + 1} exceeds "
                                                  f"the limit of {MAX_PROBE}$"):
                call()

    def test_explicit_probe_up_to_the_cap_is_accepted(self):
        x, q = F(1, 3), QSequence.constant(2)
        assert expand(x, q, 4, probe_limit=MAX_PROBE) == expand(x, q, 4)
        assert classify_rationality(x, q, probe_depth=MAX_PROBE).kind == "q-irrational"

    def test_default_scans_stop_at_the_cap(self, monkeypatch):
        # the binary period of 1/1000003 is 1000002: past a cap of 1000
        # digits the default probe answers "undecided", as an explicit
        # probe too small for x does, and a short period still closes
        q = QSequence.constant(2)
        monkeypatch.setattr(numeral, "MAX_PROBE", 1000)
        r = classify_rationality(F(1, 1000003), q)
        assert (r.kind, r.probe_depth) == ("undecided", 1000)
        assert classify_rationality(F(1, 1000003), q, probe_depth=1000) == r
        assert classify_rationality(F(1, 7), q).kind == "q-irrational"
        assert expand_exact(F(1, 7), q).tail == periodic_tail((0, 0, 1))

    def test_out_of_range(self):
        for bad in (F(-1, 2), F(3, 2)):
            with pytest.raises(DomainError):
                expand(bad, QSequence.constant(2), 3)
        with pytest.raises(DomainError):
            expand(0.5, QSequence.constant(2), 3)  # floats refused

    @settings(max_examples=150, deadline=None)
    @given(unit_rationals(), bases(), st.integers(1, 12))
    def test_digits_match_scaling_formula(self, x, q, depth):
        if x == 1:
            return
        d = expand(x, q, depth)
        for k in range(1, depth + 1):
            assert d.prefix[k - 1] == digit_by_scaling(x, q, k)

    @settings(max_examples=150, deadline=None)
    @given(unit_rationals(), bases(), st.integers(1, 12))
    def test_expand_then_eval_recovers_x(self, x, q, depth):
        d = expand(x, q, depth)
        v = eval_prefix(d)
        if isinstance(v, Interval):
            assert v.contains(x)
        else:
            assert v == x

    @settings(max_examples=150, deadline=None)
    @given(unit_rationals(), st.one_of(bases(), pre_periodic_bases()))
    def test_expand_exact_always_resolves(self, x, q):
        d = expand_exact(x, q)
        assert d.tail.kind in ("zero", "periodic", "max")
        assert eval_prefix(d) == x


# ---------------------------------------------------------------------------
# Digit strings and evaluation
# ---------------------------------------------------------------------------

class TestDigitString:
    def test_digit_range_validation(self):
        q = QSequence.explicit([2, 3, 4])
        with pytest.raises(DomainError):
            DigitString(q, (2, 0))
        with pytest.raises(DomainError):
            DigitString(q, (1, 3))
        DigitString(q, (1, 2, 3))  # maximal digits fine

    def test_periodic_tail_range_validation(self):
        q = QSequence.explicit([2, 3, 4])
        with pytest.raises(DomainError):
            DigitString(q, (), periodic_tail((1, 5)))
        DigitString(q, (1,), periodic_tail((2, 3)))

    @pytest.mark.parametrize("q, prefix, tail, message", [
        (P23, (1, 2, 2), ZERO_TAIL, "digit 2 at position 3 outside range 0..1"),
        (P23, (1, 0, 1, 3), ZERO_TAIL, "digit 3 at position 4 outside range 0..2"),
        (E234, (1, 2, 3, 4), ZERO_TAIL, "digit 4 at position 4 outside range 0..3"),
        (E234, (-1,), ZERO_TAIL, "digit -1 at position 1 outside range 0..1"),
        (P23, (1,), periodic_tail((2,)), "periodic tail digit 2 outside range at position 3"),
        (P23, (), periodic_tail((0, 0, 0, 0, 2)), "periodic tail digit 2 outside range at position 5"),
        (P23, (), periodic_tail((1, 2, 0)), "periodic tail digit 2 outside range at position 5"),
        (P23, (1, 2), periodic_tail((0, 1, 2, 1)), "periodic tail digit 2 outside range at position 5"),
        (E234, (), periodic_tail((1, 3)), "periodic tail digit 3 outside range at position 2"),
        (E234, (1, 2, 3), periodic_tail((3, 3, -1)), "periodic tail digit -1 outside range at position 6"),
        (QSequence.explicit([5, 5, 5, 2]), (), periodic_tail((4,)),
         "periodic tail digit 4 outside range at position 4"),
    ])
    def test_out_of_range_digit_names_its_position(self, q, prefix, tail, message):
        with pytest.raises(DomainError) as e:
            DigitString(q, prefix, tail)
        assert str(e.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([P23, E234, QSequence.periodic([3, 2, 4]), QSequence((4, 2), (3, 2))]),
           st.lists(st.integers(-1, 4), max_size=6),
           st.one_of(st.lists(st.integers(-1, 4), min_size=1, max_size=5),
                     st.sampled_from(["zero", "max"]), st.integers(0, 7)))
    def test_first_out_of_range_digit_matches_single_lookups(self, q, prefix, tail):
        # a tail is a periodic pattern, "zero", "max" or a truncation
        # depth, which may differ from the prefix length; the range error
        # comes before the depth error.  The oracle checks every position
        # up to the product bound with `at`
        bad = [(k, d) for k, d in enumerate(prefix, 1) if not 0 <= d < q.at(k)]
        bad_tail = []
        if isinstance(tail, list):
            end = max(len(prefix), len(q.prefix)) + len(tail) * len(q.cycle)
            bad_tail = [(k, tail[(k - len(prefix) - 1) % len(tail)])
                        for k in range(len(prefix) + 1, end + 1)]
            bad_tail = [(k, d) for k, d in bad_tail if not 0 <= d < q.at(k)]
            tail = periodic_tail(tail)
        else:
            tail = truncated_tail(tail) if isinstance(tail, int) else Tail.from_json(tail)
        if bad:
            k, d = bad[0]
            want = f"digit {d} at position {k} outside range 0..{q.at(k) - 1}"
        elif bad_tail:
            want = "periodic tail digit {1} outside range at position {0}".format(*bad_tail[0])
        elif tail.kind == "truncated" and tail.depth != len(prefix):
            want = f"truncated tail depth {tail.depth} != prefix length {len(prefix)}"
        else:
            DigitString(q, tuple(prefix), tail)
            return
        with pytest.raises(DomainError) as e:
            DigitString(q, tuple(prefix), tail)
        assert str(e.value) == want

    @settings(max_examples=200, deadline=None)
    @given(pre_periodic_bases(), st.lists(st.integers(0, 1), max_size=5),
           st.one_of(st.sampled_from(["zero", "max", "truncated"]),
                     st.lists(st.integers(0, 1), min_size=1, max_size=3)))
    def test_digits_to_reads_digit_by_digit(self, q, prefix, tail):
        # every n from 0 to two tail periods past the depth; a truncated
        # string only up to its depth
        if tail == "truncated":
            tail = truncated_tail(len(prefix))
        else:
            tail = periodic_tail(tail) if isinstance(tail, list) else Tail.from_json(tail)
        d = DigitString(q, tuple(prefix), tail)
        top = d.depth if tail.kind == "truncated" else d.depth + 2 * (len(tail.period) or 1)
        for n in range(top + 1):
            assert d.digits_to(n) == tuple(d.digit(k) for k in range(1, n + 1))

    def test_tail_past_worked_case(self):
        # (1, 2, 3, 4, 5) then 7, 8, 7, 8, ...: the digit at position 7 is 8
        d = DigitString(QSequence.constant(10), (1, 2, 3, 4, 5), periodic_tail((7, 8)))
        assert d.digits_to(7) == (1, 2, 3, 4, 5, 7, 8)
        assert d.tail_past(6) == periodic_tail((8, 7))

    @settings(max_examples=200, deadline=None)
    @given(pre_periodic_bases(), st.lists(st.integers(0, 1), max_size=5),
           st.one_of(st.sampled_from(["zero", "max"]),
                     st.lists(st.integers(0, 1), min_size=1, max_size=3)))
    def test_continuation_past_the_depth_keeps_the_digits(self, q, prefix, tail):
        # for n from the depth to two tail periods past it, the first n
        # digits and the tail past them continue the string: the same
        # first depth + 4 periods digits
        tail = periodic_tail(tail) if isinstance(tail, list) else Tail.from_json(tail)
        d = DigitString(q, tuple(prefix), tail)
        period = len(tail.period) or 1
        want = [d.digit(k) for k in range(1, d.depth + 4 * period + 1)]
        for n in range(d.depth, d.depth + 2 * period + 1):
            c = DigitString(q, d.digits_to(n), d.tail_past(n))
            assert [c.digit(k) for k in range(1, len(want) + 1)] == want

    def test_truncated_depth_must_match(self):
        with pytest.raises(DomainError):
            DigitString(QSequence.constant(2), (1, 0), truncated_tail(3))

    def test_digit_materializes_tails(self):
        q = QSequence.explicit([2, 3, 4])
        d = DigitString(q, (1,), Tail.from_json("max"))
        assert [d.digit(k) for k in range(1, 5)] == [1, 2, 3, 3]
        p = DigitString(QSequence.constant(3), (2,), periodic_tail((0, 1)))
        assert [p.digit(k) for k in range(1, 6)] == [2, 0, 1, 0, 1]

    def test_digit_beyond_truncation_raises(self):
        d = DigitString(QSequence.constant(2), (1, 0), truncated_tail(2))
        with pytest.raises(InsufficientDepthError) as e:
            d.digit(3)
        assert e.value.required == 3

    def test_materialize_preserves_value(self):
        q = QSequence.periodic([2, 3])
        d = DigitString(q, (1,), periodic_tail((2, 1)))
        for n in (1, 2, 3, 5, 8):
            m = d.materialize(n)
            assert m.depth >= n
            assert eval_prefix(m) == eval_prefix(d)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(bases(), pre_periodic_bases()), st.data())
    def test_max_tail_evaluates_to_supremum(self, q, data):
        e = QSequence.explicit([2, 3, 4])
        assert eval_prefix(DigitString(e, (), Tail.from_json("max"))) == 1
        assert eval_prefix(DigitString(e, (0,), Tail.from_json("max"))) == F(1, 2)
        # the prefix may end before or after the base prefix
        prefix = [data.draw(st.integers(0, q.at(k) - 1)) for k in range(
            1, data.draw(st.integers(0, len(q.prefix) + 3)) + 1)]
        d = DigitString(q, prefix, Tail.from_json("max"))
        assert eval_prefix(d) == direct_sum(prefix, q) + F(1, q.partial_product(len(prefix)))

    def test_periodic_tail_value_constant_base(self):
        d = DigitString(QSequence.constant(2), (), periodic_tail((0, 1)))
        assert eval_prefix(d) == F(1, 3)
        d2 = DigitString(QSequence.constant(10), (), periodic_tail((3,)))
        assert eval_prefix(d2) == F(1, 3)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(bases(), pre_periodic_bases()), st.data())
    def test_periodic_tail_value_mixed_base(self, q, data):
        # pattern (1, 2) over base cycling (2, 3), and drawn patterns whose
        # length need not divide the base cycle, after a prefix that may
        # end before or after the base prefix: value checked against a
        # long partial sum plus a tail bracket
        p = QSequence.periodic([2, 3])
        d = DigitString(p, (), periodic_tail((1, 2)))
        v = eval_prefix(d)
        digits = [d.digit(k) for k in range(1, 41)]
        lo = direct_sum(digits, p)
        hi = lo + F(1, p.partial_product(40))
        assert lo < v <= hi
        prefix = [data.draw(st.integers(0, q.at(k) - 1)) for k in range(
            1, data.draw(st.integers(0, len(q.prefix) + 3)) + 1)]
        pattern = data.draw(st.lists(
            st.integers(0, min(q.prefix + q.cycle) - 1), min_size=1, max_size=5))
        d = DigitString(q, prefix, periodic_tail(pattern))
        v = eval_prefix(d)
        digits = [d.digit(k) for k in range(1, 61)]
        lo = direct_sum(digits, q)
        hi = lo + F(1, q.partial_product(60))
        assert lo <= v <= hi  # equal for an all-zero pattern

    def test_json_round_trip(self):
        q = QSequence.constant(2)
        for d in (DigitString(q, (1, 0)),
                  DigitString(q, (0, 1), Tail.from_json("max")),
                  DigitString(q, (1,), periodic_tail((0, 1))),
                  DigitString(q, (1, 1), truncated_tail(2))):
            assert DigitString.from_json(d.to_json(), q) == d


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class TestClassify:
    def test_two_representations_of_terminating(self):
        r = classify_rationality(F(3, 4), QSequence.constant(2))
        assert r.kind == "q-rational"
        assert r.zero_form.prefix == (1, 1) and r.zero_form.tail.kind == "zero"
        assert r.max_form.prefix == (1, 0) and r.max_form.tail.kind == "max"
        assert eval_prefix(r.zero_form) == eval_prefix(r.max_form) == F(3, 4)

    def test_endpoints_have_one_form(self):
        r0 = classify_rationality(F(0), QSequence.constant(3))
        assert r0.kind == "q-rational" and r0.max_form is None
        r1 = classify_rationality(F(1), QSequence.constant(3))
        assert r1.kind == "q-rational" and r1.zero_form is None
        assert eval_prefix(r1.max_form) == 1

    def test_non_terminating_gets_certificate(self):
        r = classify_rationality(F(1, 3), QSequence.constant(2))
        assert r.kind == "q-irrational"
        assert r.certificate.tail == periodic_tail((0, 1))
        assert eval_prefix(r.certificate) == F(1, 3)

    def test_depends_on_base(self):
        assert classify_rationality(F(1, 3), QSequence.constant(3)).kind == "q-rational"
        assert classify_rationality(F(1, 3), QSequence.constant(2)).kind == "q-irrational"

    def test_small_probe_can_be_undecided(self):
        r = classify_rationality(F(100, 301), QSequence.constant(2), probe_depth=2)
        assert r.kind == "undecided"

    @settings(max_examples=120, deadline=None)
    @given(unit_rationals(max_den=200), bases())
    def test_default_probe_always_decides(self, x, q):
        r = classify_rationality(x, q)
        assert r.kind in ("q-rational", "q-irrational")
        if r.kind == "q-rational" and 0 < x < 1:
            assert eval_prefix(r.zero_form) == eval_prefix(r.max_form) == x
            assert r.zero_form.prefix != r.max_form.prefix or True
        if r.kind == "q-irrational":
            assert eval_prefix(r.certificate) == x

    @settings(max_examples=200, deadline=None)
    @given(unit_rationals(), st.one_of(bases(), pre_periodic_bases()), st.integers(1, 40))
    def test_expand_and_classify_read_the_exact_string(self, x, q, depth):
        # `expand` truncates only where the exact string goes on past depth
        exact = expand_exact(x, q)
        d = expand(x, q, depth)
        if d.tail.kind == "truncated":
            assert d.prefix == exact.materialize(depth + 1).prefix[:depth]
        else:
            assert d == exact.materialize(depth)
        r = classify_rationality(x, q)
        assert (r.zero_form or r.certificate or r.max_form) == exact
        if r.max_form is not None:
            assert eval_prefix(r.max_form) == x


# ---------------------------------------------------------------------------
# Remainder-state scan
# ---------------------------------------------------------------------------

def reference_scan(x: F, q: QSequence, limit: int):
    # keeps every (remainder, base phase) state in a dict and stops at the
    # first one seen twice
    pre, c = len(q.prefix), len(q.cycle)
    digits, r, seen = [], x, {}
    for k in range(limit):
        if r == 0:
            return digits, k, None
        if k >= pre:
            state = (r, (k - pre) % c)
            if state in seen:
                return digits, None, (seen[state], k - seen[state])
            seen[state] = k
        scaled = r * q.at(k + 1)
        digits.append(scaled.numerator // scaled.denominator)
        r = scaled - digits[-1]
    return digits, (limit if r == 0 else None), None


def reference_resolve(x: F, q: QSequence, limit: int):
    # the digits of `reference_scan` and the exact string its terminating
    # index or (entry, period) pair decides; x = 1 is the max string
    if x == 1:
        return [], DigitString(q, (), MAX_TAIL)
    digits, term, cyc = reference_scan(x, q, limit)
    if term is not None:
        return digits, DigitString(q, tuple(digits), ZERO_TAIL)
    if cyc is None:
        return digits, None
    j0, L = cyc
    return digits, DigitString(q, tuple(digits[:j0]), periodic_tail(digits[j0:j0 + L]))


class TestScan:
    @settings(max_examples=300, deadline=None)
    @given(unit_rationals(max_den=3000), pre_periodic_bases(), st.data())
    def test_matches_state_dict_reference(self, x, q, data):
        bound = _decision_bound(x, q)
        limit = data.draw(st.sampled_from([bound, 0, 1, 7, 40, 300]))
        assert _resolve(x, q, limit) == reference_resolve(x, q, limit)

    def test_entry_and_period_worked(self):
        # 1/28 over 3, 2, 3, 2, ...: the remainders 1, 3, 6, 18 (over 28) are
        # not multiples of 4, the part of 28 built from the primes of the
        # cycle product 6; 8 is the first that is, and it returns 4 steps later
        q = QSequence((3,), (2, 3))
        assert _resolve(F(1, 28), q, 100) == (
            [0, 0, 0, 1, 0, 1, 2, 0], DigitString(q, (0, 0, 0, 1), periodic_tail((0, 1, 2, 0))))
        # 1/7 over 2, 2, 4, ...: remainder 1/7 comes back after 5 steps at
        # another base phase, and at the same phase only after 9
        q = QSequence.periodic((2, 2, 4))
        digits = [0, 0, 2, 0, 1, 0, 1, 0, 1]
        assert _resolve(F(1, 7), q, 100) == (digits, DigitString(q, (), periodic_tail(digits)))

    def test_memory_per_digit(self):
        # 2 has order 20028 modulo the prime 20029; a dict of the states
        # costs about 150 bytes per digit, the digit list and the string's
        # tuples about 26
        tracemalloc.start()
        try:
            d = expand_exact(F(1, 20029), QSequence.constant(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(d.tail.period) == 20028
        assert peak <= 40 * 20028


# ---------------------------------------------------------------------------
# Cylinders
# ---------------------------------------------------------------------------

class TestCylinder:
    def test_worked_example(self):
        c = cylinder_info((1, 0), QSequence.constant(2))
        assert (c.inf, c.sup, c.measure) == (F(1, 2), F(3, 4), F(1, 4))
        assert c.rank == 2

    def test_measure_is_width(self):
        q = QSequence.explicit([2, 3, 4])
        c = cylinder_info((1, 2, 0), q)
        assert c.sup - c.inf == c.measure == F(1, 24)

    def test_nesting(self):
        q = QSequence.periodic([3, 2])
        outer = cylinder_info((2,), q)
        inner = cylinder_info((2, 1), q)
        assert outer.inf <= inner.inf and inner.sup <= outer.sup
        assert inner.measure * q.at(2) == outer.measure

    def test_membership_matches_prefix(self):
        q = QSequence.constant(2)
        c = cylinder_info((1, 0), q)
        assert c.contains(F(5, 8))
        assert not c.contains(F(1, 4))
        # endpoints belong to the closed cylinder
        assert c.contains(F(1, 2)) and c.contains(F(3, 4))

    @settings(max_examples=100, deadline=None)
    @given(unit_rationals(), bases(), st.integers(1, 8))
    def test_expansion_prefix_lands_in_cylinder(self, x, q, depth):
        d = expand(x, q, depth)
        c = cylinder_info(d.prefix, q)
        assert c.contains(x)
        assert c.measure == F(1, q.partial_product(depth))


def test_rational_formatting():
    assert format_rational(F(1, 3)) == "1/3"
    assert format_rational(F(0)) == "0/1"
    assert parse_rational("5/6") == F(5, 6)
    assert parse_rational("0.25") == F(1, 4)
    with pytest.raises(DomainError):
        parse_rational("x/y")


@pytest.mark.parametrize("text, value", [
    # spaces around "/" and underscores between digits are read on every
    # interpreter, as `Fraction` reads them from Python 3.12 on
    ("1 / 7", F(1, 7)), ("\t1_000/ 3 ", F(1000, 3)), ("+.5E1_0", F(5 * 10**9)),
    (" -2.5e-3 ", F(-1, 400)), ("3.", F(3)), ("0_7", F(7)), ("00/1", F(0)),
])
def test_parse_reads_one_grammar(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1/0", "1/0_0", "1._5", "1__0", "_1", "1/2.5", "0x10",
                                  "1 e5", "inf", "", "/2", "1/-2", "1/+2"])
def test_parse_refuses_text_outside_the_grammar(text):
    with pytest.raises(DomainError, match="not a rational number"):
        parse_rational(text)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="Fraction reads underscores from Python 3.11")
@settings(max_examples=300, deadline=None)
@given(st.text("0159_./eE+- ", max_size=9))
def test_parse_agrees_with_fraction(text):
    # `Fraction` reads spaces around "/" from Python 3.12 on: they are
    # taken out for it, as "/" is in no other place of the grammar
    try:
        want = F(re.sub(r"\s*/\s*", "/", text))
    except (ValueError, ZeroDivisionError):
        want = None
    try:
        assert parse_rational(text) == want
    except DomainError as exc:
        assert want is None or "limit of" in str(exc)


needs_str_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                     reason="this interpreter has no int <-> str limit")


@contextmanager
def str_limit(digits):
    """The interpreter's int <-> str limit set to `digits` (0: none) for
    a block, and restored after it; 4300 is the default a library user
    has."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def parse_outcome(text):
    """`parse_rational(text)`, or the message it refuses the text with."""
    try:
        return parse_rational(text)
    except DomainError as exc:
        return str(exc)


def digit_runs():
    """Decimal digits, often more than 4300 of them: a short pattern
    repeated to a drawn length."""
    return st.builds(lambda pattern, n: (pattern * n)[:n],
                     st.text("0123456789", min_size=1, max_size=8), st.integers(1, 6000))


@needs_str_limit
class TestPastTheStrLimit:
    def test_format_and_parse_long_rationals(self):
        x = F(-(7**6000), 3**9000 + 2)
        with str_limit(0):
            want = format_rational(x)
        with str_limit(4300):
            with pytest.raises(ValueError):
                str(x.numerator)  # the limit is in force
            assert format_rational(x) == want
            assert parse_rational(want) == x
            assert parse_rational("1/" + "7" * 5000) == F(1, 7 * (10**5000 - 1) // 9)
            assert parse_rational("1 / " + "7" * 5000) == F(1, 7 * (10**5000 - 1) // 9)
            assert parse_rational("-" + "1_0" * 3000) == -10 * (100**3000 - 1) // 99

    @settings(max_examples=40, deadline=None)
    @example(num="1" * 5000, digits="2" * 5000, rest=".{}e-7", sign="-")
    @example(num="0" * 4000 + "3", digits="7" * 5000, rest="/{}", sign="")
    @given(num=digit_runs(), digits=digit_runs(),
           rest=st.sampled_from(["", "/{}", ".{}", ".{}e-7", "e{}", "/0{}", "/{}e3", " / {}"]),
           sign=st.sampled_from(["", "-", " +"]))
    def test_parse_gives_what_it_gives_with_the_limit_lifted(self, num, rest, digits, sign):
        # an exponent keeps at most 4 digits, so it may pass the cap or not
        text = sign + num + rest.format(digits if "e" not in rest else digits[:4])
        with str_limit(0):
            want = parse_outcome(text)
        with str_limit(4300):
            assert parse_outcome(text) == want


class TestParseExponentCap:
    def test_accepts_exponents_up_to_the_limit(self):
        assert MAX_EXPONENT == 10**4
        assert parse_rational("1e-10000") == F(1, 10**10000)
        assert parse_rational(" +2.5E10 ") == F(25 * 10**9)
        assert parse_rational("-1e-0010000") == F(-1, 10**10000)
        assert parse_rational("3.e2") == F(300)

    def test_accepts_underscored_exponents(self):
        assert parse_rational(" +2.5E1_0 ") == F(25 * 10**9)

    @pytest.mark.parametrize("text", [
        "1e-30000000", "1E10001", " -1.5e+10_001\t", "1e-0010001", ".5e99999",
    ])
    def test_refuses_larger_exponents_before_expanding(self, monkeypatch, text):
        # Fraction is never reached: it would build 10**|exponent| first
        monkeypatch.setattr(numeral, "Fraction", None)
        with pytest.raises(DomainError, match="limit of 10000"):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["1/2e5", "1e", "1e_5", "e5", "1e5x"])
    def test_other_malformed_text_is_still_refused(self, text):
        with pytest.raises(DomainError, match="not a rational number"):
            parse_rational(text)


# ---------------------------------------------------------------------------
# Refusals
# ---------------------------------------------------------------------------

Q2 = QSequence.constant(2)


def under_scan_cap(call):
    """`call` run with every expansion scan capped at 1000 digits."""
    def capped():
        with mock.patch.object(numeral, "MAX_PROBE", 1000):
            return call()
    return capped


# name -> (call, error type, exact message): one case per refusal branch
# that no other test runs
REFUSALS = {
    "explicit-empty": (lambda: QSequence.explicit([]), DomainError,
                       "explicit base sequence needs at least one value"),
    "base-index": (lambda: Q2.at(0), DomainError, "base index must be >= 1, got 0"),
    "shift-count": (lambda: Q2.shift(-1), DomainError, "shift count must be >= 0"),
    "removal-index": (lambda: Q2.remove_at(0), DomainError,
                      "removal index must be >= 1, got 0"),
    "constant-values": (lambda: QSequence.from_json({"kind": "constant", "values": [2, 3]}),
                        DomainError, "constant base takes exactly one value"),
    "base-kind": (lambda: QSequence.from_json({"kind": "spiral"}), DomainError,
                  "unknown base kind 'spiral'"),
    "tail-form": (lambda: Tail.from_json("one"), DomainError, "unknown tail form 'one'"),
    "periodic-empty": (lambda: periodic_tail([]), DomainError,
                       "periodic tail needs a nonempty pattern"),
    "truncated-negative": (lambda: truncated_tail(-1), DomainError,
                           "truncation depth must be >= 0"),
    "digit-index": (lambda: DigitString(Q2, (1,)).digit(0), DomainError,
                    "digit index must be >= 1"),
    "materialize-truncated": (lambda: DigitString(Q2, (1,), truncated_tail(1)).digits_to(3),
                              InsufficientDepthError,
                              "cannot materialize to depth 3: truncated at 1"),
    "expand-depth": (lambda: expand(F(1, 3), Q2, 0), DomainError,
                     "depth must be >= 1, got 0"),
    "expand-probe-negative": (lambda: expand(F(1, 3), Q2, 3, probe_limit=-1), DomainError,
                              "probe must be >= 0, got -1"),
    "classify-probe-negative": (lambda: classify_rationality(F(1, 3), Q2, probe_depth=-1),
                                DomainError, "probe must be >= 0, got -1"),
    # JSON numbers where an integer is expected are refused, not truncated
    "base-json-fraction": (lambda: QSequence.from_json({"kind": "constant", "values": [2.5]}),
                           DomainError, "expected an integer, got 2.5"),
    "base-json-bare-fraction": (lambda: QSequence.from_json(2.5), DomainError,
                                "expected an integer, got 2.5"),
    "tail-json-fraction": (lambda: Tail.from_json({"periodic": [1.5]}), DomainError,
                           "expected an integer, got 1.5"),
    "digits-json-fraction": (lambda: DigitString.from_json({"prefix": [1.5, 0.9]}, Q2),
                             DomainError, "expected an integer, got 1.5"),
    # a JSON string or a boolean is refused, not read digit by digit or as 0 or 1
    "base-json-string": (lambda: QSequence.from_json({"kind": "periodic", "values": "23"}),
                         DomainError, "expected a JSON array, got '23'"),
    "base-json-bool": (lambda: QSequence.from_json({"kind": "constant", "values": [True]}),
                       DomainError, "expected an integer, got True"),
    "tail-json-string": (lambda: Tail.from_json({"periodic": "10"}), DomainError,
                         "expected a JSON array, got '10'"),
    "digits-json-string": (lambda: DigitString.from_json({"prefix": "101"}, Q2), DomainError,
                           "expected a JSON array, got '101'"),
    # a tail continues the digits past the depth, not inside the prefix
    "tail-inside-prefix": (lambda: DigitString(Q2, (1, 0, 1), periodic_tail((1, 0))).tail_past(2),
                           DomainError, "position 2 lies inside the prefix of depth 3"),
    # the library constructors refuse a fractional base value, not truncate it
    "constant-fraction": (lambda: QSequence.constant(2.5), DomainError,
                          "expected an integer, got 2.5"),
    "periodic-fraction": (lambda: QSequence.periodic([2.5, 3]), DomainError,
                          "expected an integer, got 2.5"),
    "explicit-bool": (lambda: QSequence.explicit([3, True]), DomainError,
                      "expected an integer, got True"),
    # so do the library's depth and probe counts
    "expand-depth-fraction": (lambda: expand(F(1, 3), Q2, 5.5), DomainError,
                              "expected an integer, got 5.5"),
    "expand-depth-bool": (lambda: expand(F(1, 3), Q2, True), DomainError,
                          "expected an integer, got True"),
    "expand-probe-fraction": (lambda: expand(F(1, 3), Q2, 4, probe_limit=3.5), DomainError,
                              "expected an integer, got 3.5"),
    "classify-probe-fraction": (lambda: classify_rationality(F(1, 3), Q2, 3.5), DomainError,
                                "expected an integer, got 3.5"),
    "expand-depth-ratio": (lambda: expand(F(1, 3), Q2, F(5, 2)), DomainError,
                           "expected an integer, got Fraction(5, 2)"),
    # so do the digit-string constructors, for a digit of the prefix or the pattern
    "digits-fraction": (lambda: DigitString(Q2, (1.5, True)), DomainError,
                        "expected an integer, got 1.5"),
    "digits-bool": (lambda: DigitString(Q2, (1, True)), DomainError,
                    "expected an integer, got True"),
    "pattern-fraction": (lambda: periodic_tail([1.9, False]), DomainError,
                         "expected an integer, got 1.9"),
    "pattern-bool": (lambda: periodic_tail([1, False]), DomainError,
                     "expected an integer, got False"),
    # a string or bytes is refused, not read one character at a time
    "digits-string": (lambda: DigitString(QSequence.constant(16), "12"), DomainError,
                      "expected an iterable of integers, got '12'"),
    "pattern-bytes": (lambda: periodic_tail(b"10"), DomainError,
                      "expected an iterable of integers, got b'10'"),
    "explicit-string": (lambda: QSequence.explicit("23"), DomainError,
                        "expected an iterable of integers, got '23'"),
    "periodic-bytes": (lambda: QSequence.periodic(b"23"), DomainError,
                       "expected an iterable of integers, got b'23'"),
    # a value int() does not take is refused, not left to end in a TypeError
    "expand-depth-none": (lambda: expand(F(1, 3), Q2, None), DomainError,
                          "expected an integer, got None"),
    # an exact expansion reads at most `MAX_PROBE` digits: the binary
    # period of 1/1000003 is 1000002
    "expand-exact-past-cap": (under_scan_cap(lambda: expand_exact(F(1, 1000003), Q2)),
                              DomainError, "the expansion of 1/1000003 does not close "
                                           "within the limit of 1000 digits"),
}


def test_integral_counts_are_read_and_a_none_probe_is_the_default():
    assert expand(F(1, 3), Q2, 4.0, probe_limit=F(6, 2)) == expand(F(1, 3), Q2, 4, probe_limit=3)
    assert expand(F(1, 3), Q2, 4, probe_limit=None) == expand(F(1, 3), Q2, 4)
    assert classify_rationality(F(1, 3), Q2, None) == classify_rationality(F(1, 3), Q2)


def test_integral_digits_are_read_as_ints():
    q4 = QSequence.constant(4)
    for v in (3, 3.0, F(6, 2), np.int64(3)):
        prefix = DigitString(q4, (0, v)).prefix
        pattern = periodic_tail((v, 0)).period
        assert (prefix, pattern) == ((0, 3), (3, 0))
        assert {type(d) for d in prefix + pattern} == {int}


def test_integral_json_numbers_are_read():
    # 3, 3.0 and "3" all name the integer 3; a bare base is a number
    assert QSequence.from_json(3.0) == QSequence.from_json(3) == QSequence.constant(3)
    for v in (3, 3.0, "3"):
        assert QSequence.from_json({"kind": "constant", "values": [v]}) == QSequence.constant(3)
        assert QSequence.from_json([2, v]) == QSequence.explicit([2, 3])
        assert Tail.from_json({"truncated": v}) == truncated_tail(3)
        assert Tail.from_json({"periodic": [v, 0]}) == periodic_tail((3, 0))
        assert DigitString.from_json({"prefix": [0, v]}, QSequence.constant(4)).prefix == (0, 3)


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_input_names_its_fault(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
