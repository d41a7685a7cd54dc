"""Digit-weight series systems: evaluation, residuals, integrals, sampling."""

import itertools
import sys
from fractions import Fraction as F
from math import sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cantorshift.numeral as numeral
import cantorshift.salem as salem_module
from cantorshift import (
    MAX_TAIL,
    ZERO_TAIL,
    DigitString,
    DomainError,
    InsufficientDepthError,
    InvalidSystemError,
    QSequence,
    Reorder,
    SalemSystem,
    ensure_valid,
    evaluate,
    emit_table,
    expand,
    expand_exact,
    integral,
    mc_mean,
    periodic_tail,
    residual,
    truncated_tail,
    validate_system,
)

TOL = F(1, 10**12)


def fixed(ps, **kw):
    return SalemSystem.fixed([F(p) for p in ps], **kw)


def mc_mean_at_chunk(system, samples, seed, chunk=None):
    """`mc_mean` with at most `chunk` rows drawn per chunk (None: the
    module's own `_MC_CHUNK`)."""
    if chunk is None:
        return mc_mean(system, samples, seed)
    with mock.patch.object(salem_module, "_MC_CHUNK", chunk):
        return mc_mean(system, samples, seed)


@st.composite
def dyadics(draw, depth=10):
    return F(draw(st.integers(0, 2**depth)), 2**depth)


def _system_pool():
    # seeded rejection sampling for valid signed weight tuples
    import random

    rng = random.Random(20260823)
    pool = []
    while len(pool) < 24:
        q = rng.choice([2, 3, 4])
        ps = [F(rng.randint(-6, 12), 16) for _ in range(q - 1)]
        ps.append(1 - sum(ps))
        acc = F(0)
        ok = all(abs(p) < 1 for p in ps)
        for p in ps[:-1]:
            acc += p
            ok = ok and 0 < acc < 1
        if ok and any(p < 0 for p in ps):
            pool.append(SalemSystem.fixed(ps))
    return pool


SIGNED_SYSTEMS = _system_pool()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class TestEvaluate:
    def test_worked_base2(self):
        s = fixed(["1/3", "2/3"])
        assert evaluate(F(1, 2), 2, s).value == F(1, 3)
        assert evaluate(F(1, 4), 2, s).value == F(1, 9)
        assert evaluate(F(3, 4), 2, s).value == F(5, 9)

    def test_endpoints_exact(self):
        for ps in (["1/3", "2/3"], ["7/10", "-1/5", "1/2"]):
            s = fixed(ps)
            for r in (evaluate(F(0), s.q, s), evaluate(F(1), s.q, s)):
                assert r.error_bound == 0
            assert evaluate(F(0), s.q, s).value == 0
            assert evaluate(F(1), s.q, s).value == 1

    def test_uniform_weights_give_identity(self):
        for q in (2, 3, 5):
            s = fixed([F(1, q)] * q)
            for num in range(0, q**3 + 1):
                x = F(num, q**3)
                r = evaluate(x, q, s)
                assert r.value == x and r.error_bound == 0

    def test_zero_and_max_tails_agree(self):
        # same point, both exact digit representations
        s = fixed(["1/3", "2/3"])
        q = QSequence.constant(2)
        zero_form = expand(F(1, 2), q, 8)
        max_form = DigitString(q, (0,), __import__("cantorshift").MAX_TAIL)
        a = evaluate(zero_form, 2, s)
        b = evaluate(max_form, 2, s)
        assert a.value == b.value == F(1, 3)
        assert a.error_bound == b.error_bound == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**10 - 1))
    def test_exact_on_terminating_points(self, num):
        x = F(num, 2**10)  # x < 1 so the greedy expansion has a zero tail
        s = fixed(["1/3", "2/3"])
        r = evaluate(x, 2, s)
        assert r.error_bound == 0
        # independent oracle: direct finite sum over the digits
        d = expand(x, QSequence.constant(2), 12)
        acc, prod = F(0), F(1)
        for e in d.prefix:
            acc += prod * (F(1, 3) if e == 1 else F(0))
            prod *= F(1, 3) if e == 0 else F(2, 3)
        assert r.value == acc

    def test_periodic_point_bounded_error(self):
        s = fixed(["1/3", "2/3"])
        r = evaluate(F(1, 3), 2, s, tol=TOL)
        assert r.error_bound <= TOL
        assert abs(r.value - F(1, 7)) <= TOL

    def test_monotone_for_positive_weights(self):
        s = fixed(["1/4", "3/4"])
        grid = [F(k, 32) for k in range(33)]
        vals = [evaluate(x, 2, s).value for x in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SIGNED_SYSTEMS), st.integers(0, 81))
    def test_error_bound_respected(self, s, num):
        x = F(num, 81)
        r = evaluate(x, s.q, s, tol=TOL)
        assert r.error_bound <= TOL

    def test_refuses_wrong_alphabet(self):
        s = fixed(["1/3", "2/3"])
        with pytest.raises(DomainError):
            evaluate(F(1, 2), 3, s)

    def test_refuses_truncated_without_depth(self):
        s = fixed(["1/3", "2/3"])
        d = DigitString(QSequence.constant(2), (1, 0), truncated_tail(2))
        with pytest.raises(InsufficientDepthError):
            evaluate(d, 2, s, tol=TOL)

    def test_invalid_system_raises_on_use(self):
        s = fixed(["2/3", "2/3", "-1/3"])  # partial sums leave (0,1)? 2/3, 4/3
        with pytest.raises(InvalidSystemError):
            evaluate(F(1, 2), 3, s)


# ---------------------------------------------------------------------------
# Exact closure of zero, max and periodic tails
# ---------------------------------------------------------------------------

SWAP = Reorder("rule", name="swap-pairs")


def oracle_sum(prefix, pattern, weights, swap, steps):
    """(sum, product) of the first `steps` series terms in plain Fractions:
    digit n is prefix[n-1], then `pattern` repeats; swap-pairs reads
    positions 2, 1, 4, 3, ..."""
    betas = [sum(weights[:i], F(0)) for i in range(len(weights))]
    total, prod = F(0), F(1)
    for k in range(1, steps + 1):
        n = (k + 1 if k % 2 else k - 1) if swap else k
        e = (prefix[n - 1] if n <= len(prefix)
             else pattern[(n - len(prefix) - 1) % len(pattern)])
        total += betas[e] * prod
        prod *= weights[e]
    return total, prod


def oracle_value(prefix, pattern, weights, swap):
    # past an even step k0 >= len(prefix) the digits read repeat every
    # 2 * len(pattern) steps, under either order
    k0 = len(prefix) + len(prefix) % 2
    head, p_head = oracle_sum(prefix, pattern, weights, swap, k0)
    both, p_both = oracle_sum(prefix, pattern, weights, swap, k0 + 2 * len(pattern))
    p_block = p_both / p_head if p_head else F(0)
    block = (both - head) / p_head if p_head else F(0)
    return head + p_head * block / (1 - p_block)


CLOSED_SYSTEMS = [
    fixed(["1/3", "2/3"]),
    fixed(["1/3", "2/3"], reorder=SWAP),
    fixed(["9/10", "1/10"]),
    fixed(["3/5", "-1/5", "3/5"]),
    fixed(["3/5", "-1/5", "3/5"], reorder=SWAP),
    fixed(["1/2", "0", "1/2"], reorder=SWAP),
]


@st.composite
def closed_points(draw):
    """A system and a digit string over its base with a zero, max or
    periodic tail (pattern given directly, repeats and rotations included)."""
    s = draw(st.sampled_from(CLOSED_SYSTEMS))
    digit = st.integers(0, s.q - 1)
    prefix = tuple(draw(st.lists(digit, max_size=7)))
    kind = draw(st.sampled_from(["zero", "max", "periodic"]))
    if kind == "zero":
        tail, pattern = ZERO_TAIL, (0,)
    elif kind == "max":
        tail, pattern = MAX_TAIL, (s.q - 1,)
    else:
        pattern = tuple(draw(st.lists(digit, min_size=1, max_size=5)))
        tail = periodic_tail(pattern)
    return s, DigitString(QSequence.constant(s.q), prefix, tail), pattern


class TestClosure:
    @settings(max_examples=200, deadline=None)
    @given(closed_points())
    def test_digit_strings_match_fraction_oracle(self, point):
        s, d, pattern = point
        weights = list(s.weights)
        swap = s.reorder.kind == "rule"
        want = oracle_value(d.prefix, pattern, weights, swap)
        # the oracle against a plain partial sum and its tail bound
        partial, _ = oracle_sum(d.prefix, pattern, weights, swap, 150)
        m = s.global_max
        assert abs(want - partial) <= m ** 150 / (1 - m)
        r = evaluate(d, s.q, s)
        assert r.value == want and r.error_bound == 0

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(CLOSED_SYSTEMS), st.integers(1, 60), st.data())
    def test_rationals_match_fraction_oracle(self, s, den, data):
        x = F(data.draw(st.integers(0, den)), den)
        d = expand_exact(x, QSequence.constant(s.q))
        pattern = {"zero": (0,), "max": (s.q - 1,)}.get(d.tail.kind, d.tail.period)
        r = evaluate(x, s.q, s)
        assert r.error_bound == 0
        assert r.value == oracle_value(d.prefix, pattern, list(s.weights),
                                       s.reorder.kind == "rule")

    @pytest.mark.parametrize("base", [QSequence.explicit([2, 2, 2, 2]),
                                      QSequence.periodic([2, 2, 2])])
    @pytest.mark.parametrize("tail", [periodic_tail((1, 0, 0)), MAX_TAIL])
    def test_equal_base_stored_longer_closes_alike(self, base, tail):
        # the closure's block is read from the string's base, so one equal
        # to the constant base but stored with a prefix or a longer cycle
        # gives the same value, bound and term count
        s = fixed(["1/3", "2/3"], reorder=SWAP)
        want = evaluate(DigitString(QSequence.constant(2), (1,), tail), 2, s)
        assert evaluate(DigitString(base, (1,), tail), 2, s) == want

    def test_skewed_weights_close_in_one_period(self):
        r = evaluate(F(1, 3), 2, fixed(["999/1000", "1/1000"]))
        assert r.value == F(998001, 999001) and r.error_bound == 0
        # the tolerance loop needed 219 terms here
        assert evaluate(F(1, 3), 2, fixed(["9/10", "1/10"])).terms == 2

    def test_terms_count_head_and_one_period(self):
        s = fixed(["1/3", "2/3"])
        assert evaluate(F(1, 2), 2, s).terms == 1       # zero tail: head only
        assert evaluate(F(1, 7), 2, s).terms == 3       # period (0, 0, 1)
        q2 = QSequence.constant(2)
        swapped = fixed(["1/3", "2/3"], reorder=SWAP)
        assert evaluate(DigitString(q2, (1,), MAX_TAIL), 2, swapped).terms == 2
        assert evaluate(F(1, 7), 2, swapped).terms == 6  # lcm(3, 2)

    def test_truncated_strings_keep_the_tolerance_loop(self):
        s = fixed(["1/3", "2/3"])
        d = DigitString(QSequence.constant(2), (0, 1) * 32, truncated_tail(64))
        r = evaluate(d, 2, s, tol=F(1, 10**6))
        assert 0 < r.error_bound <= F(1, 10**6)
        assert abs(r.value - F(1, 7)) <= r.error_bound


# ---------------------------------------------------------------------------
# Tolerance path and finite sums against plain Fraction loops
# ---------------------------------------------------------------------------

def eval_stage_fraction_reference(d, system, tol, stage):
    """The tolerance path of `_eval_stage` before it summed through
    `_series`: one Fraction term per step.  A test oracle."""
    limit = system.stage_limit()
    m = system.global_max
    target = tol * (1 - m)
    total = F(0)
    prod = F(1)
    r = F(1)
    k = stage
    while True:
        if limit is not None and k >= limit:
            return salem_module.EvalResult(total, F(0), k - stage)
        if r < target:
            return salem_module.EvalResult(total, r / (1 - m), k - stage)
        k += 1
        n = system.reorder.position(k)
        dig = d.digit(n)
        total += system.beta_row(n)[dig] * prod
        prod *= system.p_row(n)[dig]
        r *= max(abs(p) for p in system.p_row(n))


def integral_fraction_reference(system):
    """The finite sum of `integral` before it summed through `_series`."""
    q = system.q
    total = F(0)
    scale = F(1)
    for k in range(1, system.stage_limit() + 1):
        n = k if system.columns is not None else system.reorder.position(k)
        betas = system.beta_row(n)
        total += sum(betas[1:], F(0)) / q * scale
        scale /= q
    return total


@st.composite
def signed_q3(draw):
    """A q=3 tuple with one negative weight, over mixed denominators."""
    den = draw(st.sampled_from([5, 12, 100]))
    b1 = F(draw(st.integers(1, den - 1)), den)
    b2 = F(draw(st.integers(1, den - 1)), den)
    assume(b2 < b1)
    return [b1, b2 - b1, 1 - b2]


@st.composite
def tolerance_systems(draw):
    """A system the tolerance path sums, and whether it is finite."""
    kind = draw(st.sampled_from(["fixed", "swap-pairs", "signed", "list", "matrix",
                                 "two-part"]))
    if kind == "matrix":
        q = draw(st.integers(2, 4))
        return SalemSystem.matrix(draw(st.lists(weight_tuples(q), min_size=1,
                                                max_size=40))), True
    if kind == "two-part":
        return draw(two_part_systems(orders=("identity", "swap-pairs"))), False
    weights = (draw(signed_q3()) if kind == "signed"
               else draw(weight_tuples(draw(st.integers(2, 4)))))
    if kind == "list":  # any finite schedule, and often an injective one
        order = draw(st.lists(st.integers(1, 100), min_size=1, max_size=40)
                     | st.lists(st.integers(1, 100), min_size=1, max_size=40, unique=True))
        return SalemSystem.fixed(weights, reorder=Reorder("list", values=order)), True
    return SalemSystem.fixed(weights, reorder=SWAP if kind == "swap-pairs"
                             else Reorder()), False


@st.composite
def tolerance_points(draw):
    """A system, a digit string the tolerance path sums for it, a
    tolerance and a stage.  Half of the tolerances put the stopping
    test exactly at, or just beside, the bound after some step."""
    s, finite = draw(tolerance_systems())
    digit = st.integers(0, s.q - 1)
    depth = draw(st.integers(0, 80))
    prefix = tuple(draw(st.lists(digit, min_size=depth, max_size=depth)))
    # an unbounded fixed system closes every other tail exactly
    kind = draw(st.sampled_from(["truncated", "zero", "max", "periodic"]
                                if finite else ["truncated"]))
    tail = {"truncated": truncated_tail(depth), "zero": ZERO_TAIL,
            "max": MAX_TAIL}.get(kind) or periodic_tail(
                tuple(draw(st.lists(digit, min_size=1, max_size=5))))
    d = DigitString(QSequence.constant(s.q), prefix, tail)
    stage = draw(st.integers(0, 5))
    if draw(st.booleans()):
        return s, d, F(draw(st.integers(1, 9)), 10 ** draw(st.integers(1, 12))), stage
    # tol * (1 - m) at, or one part in 10**30 to either side of, the
    # remainder bound after j more steps: a bound equal to tol * (1 - m)
    # is not below it, so one more step is taken
    limit = s.stage_limit()
    r = F(1)
    for k in range(stage + 1, stage + draw(st.integers(0, 30)) + 1):
        if limit is not None and k > limit:
            break
        r *= max(abs(p) for p in s.p_row(s.reorder.position(k)))
    side = draw(st.sampled_from([-1, 0, 1]))
    return s, d, r / (1 - s.global_max) * (1 + F(side, 10**30)), stage


HALVES = SalemSystem.fixed([F(1, 2), F(1, 2)])
# one skewed column sets the largest |p|; the halves before it stop sooner
SKEW_LAST = SalemSystem.matrix([[F(1, 2), F(1, 2)]] * 20 + [[F(9, 10), F(1, 10)]])


class TestTolerancePath:
    @settings(max_examples=500, deadline=None)
    @given(tolerance_points())
    # tol 1/8: after 4 steps the remainder factor r = 1/16 equals
    # tol * (1 - 1/2), which is not below it, so a fifth step is summed
    @example((HALVES, DigitString(QSequence.constant(2), (1,) * 9, truncated_tail(9)),
              F(1, 8), 0))
    # r multiplies the largest |p| of each column read, 1/2, not the
    # system's 9/10: 7 steps, where 9/10 would run to the last, the 21st
    @example((SKEW_LAST, DigitString(QSequence.constant(2), (0, 1) * 12, truncated_tail(24)),
              F(1, 10), 0))
    def test_matches_fraction_loop(self, point):
        s, d, tol, stage = point
        ensure_valid(s)
        try:
            want = eval_stage_fraction_reference(d, s, tol, stage)
        except InsufficientDepthError as exc:
            with pytest.raises(InsufficientDepthError) as got:
                salem_module._eval_stage(d, s, tol, stage)
            assert got.value.required == exc.required
            assert str(got.value) == str(exc)
            return
        got = salem_module._eval_stage(d, s, tol, stage)
        assert (got.value, got.error_bound, got.terms) == (
            want.value, want.error_bound, want.terms)

    def test_truncated_string_stops_at_its_first_missing_digit(self):
        # the bound would take all 1000 columns at this tol, but digit 6
        # is unknown: its read raises, and no digit past it is asked for.
        # With a fixed tuple near
        # 1, such as (999/1000, 1/1000), those would be tens of thousands
        # of Fraction steps before the error
        s = SalemSystem.matrix([[F(1, 2), F(1, 2)]] * 1000)
        d = DigitString(QSequence.constant(2), (1, 0, 1, 0, 1), truncated_tail(5))
        read = []
        digit = DigitString.digit
        with mock.patch.object(DigitString, "digit",
                               lambda self, n: read.append(n) or digit(self, n)):
            with pytest.raises(InsufficientDepthError) as e:
                evaluate(d, 2, s, tol=F(1, 10**400))
        assert e.value.required == 6 and read == [1, 2, 3, 4, 5, 6]

    @settings(max_examples=150, deadline=None)
    @given(tolerance_systems())
    def test_finite_integral_matches_fraction_loop(self, case):
        s, finite = case
        assume(finite and len(set(s.reorder.values)) == len(s.reorder.values))
        assert integral(s) == integral_fraction_reference(s)


# ---------------------------------------------------------------------------
# Residuals of the defining relations
# ---------------------------------------------------------------------------

class TestResidual:
    def test_exact_zero_on_periodic_points(self):
        for s in (fixed(["7/10", "-1/5", "1/2"]), fixed(["1/4", "3/4"], reorder=SWAP)):
            for x in (F(1, 7), F(2, 11), F(5, 13), F(1, 1)):
                for k in (1, 2, 3, 4):
                    assert residual(x, s.q, s, k) == 0

    def test_late_equations_cost_one_period(self):
        # a stage past the prefix is reduced by whole periods first, so
        # k = 10**9 builds no list of 10**9 digits
        for s in (fixed(["1/3", "2/3"]), fixed(["1/4", "3/4"], reorder=SWAP)):
            for x in (F(1, 3), F(1, 7), F(1, 2)):
                assert residual(x, 2, s, 10**9) == 0

    def test_zero_on_terminating_points(self):
        s = fixed(["1/3", "2/3"])
        for num in range(0, 17):
            x = F(num, 16)
            for k in (1, 2, 3):
                assert residual(x, 2, s, k) == 0

    def test_bounded_on_periodic_points(self):
        s = fixed(["7/10", "-1/5", "1/2"])
        for x in (F(1, 7), F(2, 11), F(5, 13)):
            for k in (1, 2):
                assert abs(residual(x, 3, s, k, tol=TOL)) <= 2 * TOL

    def test_reordered_system_residual(self):
        s = fixed(["1/3", "2/3"], reorder=Reorder("rule", name="swap-pairs"))
        for num in range(0, 17):
            for k in (1, 2, 3):
                assert residual(F(num, 16), 2, s, k) == 0


# ---------------------------------------------------------------------------
# Reorders and finite systems
# ---------------------------------------------------------------------------

class TestReorders:
    def test_swap_pairs_worked_value(self):
        s = fixed(["1/3", "2/3"], reorder=Reorder("rule", name="swap-pairs"))
        # digits of 1/2 are (1, 0, 0, ...); reading order swaps adjacent pairs,
        # so the first term uses digit at position 2, the second position 1
        r = evaluate(F(1, 2), 2, s)
        assert r.value == F(1, 9) and r.error_bound == 0

    def test_list_reorder_is_finite_sum(self):
        s = fixed(["1/3", "2/3"], reorder=Reorder("list", values=(2, 1)))
        r = evaluate(F(1, 2), 2, s)
        # stage 1 reads position 2 (digit 0): term 0, carry p_0 = 1/3;
        # stage 2 reads position 1 (digit 1): term (1/3) * beta_1 = 1/9
        assert r.value == F(1, 9)
        assert r.error_bound == 0
        assert r.terms == 2

    def test_strict_schedule_rejects_gaps(self):
        # [3, 1] skips position 2: a finite schedule all the same
        s = fixed(["1/3", "2/3"], reorder=Reorder("list", values=(3, 1)))
        r = evaluate(F(1, 2), 2, s)
        assert r.error_bound == 0 and r.terms == 2  # finite stages, exact
        # digits of 1/2 are (1, 0, 0, ...): positions 3 then 1 give 0, then 1
        assert r.value == F(1, 3) * F(1, 3)

    def test_matrix_system_worked(self):
        cols = [[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]]
        s = SalemSystem.matrix(cols)
        r = evaluate(F(1, 4), 2, s)
        # digits (0, 1): term 1 = beta^{(1)}_0 = 0;
        # term 2 = p^{(1)}_0 * beta^{(2)}_1 = 1/3 * 1/2 = 1/6
        assert r.value == F(1, 6)
        assert r.error_bound == 0

    def test_matrix_requires_identity_reorder(self):
        s = SalemSystem(columns=((F(1, 2), F(1, 2)),),
                        reorder=Reorder("rule", name="swap-pairs"))
        with pytest.raises(InvalidSystemError) as e:
            ensure_valid(s)
        assert e.value.report.violation.condition == "reorder"

    def test_strict_list_must_be_injective(self):
        # a repeat validates; only the exact mean needs an injective list
        s = fixed(["1/2", "1/2"], reorder=Reorder("list", values=(1, 1)))
        assert validate_system(s).ok
        with pytest.raises(DomainError, match="injective"):
            integral(s)

    def test_any_list_is_a_finite_schedule(self):
        # on a default system: a list that skips a position validates and
        # sums, and one that repeats a position validates but has no
        # exact mean
        gap = fixed(["1/3", "2/3"], reorder=Reorder("list", values=(3, 1)))
        assert validate_system(gap) == validate_system(fixed(["1/3", "2/3"]))
        r = evaluate(F(1, 2), 2, gap)
        assert (r.value, r.terms, r.error_bound) == (F(1, 9), 2, 0)
        assert integral(gap) == F(1, 4)
        repeat = fixed(["1/3", "2/3"], reorder=Reorder("list", values=(1, 1)))
        assert validate_system(repeat).ok
        with pytest.raises(DomainError) as e:
            integral(repeat)
        assert str(e.value) == "exact mean needs an injective reorder; use the sampling estimate"


# ---------------------------------------------------------------------------
# Validation table
# ---------------------------------------------------------------------------

class TestValidation:
    def test_each_condition_fires(self):
        cases = [
            (SalemSystem.matrix([[F(1, 2), F(1, 2)], [F(1, 3), F(1, 3), F(1, 3)]]),
             "alphabet"),
            (fixed(["3/2", "-1/2"]), "coefficient-range"),
            (fixed(["1/3", "1/3"]), "column-sum"),
            (fixed(["-1/4", "3/4", "1/2"]), "partial-sum-range"),
        ]
        for system, cond in cases:
            rep = validate_system(system)
            assert not rep.ok
            assert rep.violation.condition == cond

    def test_valid_systems_pass(self):
        for ps in (["1/2", "1/2"], ["1/3", "2/3"], ["7/10", "-1/5", "1/2"]):
            assert validate_system(fixed(ps)).ok

    def test_invalid_system_error_carries_report(self):
        with pytest.raises(InvalidSystemError) as e:
            ensure_valid(fixed(["1/3", "1/3"]))
        assert e.value.report.violation.condition == "column-sum"

    @staticmethod
    def count_validations(monkeypatch):
        calls = []
        real = salem_module.validate_system
        monkeypatch.setattr(salem_module, "validate_system",
                            lambda system: calls.append(system) or real(system))
        return calls

    def test_verdict_is_computed_once_per_system(self, monkeypatch):
        calls = self.count_validations(monkeypatch)
        s = fixed(["1/3", "2/3"])
        assert evaluate(F(1, 2), 2, s).value == evaluate(F(1, 2), 2, s).value
        assert len(calls) == 1
        m = SalemSystem.matrix([[F(1, 2), F(1, 2)]] * 2000)
        assert mc_mean(m, 100, 1) == mc_mean(m, 100, 1)
        assert calls == [s, m]

    def test_invalid_system_raises_the_same_error_on_every_call(self, monkeypatch):
        calls = self.count_validations(monkeypatch)
        s = fixed(["1/3", "1/3"])
        errors = []
        for call in (lambda: evaluate(F(1, 2), 2, s), lambda: mc_mean(s, 100, 1),
                     lambda: integral(s), lambda: emit_table(s, 3),
                     lambda: ensure_valid(s), lambda: evaluate(F(1, 2), 2, s)):
            with pytest.raises(InvalidSystemError) as e:
                call()
            errors.append((str(e.value), e.value.report))
        assert calls == [s]
        want = ("invalid system: column-sum at column 1: sums to 2/3, not 1",
                validate_system(s))
        assert errors == [want] * 6


# ---------------------------------------------------------------------------
# Refusals
# ---------------------------------------------------------------------------

ONE_COLUMN = SalemSystem.matrix([[F(1, 3), F(2, 3)]])


def under_scan_cap(call):
    """`call` run with every expansion scan capped at 1000 digits."""
    def capped():
        with mock.patch.object(numeral, "MAX_PROBE", 1000):
            return call()
    return capped


# name -> (call, error type, exact message): one case per refusal branch
REFUSALS = {
    "reorder-kind": (lambda: Reorder("spiral"), DomainError,
                     "unknown reorder kind 'spiral'"),
    "reorder-rule": (lambda: Reorder("rule", name="spiral"), DomainError,
                     "unknown reorder rule 'spiral'"),
    "list-empty": (lambda: Reorder("list"), DomainError,
                   "list reorder needs at least one entry"),
    "list-position": (lambda: Reorder("list", values=(1, 0)), DomainError,
                      "list reorder positions must be >= 1, got 0"),
    "list-fraction": (lambda: Reorder("list", values=(1.5, 2)), DomainError,
                      "expected an integer, got 1.5"),
    "list-bool": (lambda: Reorder("list", values=(True, 2)), DomainError,
                  "expected an integer, got True"),
    # a string is refused, not read one character at a time
    "list-string": (lambda: Reorder("list", values="31"), DomainError,
                    "expected an iterable of integers, got '31'"),
    "step-index": (lambda: Reorder().position(0), DomainError,
                   "step index must be >= 1, got 0"),
    "step-past-list": (lambda: Reorder("list", values=(2, 1)).position(3), DomainError,
                       "reorder schedule has 2 steps; step 3 undefined"),
    "reorder-json-kind": (lambda: Reorder.from_json({"kind": "spiral"}), DomainError,
                          "unknown reorder kind 'spiral'"),
    "reorder-json-fraction": (lambda: Reorder.from_json({"kind": "list", "values": [1, 2.5]}),
                              DomainError, "expected an integer, got 2.5"),
    # a JSON string is refused, not read item by item
    "reorder-json-string": (lambda: Reorder.from_json({"kind": "list", "values": "21"}),
                            DomainError, "expected a JSON array, got '21'"),
    "system-json-string": (lambda: SalemSystem.from_json({"p": "12"}), DomainError,
                           "expected a JSON array, got '12'"),
    "columns-json-string": (lambda: SalemSystem.from_json({"columns": "12"}), DomainError,
                            "expected a JSON array, got '12'"),
    "column-json-string": (lambda: SalemSystem.from_json({"columns": [["1/2", "1/2"], "12"]}),
                           DomainError, "expected a JSON array, got '12'"),
    "weights-or-columns": (lambda: SalemSystem(), DomainError,
                           "a system takes a weight tuple, columns or both"),
    "column-past-end": (lambda: ONE_COLUMN.p_row(2), DomainError,
                        "system has 1 columns; position 2 undefined"),
    "system-json": (lambda: SalemSystem.from_json({"q": 2}), DomainError,
                    'system JSON needs "p" or "columns"'),
    "alphabet": (lambda: ensure_valid(fixed(["1"])), InvalidSystemError,
                 "invalid system: alphabet at column 1: needs >= 2 weights, got 1"),
    "tolerance": (lambda: evaluate(F(1, 2), 2, fixed(["1/3", "2/3"]), tol=0), DomainError,
                  "tolerance must be > 0, got 0"),
    "alphabet-size": (lambda: evaluate(F(1, 2), "2", fixed(["1/3", "2/3"])), DomainError,
                      "alphabet size must be an integer >= 2, got '2'"),
    "string-base": (lambda: evaluate(DigitString(QSequence.constant(3), (1,)), 2,
                                     fixed(["1/3", "2/3"])), DomainError,
                    "digit string base does not match q"),
    "equation-index": (lambda: residual(F(1, 2), 2, fixed(["1/3", "2/3"]), 0), DomainError,
                       "equation index must be >= 1, got 0"),
    "equation-past-columns": (lambda: residual(F(1, 3), 2, ONE_COLUMN, 2), DomainError,
                              "system has 1 columns; position 2 undefined"),
    "equation-past-list": (lambda: residual(F(1, 3), 2, fixed(["1/3", "2/3"],
                                            reorder=Reorder("list", values=(2, 1))), 3),
                           DomainError, "reorder schedule has 2 steps; step 3 undefined"),
    "exact-mean": (lambda: integral(fixed(["1/2", "1/2"], reorder=Reorder("list", values=(1, 1)))),
                   DomainError,
                   "exact mean needs an injective reorder; use the sampling estimate"),
    "mc-far-position": (lambda: mc_mean(fixed(["1/3", "2/3"],
                                              reorder=Reorder("list", values=(1, 10**12))),
                                        10, 1), DomainError,
                        "a sample reads digit position 1000000000000: 1000000000000 "
                        "bytes of digits exceed the limit of 67108864"),
    "mc-seed": (lambda: mc_mean(fixed(["1/3", "2/3"]), 10, -1), DomainError,
                "seed must be >= 0, got -1"),
    # a count is read as an integer, not truncated or left to fail later
    "mc-samples-fraction": (lambda: mc_mean(fixed(["1/3", "2/3"]), 2.5, 1), DomainError,
                            "expected an integer, got 2.5"),
    "mc-seed-fraction": (lambda: mc_mean(fixed(["1/3", "2/3"]), 10, 1.5), DomainError,
                         "expected an integer, got 1.5"),
    "equation-index-fraction": (lambda: residual(F(1, 3), 2, fixed(["1/3", "2/3"]), 1.5),
                                DomainError, "expected an integer, got 1.5"),
    "grid-fraction": (lambda: emit_table(fixed(["1/3", "2/3"]), 2.5), DomainError,
                      "expected an integer, got 2.5"),
    "grid-ratio": (lambda: emit_table(fixed(["1/3", "2/3"]), F(5, 2)), DomainError,
                   "expected an integer, got Fraction(5, 2)"),
    # a string grid is refused, not read one character at a time
    "grid-string": (lambda: emit_table(fixed(["1/3", "2/3"]), "01"), DomainError,
                    "a grid is a point count or an iterable of rationals, got '01'"),
    "grid-bytes": (lambda: emit_table(fixed(["1/3", "2/3"]), b"01"), DomainError,
                   "a grid is a point count or an iterable of rationals, got b'01'"),
    # a value int() does not take is refused, not left to end in a TypeError
    "grid-complex": (lambda: emit_table(fixed(["1/3", "2/3"]), 1j), DomainError,
                     "expected an integer, got 1j"),
    "grid-none": (lambda: emit_table(fixed(["1/3", "2/3"]), None), DomainError,
                  "a grid is a point count or an iterable of rationals, got None"),
    # so is one int() refuses outright: a non-numeric string, inf or nan
    "mc-samples-inf": (lambda: mc_mean(fixed(["1/3", "2/3"]), float("inf"), 1), DomainError,
                       "expected an integer, got inf"),
    "mc-samples-nan": (lambda: mc_mean(fixed(["1/3", "2/3"]), float("nan"), 1), DomainError,
                       "expected an integer, got nan"),
    "mc-samples-string": (lambda: mc_mean(fixed(["1/3", "2/3"]), "abc", 1), DomainError,
                          "expected an integer, got 'abc'"),
    "reorder-json-word": (lambda: Reorder.from_json({"kind": "list", "values": ["x"]}),
                          DomainError, "expected an integer, got 'x'"),
    # a point's exact expansion reads at most `MAX_PROBE` digits (here
    # 1000): the binary period of 1/1000003 is 1000002
    "point-past-scan-cap": (under_scan_cap(lambda: evaluate(F(1, 1000003), 2,
                                                            fixed(["1/3", "2/3"]))),
                            DomainError, "the expansion of 1/1000003 does not close "
                                         "within the limit of 1000 digits"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_input_names_its_fault(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestMcRowCap:
    def test_refused_before_numpy_is_imported(self, monkeypatch):
        # a row of 10**12 one-byte digits would take 931 GiB
        monkeypatch.setitem(sys.modules, "numpy", None)
        s = fixed(["1/3", "2/3"], reorder=Reorder("list", values=(1, 10**12)))
        with pytest.raises(DomainError, match="limit of 67108864$"):
            mc_mean(s, 10, 1)

    def test_negative_seed_refused_before_numpy_is_imported(self, monkeypatch):
        # numpy would refuse it too, but only after loading
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(DomainError, match=r"^seed must be >= 0, got -1$"):
            mc_mean(fixed(["1/3", "2/3"]), 10, -1)

    @pytest.mark.parametrize("q, size", [(2, 1), (128, 8)])
    def test_a_row_may_fill_the_cap(self, monkeypatch, q, size):
        # int8 digits below q = 128, int64 from it on: a row of `last`
        # digits takes last * size bytes
        monkeypatch.setattr(salem_module, "_MC_BLOCK_BYTES", 96)
        weights = [F(1, q)] * q
        last = 96 // size
        r = mc_mean(SalemSystem.fixed(weights, reorder=Reorder("list", values=(last, 1))), 5, 3)
        assert r.samples == 5 and r.terms == 2
        s = SalemSystem.fixed(weights, reorder=Reorder("list", values=(last + 1, 1)))
        with pytest.raises(DomainError, match=f"{(last + 1) * size} bytes"):
            mc_mean(s, 5, 3)


# ---------------------------------------------------------------------------
# Integrals and sampling
# ---------------------------------------------------------------------------

class TestIntegral:
    def test_uniform(self):
        assert integral(fixed(["1/2", "1/2"])) == F(1, 2)

    def test_worked_values(self):
        assert integral(fixed(["1/3", "2/3"])) == F(1, 3)
        assert integral(fixed(["7/10", "-1/5", "1/2"])) == F(3, 5)

    def test_general_formula(self):
        # independent oracle: mean of the first stock of terms under the
        # uniform digit distribution, geometric in the stage index
        for ps in (["1/4", "3/4"], ["1/5", "1/2", "3/10"]):
            s = fixed(ps)
            q = s.q
            betas = s.beta_row(1)
            mean_beta = sum(betas) / q
            mean_p = sum(s.p_row(1)) / q  # == F(1, q) since columns sum to 1
            assert mean_p == F(1, q)
            expected = mean_beta / (1 - mean_p)
            assert integral(s) == expected

    def test_finite_system_integral(self):
        cols = [[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]]
        s = SalemSystem.matrix(cols)
        # two stages: the mean of term k is the mean beta of column k times
        # the mean p of each earlier column, 1/2: (0 + 1/3)/2 + 1/2 * (0 + 1/2)/2
        b1 = sum(s.beta_row(1)) / 2
        b2 = sum(s.beta_row(2)) / 2
        assert integral(s) == b1 + F(1, 2) * b2

    def test_lax_injective_list_has_an_exact_mean(self):
        # a list need not start with a permutation; one that repeats no
        # position still has independent digits, so the finite sum is
        # its mean.  The oracle averages the series over digits 1-3
        s = fixed(["1/3", "2/3"], reorder=Reorder("list", values=(3, 1)))
        beta, p = s.beta_row(1), s.p_row(1)
        want = sum(beta[e[2]] + p[e[2]] * beta[e[0]]
                   for e in itertools.product(range(2), repeat=3)) / 8
        assert integral(s) == want == F(1, 4)
        r = mc_mean(s, 200000, 1)
        assert abs(r.mean - 0.25) <= 4 * r.std_err

    def test_mc_matches_integral(self):
        s = fixed(["1/3", "2/3"])
        r = mc_mean(s, samples=40000, seed=7)
        assert abs(r.mean - float(F(1, 3))) <= 4 * r.std_err

    @pytest.mark.parametrize("system", [
        fixed(["1/3", "2/3"]),
        fixed(["7/10", "-1/5", "1/2"], reorder=SWAP),
        fixed(["1/4", "3/4"], reorder=Reorder("list", values=(3, 1, 2, 4))),
        SalemSystem.matrix([[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)], [F(4, 5), F(1, 5)]]),
        SalemSystem([F(1, 3), F(2, 3)], [[F(1, 2), F(1, 2)], [F(9, 10), F(1, 10)]], SWAP),
    ], ids=["fixed", "swap-pairs", "strict-list", "matrix", "columns-then-tuple"])
    def test_mc_agrees_with_integral_on_every_schedule_kind(self, system):
        r = mc_mean(system, 20000, 5)
        assert abs(r.mean - float(integral(system))) <= 4 * r.std_err

    def test_mc_deterministic(self):
        s = fixed(["1/4", "3/4"])
        a = mc_mean(s, samples=5000, seed=11)
        b = mc_mean(s, samples=5000, seed=11)
        assert a.mean == b.mean and a.std_err == b.std_err

    def test_mc_signed_system(self):
        s = fixed(["7/10", "-1/5", "1/2"])
        r = mc_mean(s, samples=60000, seed=3)
        assert abs(r.mean - 0.6) <= 4 * r.std_err

    def test_mc_results_pinned(self):
        # floats recorded before chunks were capped by the digit block's
        # size; these blocks fit under the cap, so nothing changes
        cases = [
            (fixed(["1/3", "2/3"]), 5000, 11, None,
             0.3396862061398122, 0.0036991173160572954, 54),
            (fixed(["97/100", "3/100"]), 3000, 5, None,
             0.9707092602279245, 0.000735869239161165, 796),
            (fixed(["7/10", "-1/5", "1/2"]), 4000, 3, None,
             0.5989196607024114, 0.0029339442315583996, 62),
            (fixed(["1/4", "3/4"], reorder=SWAP), 3000, 2, None,
             0.24879102463792258, 0.004105853082120415, 77),
            (SalemSystem.matrix([[F(k + 1, 2 * k + 3), F(k + 2, 2 * k + 3)]
                                 for k in range(12)]), 2500, 9, 1000,
             0.38296168358601, 0.0056344890814001135, 12),
        ]
        for s, samples, seed, chunk, mean, std_err, terms in cases:
            r = mc_mean_at_chunk(s, samples, seed, chunk)
            assert (r.mean, r.std_err, r.terms) == (mean, std_err, terms)

    def test_mc_power_of_two_results_pinned(self):
        # floats recorded from bounded int8 draws; these bases take their
        # digits from raw 32-bit words.  The last case draws 7 * 54 = 378
        # digits per chunk, not a whole number of words
        cases = [
            (fixed(["1/2", "-1/4", "1/2", "1/4"]), 4000, 6, None,
             0.4980290750009041, 0.0040535941316062404, 31),
            (fixed(["1/4", "1/16", "1/8", "1/16", "1/8", "1/8", "1/8", "1/8"],
                   reorder=SWAP), 3000, 8, None,
             0.5350577695868702, 0.0047327993009766015, 16),
            (SalemSystem.fixed([F(i + 1, 2080) for i in range(64)]), 2000, 64, None,
             0.33384643820411963, 0.006609386921548448, 6),
            (fixed(["1/3", "2/3"]), 100, 7, 7,
             0.3706574727049823, 0.026616704438755405, 54),
        ]
        for s, samples, seed, chunk, mean, std_err, terms in cases:
            r = mc_mean_at_chunk(s, samples, seed, chunk)
            assert (r.mean, r.std_err, r.terms) == (mean, std_err, terms)

    def test_mc_sample_count_capped_before_drawing(self, monkeypatch):
        s = fixed(["1/3", "2/3"])
        monkeypatch.setattr(salem_module, "MAX_SAMPLES", 1000)
        assert mc_mean(s, samples=1000, seed=0).samples == 1000
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(DomainError, match="limit of 1000"):
            mc_mean(s, samples=1001, seed=0)

    def test_mc_block_cap_sets_the_chunk(self, monkeypatch):
        # every digit block drawn stays under the cap; only the chunking moves
        s = fixed(["1/3", "2/3"])  # 54 terms: 54 one-byte digits per row
        want = mc_mean(s, samples=5000, seed=4)
        digits = record_draws(monkeypatch)
        monkeypatch.setattr(salem_module, "_MC_BLOCK_BYTES", 54 * 1000)
        r = mc_mean(s, samples=5000, seed=4)
        assert r.mean == pytest.approx(want.mean, rel=1e-12)
        assert r.std_err == pytest.approx(want.std_err, rel=1e-9)
        assert digits == [1000 * 54] * 5


def record_draws(monkeypatch):
    """Make `np.random.default_rng` record the bytes of each draw from the
    generator, in a list that it returns.  q < 128 reads one digit from
    each byte drawn: an int8, or a byte of a raw 64-bit word."""
    digits = []
    default_rng = np.random.default_rng

    class Recorder:
        def __init__(self, seed):
            self.rng = default_rng(seed)
            # the raw-word source reads and sets the buffered half word
            self.bit_generator = self.rng.bit_generator

        def integers(self, low, high, size, dtype):
            digits.append(int(np.prod(size)) * np.dtype(dtype).itemsize)
            return self.rng.integers(low, high, size=size, dtype=dtype)

    monkeypatch.setattr(np.random, "default_rng", Recorder)
    return digits


def mc_mean_per_column(system, samples, seed, chunk=65536):
    """The sampling loop before row blocks: one pass over the whole chunk
    per term.  A test oracle for `mc_mean`, which must match it bit for
    bit."""
    q = system.q
    m = float(system.global_max)
    limit = system.stage_limit()
    k_tol = 1
    bound = m
    while bound >= 1e-9 * (1.0 - m) and k_tol < salem_module._MC_CAP:
        k_tol += 1
        bound *= m
    terms = k_tol if limit is None else min(k_tol, limit)
    positions = [system.reorder.position(t) for t in range(1, terms + 1)]
    maxpos = max(positions, default=1)
    p_cols = [np.array([float(p) for p in system.p_row(n)]) for n in positions]
    b_cols = [np.array([float(b) for b in system.beta_row(n)]) for n in positions]
    dtype = np.int8 if q <= 127 else np.int64
    chunk = max(1, min(chunk, salem_module._MC_BLOCK_BYTES
                       // (maxpos * np.dtype(dtype).itemsize)))
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    done = 0
    while done < samples:
        mrows = min(chunk, samples - done)
        digs = rng.integers(0, q, size=(mrows, maxpos), dtype=dtype)
        vals = np.zeros(mrows)
        prod = np.ones(mrows)
        for t, n in enumerate(positions):
            col = digs[:, n - 1]
            vals += b_cols[t][col] * prod
            prod *= p_cols[t][col]
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += mrows
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
    return salem_module.McMean(mean, sqrt(var / samples), samples, seed, terms)


@st.composite
def weight_tuples(draw, q, dens=(7, 16, 100)):
    # any partial sums in (0, 1) give a valid tuple; unsorted ones give
    # signed weights
    den = draw(st.sampled_from(dens))
    betas = [F(draw(st.integers(1, den - 1)), den) for _ in range(q - 1)]
    edges = [F(0)] + betas + [F(1)]
    return [b - a for a, b in zip(edges, edges[1:])]


@st.composite
def two_part_systems(draw, q=None, orders=("identity", "swap-pairs", "list"),
                     dens=(7, 16, 100)):
    """1-5 columns for positions 1..P, then a weight tuple for every later
    position, read in identity, swap-pairs or strict list order."""
    q = q or draw(st.integers(2, 4))
    columns = draw(st.lists(weight_tuples(q, dens), min_size=1, max_size=5))
    order = draw(st.sampled_from(orders))
    if order == "list":
        values = draw(st.permutations(range(1, draw(st.integers(1, 8)) + 1)))
        reorder = Reorder("list", values=tuple(values))
    else:
        reorder = SWAP if order == "swap-pairs" else Reorder()
    return SalemSystem(draw(weight_tuples(q, dens)), columns, reorder)


@st.composite
def mc_systems(draw):
    kind = draw(st.sampled_from(["fixed", "swap-pairs", "matrix", "skewed",
                                 "moderate", "two-part"]))
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 16, 64]))
    if kind in ("skewed", "moderate"):
        # p_max >= 0.97: every row's product underflows long before the
        # last term.  p_max <= 0.95: no product underflows, but every
        # row's sum stops moving in float well before the last term.
        # Either way whole blocks stop early.
        tops = ([F(97, 100), F(99, 100), F(999, 1000)] if kind == "skewed"
                else [F(4, 5), F(9, 10), F(19, 20)])
        top = draw(st.sampled_from(tops))
        rest = [(1 - top) / (q - 1)] * (q - 1)
        at = draw(st.integers(0, q - 1))
        return SalemSystem.fixed(rest[:at] + [top] + rest[at:])
    if kind == "matrix":
        cols = draw(st.lists(weight_tuples(q), min_size=1, max_size=40))
        return SalemSystem.matrix(cols)
    if kind == "two-part":
        return draw(two_part_systems(q=q))
    reorder = SWAP if kind == "swap-pairs" else Reorder()
    return SalemSystem.fixed(draw(weight_tuples(q)), reorder=reorder)


def block_rows(q, more=()):
    """Small block sizes to patch into `_MC_ROWS` for base q, and `more`.
    A block of raw words (q = 2**k <= 64) that is not a chunk's last must
    read whole 32-bit words, as 4096 rows do, so its rows are a multiple
    of 4; the int8 chunk draw and the int64 block draw allow any size."""
    raw = q <= 64 and q & (q - 1) == 0
    return st.sampled_from([*([4, 8, 12] if raw else [1, 3, 7]), *more])


class TestMcBlocks:
    def test_rows_are_whole_words(self):
        # a raw block reads one byte per digit, so 4096 rows or any other
        # multiple of 4 end every block but a chunk's last on a word
        assert salem_module._MC_ROWS % 4 == 0

    @pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 54 * 7])
    def test_raw_words_give_the_bounded_digits(self, q, n):
        # a digit below q = 2**k is the top k bits of one byte of the
        # generator's 32-bit words, low byte first, and none is rejected
        bounded, raw = np.random.default_rng(q * n), np.random.default_rng(q * n)
        want = bounded.integers(0, q, size=n, dtype=np.int8)
        words = raw.integers(0, 2**32, size=-(-n // 4), dtype=np.uint32)
        got = words.astype("<u4", copy=False).view(np.uint8)[:n] >> (9 - q.bit_length())
        assert got.tolist() == want.tolist()
        assert raw.bit_generator.state == bounded.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**63), before=st.integers(0, 3),
           n=st.integers(1, 5000) | st.integers(1, 8))
    def test_words32_is_the_uint32_draw(self, seed, before, n):
        # 0-3 words drawn first leave the generator with or without a
        # buffered half; the draws after the words must read the same stream
        def draw(words):
            rng = np.random.default_rng(seed)
            rng.integers(0, 2**32, size=before, dtype=np.uint32)
            got = words(rng)
            return (got.dtype, got.tolist(), int(rng.integers(0, 2**32, dtype=np.uint32)),
                    rng.integers(0, 3, size=5).tolist())

        assert (draw(lambda rng: salem_module._words32(rng, n))
                == draw(lambda rng: rng.integers(0, 2**32, size=n, dtype=np.uint32)))

    @settings(max_examples=60, deadline=None)
    @given(system=mc_systems(), samples=st.integers(2, 9000),
           seed=st.integers(0, 2**31), chunk=st.sampled_from([None, 1, 100, 2500, 5000]),
           data=st.data(), every=st.sampled_from([1, 2, 16, 64]),
           move=st.sampled_from([None, 1]))
    def test_matches_per_column_loop(self, system, samples, seed, chunk, data, every, move):
        # `every` is the cadence of the frozen-row checks: at 1 a block
        # may drop rows at every term.  `move` 1 moves a block's live
        # digit rows one row at a time
        move = salem_module._MC_MOVE_BYTES if move is None else move
        kw = {} if chunk is None else {"chunk": chunk}
        rows = data.draw(block_rows(system.q, (salem_module._MC_ROWS, 1000)))
        # both loops make one numpy pass per term and block (or chunk):
        # cap those passes so that small blocks and 20000-term systems
        # stay quick
        terms = mc_mean(system, 2, 0).terms
        samples = min(samples, max(2, 10000 // terms * min(rows, chunk or rows)))
        want = mc_mean_per_column(system, samples, seed, **kw)
        with mock.patch.object(salem_module, "_MC_ROWS", rows), \
                mock.patch.object(salem_module, "_MC_LIVE_EVERY", every), \
                mock.patch.object(salem_module, "_MC_MOVE_BYTES", move):
            assert mc_mean_at_chunk(system, samples, seed, chunk) == want

    @settings(max_examples=80, deadline=None)
    @given(q=st.sampled_from([2, 3, 4, 8, 64, 128, 200]), data=st.data(),
           last=st.sampled_from([1, 3, 5, 7, 13, 61]), samples=st.integers(2, 300),
           seed=st.integers(0, 2**31), chunk=st.sampled_from([1, 5, 100]))
    def test_blocks_read_the_chunk_stream(self, q, data, last, samples, seed, chunk):
        # each block draws its own digits: a power-of-two block of an
        # odd number of positions reads whole 32-bit words, since its
        # rows are a multiple of 4, and q >= 128 draws int64 digits
        # block by block
        rows = data.draw(block_rows(q))
        positions = data.draw(st.lists(st.integers(1, last), max_size=8)) + [last]
        system = SalemSystem.fixed(data.draw(weight_tuples(q)),
                                   reorder=Reorder("list", values=tuple(positions)))
        want = mc_mean_per_column(system, samples, seed, chunk=chunk)
        with mock.patch.object(salem_module, "_MC_ROWS", rows):
            assert mc_mean_at_chunk(system, samples, seed, chunk) == want

    def test_memory_is_one_block(self, monkeypatch):
        # 40000 rows of 219 one-byte digits: every draw takes at most one
        # block of 4096 rows, not the 8.8 MB chunk
        s = fixed(["9/10", "1/10"])
        want = mc_mean_per_column(s, 40000, 1)
        digits = record_draws(monkeypatch)
        r = mc_mean(s, 40000, 1)
        assert r == want and r.terms == 219
        assert max(digits) <= salem_module._MC_ROWS * 219 and sum(digits) >= 40000 * 219

    def test_bounded_int8_draws_whole_chunks(self, monkeypatch):
        # q = 3: numpy's int8 draw drops the unused bytes of its last
        # word and rejects digits, so each chunk of 5000 rows takes one
        # draw, and its two blocks sum from it
        s = fixed(["9/10", "1/20", "1/20"])
        monkeypatch.setattr(salem_module, "_MC_CHUNK", 5000)
        want = mc_mean_per_column(s, 12000, 1, chunk=5000)
        digits = record_draws(monkeypatch)
        r = mc_mean(s, 12000, 1)
        assert r == want
        assert digits == [rows * r.terms for rows in (5000, 5000, 2000)]

    def test_dead_blocks_stop_early(self):
        # 999/1000 runs 20000 terms, but a block stops once every row is
        # frozen: its product has underflowed to 0, or has sunk below
        # 2**-55 of its value, which a few 1/1000 factors bring about.
        # The result still matches the full loop
        s = fixed(["999/1000", "1/1000"])
        r = mc_mean(s, samples=600, seed=2)
        assert r.terms == salem_module._MC_CAP
        assert r == mc_mean_per_column(s, 600, 2)

    @pytest.mark.parametrize("system, samples", [
        # no product of 9/10 and 1/10 underflows within 219 terms, yet
        # every row's sum stops moving after a few dozen
        (fixed(["9/10", "1/10"]), 3000),
        # negative weights make products, and so terms, change sign
        (fixed(["9/10", "-1/5", "3/10"]), 3000),
        # every |p| is near 1, so a product sinks about 0.1 bit per term
        # and its row freezes only after some 600 of the 796 terms.  Over
        # 20 rows the sums show the terms that a much looser test, such
        # as 2**-45, would skip
        (fixed(["97/100", "-9/10", "93/100"]), 20),
        # p_0 = 2**-600: a row starting with two 0 digits keeps the value
        # 0 while its product underflows to 0.  Such a row is frozen too
        (SalemSystem.fixed([F(1, 2**600), F(9, 10) - F(1, 2**600), F(1, 10)]), 3000),
    ], ids=["9/10", "signed", "slow-signed", "zero-rows"])
    def test_frozen_blocks_stop_early(self, system, samples):
        with mock.patch.object(np, "take", wraps=np.take) as take:
            r = mc_mean(system, samples, 5)
        # one block, which takes beta and p once per term it sums
        assert take.call_count < 2 * r.terms
        assert r == mc_mean_per_column(system, samples, 5)

    @pytest.mark.parametrize("system, samples, indices", [
        # a row freezes after about 32 of the 219 terms, and every row of
        # this block by term 64: a block that summed all of its rows up to
        # the check at term 64 would take 2 * 4096 * 64 indices
        (fixed(["9/10", "1/10"]), 4096, lambda n: n < 3 * (2 * 4096 * 64) // 4),
        # 54 terms: fewer than half of the rows freeze by the last check,
        # at term 48, so none is dropped and every row takes beta and p
        # once per term
        (fixed(["1/3", "2/3"]), 5000, lambda n: n == 2 * 5000 * 54),
    ], ids=["9/10", "1/3"])
    def test_frozen_rows_leave_their_block(self, system, samples, indices):
        with mock.patch.object(np, "take", wraps=np.take) as take:
            r = mc_mean(system, samples, 1)
        assert indices(sum(len(c.args[1]) for c in take.call_args_list))
        assert r == mc_mean_per_column(system, samples, 1)

    def test_short_signed_and_matrix_systems(self):
        # 43 and 40 terms: the checks at terms 16 and 32 find fewer than
        # half of the rows frozen, so no row is dropped and every term is
        # summed
        for s in (fixed(["3/5", "-1/5", "3/5"]),
                  SalemSystem.matrix([[F(k + 1, 2 * k + 3), F(k + 2, 2 * k + 3)]
                                      for k in range(40)])):
            assert mc_mean(s, 3000, 5) == mc_mean_per_column(s, 3000, 5)


# ---------------------------------------------------------------------------
# Columns, then a repeating tuple
# ---------------------------------------------------------------------------

def schedule_sum(system, x, steps):
    """The first `steps` series terms at x in plain Fractions: position n
    reads column n up to P, then the tuple.  A test oracle."""
    d = expand_exact(x, QSequence.constant(system.q))
    total, prod = F(0), F(1)
    for k in range(1, steps + 1):
        n = system.reorder.position(k)
        w = system.columns[n - 1] if n <= len(system.columns) else system.weights
        e = d.digit(n)
        total += sum(w[:e], F(0)) * prod
        prod *= w[e]
    return total


TWO_KEYS = {"q": 2, "p": ["1/3", "2/3"], "columns": [["1/2", "1/2"]]}


class TestTwoPartSystems:
    def test_worked_values(self):
        # 1/3 = 0.0101...: column 1 reads 0, then the tuple reads 2/3, whose
        # value 1/3 + 2/3 * 1/7 is halved.  The mean is (1/2) / 2 plus half
        # the tuple's mean 1/3
        s = SalemSystem.from_json(TWO_KEYS)
        assert evaluate(F(1, 3), 2, s) == salem_module.EvalResult(F(3, 14), F(0), 3)
        assert integral(s) == F(5, 12)
        assert SalemSystem.from_json(s.to_json()) == s
        assert s.to_json()["columns"] == [["1/2", "1/2"]]

    def test_every_column_is_validated(self):
        s = SalemSystem.from_json({**TWO_KEYS, "columns": [["1/2", "1/2"], ["1"]]})
        assert str(validate_system(s)) == "alphabet at column 2: length 1 != 2"
        # the tuple is the column after the last one given
        s = SalemSystem([F(1, 3), F(1, 3)], [[F(1, 2), F(1, 2)]])
        assert str(validate_system(s)) == "column-sum at column 2: sums to 2/3, not 1"

    def test_only_a_system_with_a_tuple_takes_a_reorder(self):
        cols = [[F(1, 2), F(1, 2)]]
        assert validate_system(SalemSystem([F(1, 3), F(2, 3)], cols, SWAP)).ok
        rep = validate_system(SalemSystem(columns=cols, reorder=SWAP))
        assert rep.violation.condition == "reorder"

    def test_fixed_and_matrix_forms_are_unchanged(self):
        w = (F(1, 3), F(2, 3))
        assert SalemSystem.fixed(w).columns is None
        assert SalemSystem.matrix([w]).weights is None
        assert "columns" not in SalemSystem.fixed(w).to_json()
        # no columns before the tuple reads like the tuple alone
        assert (evaluate(F(2, 7), 2, SalemSystem(w, ()))
                == evaluate(F(2, 7), 2, SalemSystem.fixed(w)))

    @settings(max_examples=150, deadline=None)
    @given(two_part_systems(dens=(7, 16)), st.integers(1, 60), st.data())
    def test_rationals_close_exactly(self, s, den, data):
        x = F(data.draw(st.integers(0, den)), den)
        r = evaluate(x, s.q, s)
        assert r.error_bound == 0
        # a list order ends the series; otherwise 400 terms leave at most
        # m**400 / (1 - m) for the largest |p| m <= 15/16
        limit = s.stage_limit()
        m = s.global_max
        assert abs(r.value - schedule_sum(s, x, limit or 400)) <= (
            0 if limit else m ** 400 / (1 - m))
        for k in range(1, min(limit or 5, 5) + 1):
            assert residual(x, s.q, s, k) == 0

    @settings(max_examples=150, deadline=None)
    @given(two_part_systems())
    def test_integral_is_the_mean_series_in_reading_order(self, s):
        # step k adds the mean beta of the column it reads times q**(1 - k)
        q, limit = s.q, s.stage_limit()
        total = F(0)
        for k in range(1, (limit or 400) + 1):
            n = s.reorder.position(k)
            w = s.columns[n - 1] if n <= len(s.columns) else s.weights
            total += sum(sum(w[:e], F(0)) for e in range(q)) / q / F(q) ** (k - 1)
        assert abs(integral(s) - total) <= (0 if limit else F(1, q) ** 400 / (1 - F(1, q)))


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

class TestTables:
    def test_grid_table(self):
        s = fixed(["1/3", "2/3"])
        rows = emit_table(s, 5)
        assert [row.x for row in rows] == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        assert [row.value for row in rows] == [F(0), F(1, 9), F(1, 3), F(5, 9), F(1)]
        assert all(row.error_bound == 0 for row in rows)

    def test_any_integral_number_is_a_grid_size(self):
        s = fixed(["1/3", "2/3"])
        assert emit_table(s, F(5)) == emit_table(s, 5.0) == emit_table(s, 5)

    def test_explicit_points(self):
        s = fixed(["1/4", "3/4"])
        rows = emit_table(s, [F(1, 3)], tol=TOL)
        assert len(rows) == 1 and rows[0].error_bound <= TOL

    def test_uniform_grid_size_capped_before_building(self, monkeypatch):
        s = fixed(["1/3", "2/3"])
        with pytest.raises(DomainError, match="limit of 100000$"):
            emit_table(s, 10**12)  # a list of 10**12 points would never finish
        monkeypatch.setattr(salem_module, "MAX_POINTS", 5)
        assert len(emit_table(s, 5)) == 5
        with pytest.raises(DomainError, match="6 points exceed the limit of 5"):
            emit_table(s, 6)

    def test_monotone_on_grid(self):
        s = fixed(["2/5", "3/5"])
        rows = emit_table(s, 16)
        vals = [r.value for r in rows]
        assert vals == sorted(vals) and len(set(vals)) == len(vals)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_fixed_round_trip(self):
        s = fixed(["7/10", "-1/5", "1/2"])
        j = s.to_json()
        assert j["q"] == 3 and j["p"] == ["7/10", "-1/5", "1/2"]
        assert SalemSystem.from_json(j) == s

    def test_two_part_round_trip(self):
        s = SalemSystem.from_json({**TWO_KEYS, "reorder": {"kind": "rule", "name": "swap-pairs"}})
        assert SalemSystem.from_json(s.to_json()) == s

    def test_matrix_round_trip(self):
        s = SalemSystem.matrix([[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]])
        j = s.to_json()
        assert "columns" in j
        assert SalemSystem.from_json(j) == s

    def test_reorder_round_trip(self):
        for r in (Reorder(), Reorder("rule", name="swap-pairs"),
                  Reorder("list", values=(2, 1, 3))):
            s = fixed(["1/2", "1/2"], reorder=r)
            assert SalemSystem.from_json(s.to_json()) == s

    def test_empty_columns_before_a_tuple_are_the_fixed_system(self):
        w = (F(1, 3), F(2, 3))
        s = SalemSystem(w, ())
        assert s == SalemSystem.fixed(w) and hash(s) == hash(SalemSystem.fixed(w))
        assert s.to_json() == SalemSystem.fixed(w).to_json() == {
            "q": 2, "p": ["1/3", "2/3"], "reorder": {"kind": "identity"}}
        assert SalemSystem.from_json({"p": ["1/3", "2/3"], "columns": []}) == s
        # with no tuple, empty columns are still no alphabet
        assert validate_system(SalemSystem(None, ())).violation.condition == "alphabet"

    def test_declared_q_checked(self):
        with pytest.raises(DomainError):
            SalemSystem.from_json({"q": 3, "p": ["1/2", "1/2"]})
