"""Exact measure brackets and sampling for program-comparison sets."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from math import sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cantorshift
from cantorshift import (
    MAX_TAIL,
    ZERO_TAIL,
    ConstRhs,
    DigitString,
    DomainError,
    GEN,
    GKSetSpec,
    InsufficientDepthError,
    ProgramOnX,
    ProgramOnZ,
    QSequence,
    SIGMA,
    ShiftProgram,
    apply_program,
    cylinder_info,
    eval_prefix,
    generator_family,
    limit_scan,
    measure_bounds,
    measure_mc,
    rhs_from_json,
    sigma_family,
)
import cantorshift.gausskuzmin as gk_module
from cantorshift.gausskuzmin import _image_weights

Q2 = QSequence.constant(2)
Q3 = QSequence.constant(3)


def shift_below(q, n, x, relation="lt"):
    return GKSetSpec(q, ShiftProgram.sigma_power(n), ConstRhs(F(x)), relation)


# ---------------------------------------------------------------------------
# Exact bounds
# ---------------------------------------------------------------------------

class TestBounds:
    def test_shift_preserves_uniform_mass(self):
        # {z : shifted z < x} has measure exactly x once x's digits resolve
        b = measure_bounds(shift_below(Q2, 3, F(1, 4)), 9)
        assert b.lower == b.upper == F(1, 4)
        assert b.decided_mass == 1

    def test_bracket_before_resolution(self):
        # at shallow depth the bracket straddles but still contains x
        b = measure_bounds(shift_below(Q2, 3, F(1, 4)), 4)
        assert b.lower <= F(1, 4) <= b.upper
        assert b.width > 0

    def test_self_comparison_set(self):
        # {z : shifted z < z} in base 2 has measure 1/2
        spec = GKSetSpec(Q2, ShiftProgram.sigma_power(1),
                         ProgramOnZ(ShiftProgram.identity()))
        b = measure_bounds(spec, 16)
        assert b.lower == F(2**15 - 1, 2**16)
        assert b.upper == F(2**15 + 1, 2**16)
        assert b.width == F(1, 2**15)
        assert b.lower <= F(1, 2) <= b.upper

    def test_complement_mirrors_exactly(self):
        spec = GKSetSpec(Q2, ShiftProgram.sigma_power(1),
                         ProgramOnZ(ShiftProgram.identity()))
        comp = GKSetSpec(Q2, ShiftProgram.sigma_power(1),
                         ProgramOnZ(ShiftProgram.identity()), relation="ge")
        b, c = measure_bounds(spec, 12), measure_bounds(comp, 12)
        assert c.lower == 1 - b.upper
        assert c.upper == 1 - b.lower

    def test_deletion_set_exact(self):
        # deleting digit 2 keeps the result uniform: {del_2 z < 1/2} = 1/2
        spec = GKSetSpec(Q2, ShiftProgram((GEN(2),)), ConstRhs(F(1, 2)))
        b = measure_bounds(spec, 8)
        assert b.lower == b.upper == F(1, 2)

    def test_nesting_with_depth(self):
        spec = GKSetSpec(Q2, ShiftProgram.sigma_power(1),
                         ProgramOnZ(ShiftProgram.identity()))
        outer = measure_bounds(spec, 8)
        inner = measure_bounds(spec, 10)
        assert outer.lower <= inner.lower <= inner.upper <= outer.upper

    def test_width_equals_undecided_mass(self):
        spec = shift_below(Q3, 1, F(1, 7))
        b = measure_bounds(spec, 5)
        assert b.width == 1 - b.decided_mass

    def test_depth_refusal_names_requirement(self):
        spec = shift_below(Q2, 3, F(1, 4))
        with pytest.raises(InsufficientDepthError) as e:
            measure_bounds(spec, 3)
        assert e.value.required == 4

    def test_depth_capped_before_any_work(self, monkeypatch):
        spec = shift_below(Q2, 3, F(1, 4))
        monkeypatch.setattr(gk_module, "_image_weights", None)
        with pytest.raises(DomainError, match="depth 10001 exceeds the limit of 10000$"):
            measure_bounds(spec, 10**4 + 1)
        monkeypatch.undo()
        monkeypatch.setattr(gk_module, "MAX_BOUNDS_DEPTH", 5)
        assert measure_bounds(spec, 5).depth == 5
        with pytest.raises(DomainError, match="limit of 5$"):
            measure_bounds(spec, 6)

    def test_non_constant_base(self):
        q = QSequence.periodic([2, 3])
        b = measure_bounds(shift_below(q, 1, F(1, 3)), 7)
        assert b.lower <= F(1, 3) <= b.upper
        assert b.width <= F(1, 2 * 3 * 2 * 3 * 2)  # straddle shrinks with rank

    def test_explicit_base(self):
        q = QSequence.explicit([2, 3, 4])
        b = measure_bounds(shift_below(q, 2, F(1, 2)), 8)
        assert b.lower == b.upper == F(1, 2)

    def test_ge_constant_at_zero_is_everything(self):
        spec = shift_below(Q2, 1, F(0), relation="ge")
        b = measure_bounds(spec, 6)
        assert b.lower == b.upper == 1

    def test_lt_constant_at_zero_is_nothing(self):
        spec = shift_below(Q2, 1, F(0))
        b = measure_bounds(spec, 6)
        assert b.lower == b.upper == 0

    def test_fixed_point_threshold(self):
        # compare against a program applied to a fixed point: the threshold
        # is the number that program computes
        rhs = ProgramOnX(ShiftProgram.sigma_power(2), F(5, 16))
        spec = GKSetSpec(Q2, ShiftProgram.sigma_power(1), rhs)
        want = apply_program(ShiftProgram.sigma_power(2), F(5, 16), Q2)
        b = measure_bounds(spec, 10)
        assert b.lower <= want <= b.upper
        assert b.width <= F(1, 2**8)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 16))
    def test_measure_matches_threshold_property(self, n, num):
        x = F(num, 16)
        b = measure_bounds(shift_below(Q2, n, x), n + 7)
        assert b.lower <= x <= b.upper
        assert b.width <= F(1, 2**6)


class TestImageWeights:
    def test_empty_program_matches_cylinder_endpoint(self):
        # independent oracle: with no program the image of a rank-d
        # cylinder is the cylinder itself
        q = QSequence.explicit([2, 3, 4])
        w, den = _image_weights((), q.values(0, 3))
        for digs in [(0, 0, 0), (1, 2, 3), (0, 1, 2), (1, 0, 0)]:
            cyl = cylinder_info(digs, q)
            assert F(sum(c * ww for c, ww in zip(digs, w)), den) == cyl.inf
            assert F(1, den) == cyl.measure

    def test_shift_zeroes_leading_weights(self):
        w, den = _image_weights((SIGMA, SIGMA), Q2.values(0, 5))
        assert w[:2] == [0, 0]
        assert den == 2**3
        assert w[2:] == [4, 2, 1]

    def test_deletion_weight_pattern(self):
        w, den = _image_weights((GEN(2),), Q2.values(0, 4))
        assert w == [4, 0, 2, 1] and den == 8


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

class TestSampling:
    def test_deterministic(self):
        spec = shift_below(Q2, 1, F(1, 3))
        a = measure_mc(spec, samples=20000, seed=5)
        b = measure_mc(spec, samples=20000, seed=5)
        assert a.estimate == b.estimate and a.hits == b.hits

    def test_matches_exact_bounds(self):
        spec = GKSetSpec(Q2, ShiftProgram.sigma_power(1),
                         ProgramOnZ(ShiftProgram.identity()))
        b = measure_bounds(spec, 12)
        r = measure_mc(spec, samples=100_000, seed=9)
        assert float(b.lower) - 4 * r.std_err <= r.estimate <= float(b.upper) + 4 * r.std_err

    def test_threshold_set_estimate(self):
        spec = GKSetSpec(Q2, ShiftProgram((GEN(2),)), ConstRhs(F(1, 2)))
        r = measure_mc(spec, samples=100_000, seed=17)
        assert abs(r.estimate - 0.5) <= 4 * r.std_err

    def test_depth_capped_by_word_size(self):
        spec = shift_below(Q2, 1, F(1, 3))
        r = measure_mc(spec, samples=10, seed=0, extra_depth=32)
        assert r.depth == 33

    def test_huge_bases_refused(self):
        q = QSequence.explicit([2**40, 2**40])
        spec = shift_below(q, 1, F(1, 3))
        with pytest.raises(DomainError):
            measure_mc(spec, samples=10, seed=0)

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            measure_mc(shift_below(Q2, 1, F(1, 3)), samples=0, seed=0)

    def test_sample_count_capped_before_drawing(self, monkeypatch):
        spec = shift_below(Q2, 1, F(1, 3))
        monkeypatch.setattr(gk_module, "MAX_SAMPLES", 1000)
        assert measure_mc(spec, samples=1000, seed=0).samples == 1000
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(DomainError, match="limit of 1000"):
            measure_mc(spec, samples=1001, seed=0)

    def test_negative_seed_refused_before_numpy_is_imported(self, monkeypatch):
        # numpy would refuse it too, but only after loading
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(DomainError, match=r"^seed must be >= 0, got -1$"):
            measure_mc(shift_below(Q2, 1, F(1, 3)), samples=10, seed=-1)


# name -> (call, exact message): one DomainError case per refusal branch
REFUSALS = {
    "spec-json": (lambda: GKSetSpec.from_json([1]), "set spec JSON must be an object"),
    "threshold-json": (lambda: rhs_from_json("1/2"), "threshold JSON must be an object"),
    "threshold-form": (lambda: rhs_from_json({"value": "1/2"}),
                       "unknown threshold form: ['value']"),
    "relation": (lambda: shift_below(Q2, 1, F(1, 3), "le"),
                 "relation must be \"lt\" or \"ge\", got 'le'"),
    "extra-depth": (lambda: measure_mc(shift_below(Q2, 1, F(1, 3)), 10, 0, extra_depth=0),
                    "extra depth must be >= 1, got 0"),
    "mc-seed": (lambda: measure_mc(shift_below(Q2, 1, F(1, 3)), 10, -1),
                "seed must be >= 0, got -1"),
    # a count is read as an integer, not truncated or left to fail later
    "mc-samples-fraction": (lambda: measure_mc(shift_below(Q2, 1, F(1, 3)), 10.5, 1),
                            "expected an integer, got 10.5"),
    "mc-seed-fraction": (lambda: measure_mc(shift_below(Q2, 1, F(1, 3)), 10, 1.5),
                         "expected an integer, got 1.5"),
    "extra-depth-fraction": (lambda: measure_mc(shift_below(Q2, 1, F(1, 3)), 10, 1,
                                                extra_depth=2.5),
                             "expected an integer, got 2.5"),
    "bounds-depth-fraction": (lambda: measure_bounds(shift_below(Q2, 1, F(1, 3)), 12.5),
                              "expected an integer, got 12.5"),
    # and one int() refuses outright is a DomainError, not int()'s own error
    "bounds-depth-string": (lambda: measure_bounds(shift_below(Q2, 1, F(1, 3)), "x"),
                            "expected an integer, got 'x'"),
    "mc-samples-inf": (lambda: measure_mc(shift_below(Q2, 1, F(1, 3)), float("inf"), 1),
                       "expected an integer, got inf"),
    # a string of parameters is refused, not read digit by digit
    "scan-params-string": (lambda: limit_scan(sigma_family(Q2, F(1, 3)), "12"),
                           "scan parameters must be integers, not a string: '12'"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_input_names_its_fault(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message


FLOAT_BAND = 1e-9


def measure_mc_by_columns(spec, samples, seed, extra_depth=32, chunk=65536):
    """The sampling loop before samples were decided from their leading
    digits: every digit drawn column by column into an (m, depth) block,
    the images compared as floats, samples within 1e-9 of the threshold
    re-checked in integers, and a tie over equal denominators counted
    as "ge".  A test oracle for `measure_mc`."""
    q = spec.q
    depth = gk_module._mc_depth(q, spec.required_depth, extra_depth)
    qv = [q.at(i) for i in range(1, depth + 1)]
    wl, dl = _image_weights(spec.lhs.word, qv)
    wr, base_r, dr, tail_r = gk_module._resolve_rhs(spec, qv)
    on_z = isinstance(spec.rhs, ProgramOnZ)
    want_lt = spec.relation == "lt"
    ties_hit = on_z and not want_lt and dl == dr
    if not on_z:
        f_r = float(min(max(F(base_r, dr), -1), 2))
    rng = np.random.default_rng(seed)
    hits = done = 0
    while done < samples:
        m = min(chunk, samples - done)
        digs = np.empty((m, depth), dtype=np.int64)
        for i in range(depth):
            digs[:, i] = rng.integers(0, qv[i], size=m)
        lo_l = digs @ np.array(wl, dtype=np.int64)
        if on_z:
            lo_r = digs @ np.array(wr, dtype=np.int64)
            f_r = (lo_r + (0.0 if want_lt else float(tail_r))) / float(dr)
        f_l = (lo_l + (1.0 if want_lt else 0.0)) / float(dl)
        hit = f_l <= f_r if want_lt else f_l >= f_r
        for j in np.nonzero(np.abs(f_l - f_r) < FLOAT_BAND)[0]:
            a, b = int(lo_l[j]), int(lo_r[j]) if on_z else base_r
            hit[j] = ((a + 1) * dr <= b * dl if want_lt
                      else a * dr >= (b + tail_r) * dl)
        if ties_hit:
            hit |= lo_l == lo_r
        hits += int(hit.sum())
        done += m
    est = hits / samples
    se = sqrt(max(est * (1.0 - est), 0.0) / samples)
    return gk_module.McMeasure(est, se, hits, samples, seed, depth)


ATOMS = st.sampled_from([SIGMA, GEN(2), GEN(3)])
PROGRAMS = st.lists(ATOMS, max_size=3).map(lambda w: ShiftProgram(tuple(w)))
# 4 and 8 take raw words, 2**32 takes them unshifted (sampling depth 1),
# 2**33 takes the bounded 64-bit draw
CONSTANT_BASES = [Q2, Q3, QSequence.constant(4), QSequence.constant(8),
                  QSequence.constant(2**32), QSequence.constant(2**33)]
BASES = st.sampled_from(CONSTANT_BASES + [QSequence.periodic([2, 3]),
                                          QSequence.explicit([3, 2, 4])])
FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=50)


@st.composite
def mc_specs(draw, bases=BASES, kinds=("const", "x", "z", "tie")):
    """Specs over `bases` with a threshold of one of `kinds`: a constant,
    `ProgramOnX` or `ProgramOnZ` one.  A "tie" threshold has as many
    atoms as the left side, so over a constant base the two image
    denominators are equal and a tie has positive mass."""
    q = draw(bases)
    # a base of 2**32 or more samples one digit, which a program of z may
    # not consume
    programs_of_z = st.just(ShiftProgram(())) if q.at(1) >= 2**32 else PROGRAMS
    lhs = draw(programs_of_z)
    relation = draw(st.sampled_from(["lt", "ge"]))
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        rhs = ConstRhs(draw(FRACTIONS))
    elif kind == "x":
        rhs = ProgramOnX(draw(PROGRAMS), draw(FRACTIONS))
    elif kind == "z":
        rhs = ProgramOnZ(draw(programs_of_z))
    else:
        size = len(lhs.word)
        rhs = ProgramOnZ(ShiftProgram(tuple(draw(st.lists(ATOMS, min_size=size,
                                                          max_size=size)))))
    return GKSetSpec(q, lhs, rhs, relation)


TIE_SPECS = {
    "tie-q3": (Q3, (GEN(2), GEN(3)), (SIGMA, SIGMA)),
    "gen2-vs-sigma-q2": (Q2, (GEN(2),), (SIGMA,)),
}


def tie_spec(name, relation):
    q, lhs, rhs = TIE_SPECS[name]
    return GKSetSpec(q, ShiftProgram(lhs), ProgramOnZ(ShiftProgram(rhs)), relation)


class TestSamplingKernel:
    @settings(max_examples=120, deadline=None)
    @given(spec=mc_specs(), samples=st.integers(1, 3000), seed=st.integers(0, 2**31),
           chunk=st.sampled_from([None, 7, 500]),
           # a sample of 1 to 3 free digits has a cylinder far wider than
           # the float band
           extra=st.one_of(st.integers(1, 3), st.integers(1, 32)))
    def test_matches_column_loop(self, spec, samples, seed, chunk, extra):
        kw = {} if chunk is None else {"chunk": chunk}
        if chunk == 7:
            samples = min(samples, 100)
        want = measure_mc_by_columns(spec, samples, seed, extra, **kw)
        with mock.patch.object(gk_module, "_MC_CHUNK", chunk or gk_module._MC_CHUNK):
            assert measure_mc(spec, samples, seed, extra) == want

    @pytest.mark.parametrize("q", [QSequence.periodic([2, 3]), QSequence((3, 2, 4), (5, 2, 7)),
                                   QSequence.constant(4)], ids=["2-3", "3-2-4+5-2-7", "4"])
    @pytest.mark.parametrize("samples", [1, 13, 17, 99])
    def test_odd_chunks_hand_the_buffered_half_on(self, q, samples):
        # chunks of 7 samples: a raw-word row draws 7 words and leaves a
        # buffered half, which the next row (bounded or raw) takes first;
        # in a last chunk of 1 or 3 samples, 7 or 2 raw rows share a draw
        spec = GKSetSpec(q, ShiftProgram((SIGMA,)), ProgramOnZ(ShiftProgram((GEN(2),))))
        want = measure_mc_by_columns(spec, samples, 11, 20, chunk=7)
        with mock.patch.object(gk_module, "_MC_CHUNK", 7):
            assert measure_mc(spec, samples, 11, 20) == want

    @staticmethod
    def count_words(drawn):
        """A stand-in for `_words32` that records each draw's size."""
        real = gk_module._words32

        def words(rng, n):
            drawn.append(n)
            return real(rng, n)
        return words

    def test_last_chunk_stops_once_every_sample_is_decided(self):
        # each digit of the shifted image decides about half the samples
        # still open against 1/3, so all 20000 are decided well before
        # the 33rd row
        spec, drawn = shift_below(Q2, 1, F(1, 3)), []
        with mock.patch.object(gk_module, "_words32", self.count_words(drawn)):
            r = measure_mc(spec, 20000, 5)
        assert r.depth == 33 and sum(drawn) <= 2 * 33 * 20000 // 3
        assert r == measure_mc_by_columns(spec, 20000, 5)

    def test_other_chunks_pass_every_row(self):
        # chunks of 7 samples: the next chunk reads the stream after all
        # 33 rows of 7 words.  A chunk draws rows until its samples are
        # decided and passes each remaining row with its own `_skip32` of
        # 7 words, whose odd count draws one word to buffer a half; the
        # last chunk of 3 draws two rows at a time and stops
        spec, drawn, skipped = shift_below(Q2, 1, F(1, 3)), [], []
        real = gk_module._skip32

        def skip(rng, n):
            skipped.append(n)
            real(rng, n)

        with mock.patch.object(gk_module, "_MC_CHUNK", 7), \
                mock.patch.object(gk_module, "_words32", self.count_words(drawn)), \
                mock.patch.object(gk_module, "_skip32", skip):
            r = measure_mc(spec, 5 * 7 + 3, 11)
        assert r == measure_mc_by_columns(spec, 5 * 7 + 3, 11, chunk=7)
        assert len(skipped) == 137 and set(skipped) == {7} and set(drawn) == {1, 6, 7}
        assert 7 * drawn.count(7) + sum(skipped) == 5 * 33 * 7
        assert drawn.count(7) < 5 * 33 // 2

    @pytest.mark.parametrize("base, relation, hits", [
        ("2", "lt", (46722, 46557)), ("2", "ge", (93279, 93444)),
        ("2-3", "lt", (69869, 70149)), ("2-3", "ge", (70132, 69852)),
    ])
    def test_decided_chunks_skip_their_rows(self, base, relation, hits):
        # 140001 samples: two chunks of 65536 are decided long before
        # their last row and pass the rest of their raw rows with
        # `advance`.  The hits at seeds 1 and 2 were recorded when every
        # row of those chunks was drawn, so the third chunk reads the
        # same stream
        if base == "2":
            spec = shift_below(Q2, 1, F(1, 3), relation)
        else:
            spec = GKSetSpec(QSequence.periodic([2, 3]), ShiftProgram((SIGMA,)),
                             ProgramOnZ(ShiftProgram((GEN(2),))), relation)
        drawn = []
        with mock.patch.object(gk_module, "_words32", self.count_words(drawn)):
            r = measure_mc(spec, 140001, 1)
        assert (r.hits, measure_mc(spec, 140001, 2).hits) == hits
        assert r == measure_mc_by_columns(spec, 140001, 1)
        # one word per raw digit: the call draws under 2/3 of them
        raw_rows = sum(v == 2 for v in spec.q.values(0, r.depth))
        assert sum(drawn) < 2 * raw_rows * 140001 // 3

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**63), before=st.integers(0, 3),
           n=st.integers(0, 5000) | st.integers(0, 8))
    def test_skip32_passes_the_uint32_draw(self, seed, before, n):
        # 0-3 words drawn first leave the generator with or without a
        # buffered half; the draws after the skip read the same stream
        def after(move):
            rng = np.random.default_rng(seed)
            rng.integers(0, 2**32, size=before, dtype=np.uint32)
            move(rng)
            return (int(rng.integers(0, 2**32, dtype=np.uint32)),
                    rng.integers(0, 3, size=5).tolist(), gk_module._words32(rng, 3).tolist())

        assert (after(lambda rng: gk_module._skip32(rng, n))
                == after(lambda rng: rng.integers(0, 2**32, size=n, dtype=np.uint32)))

    def test_memory_stays_within_a_few_rows(self):
        # 65536 samples at depth 62: a (depth x samples) int64 block alone
        # is 32 MiB; the row sums hold a few buffers of one row each
        spec = shift_below(Q2, 1, F(1, 3))
        measure_mc(spec, 10, 0)  # numpy's own first-call allocations
        tracemalloc.start()
        try:
            r = measure_mc(spec, 65536, 1, extra_depth=61)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.depth == 62 and peak < 8 * 2**20

    @pytest.mark.parametrize("name", sorted(TIE_SPECS))
    def test_tied_samples_count_as_ge(self, name):
        lt = measure_mc(tie_spec(name, "lt"), samples=20000, seed=1)
        ge = measure_mc(tie_spec(name, "ge"), samples=20000, seed=2)
        se = (lt.std_err ** 2 + ge.std_err ** 2) ** 0.5
        assert abs(lt.estimate + ge.estimate - 1) <= 4 * se

    def test_tie_q3_ge_measure(self):
        # the tie {GEN(2) GEN(3) z = z shifted twice} has measure 1/9 and
        # belongs to "ge": 4/9 + 1/9
        r = measure_mc(tie_spec("tie-q3", "ge"), samples=20000, seed=3)
        assert abs(r.estimate - 5 / 9) <= 4 * r.std_err

    def test_tie_counts_on_a_wide_cylinder(self):
        # one free digit: 1/dl is far wider than the float band, so only
        # the tie rule can count the tied samples
        spec = tie_spec("tie-q3", "ge")
        lt = measure_mc(tie_spec("tie-q3", "lt"), samples=5000, seed=4, extra_depth=1)
        ge = measure_mc(spec, samples=5000, seed=4, extra_depth=1)
        assert ge.depth == spec.required_depth + 1
        assert lt.hits + ge.hits <= 5000
        assert abs(ge.estimate - 5 / 9) <= 4 * ge.std_err


# ---------------------------------------------------------------------------
# The difference walk
# ---------------------------------------------------------------------------

def measure_bounds_by_position(spec, depth):
    """The cylinder walk before it tracked the scaled difference: both
    image numerators, digit positions in order, only positions neither
    side reads collapsed.  A leaf of a program threshold over an equal
    denominator whose two numerators are equal is a tie: both images
    share one tail, so it lies inside "ge".  A test oracle for
    `measure_bounds`."""
    req = spec.required_depth
    if depth < req + 1:
        raise InsufficientDepthError(
            f"depth {depth} too shallow: programs consume {req} digits, "
            f"need depth >= {req + 1}", required=req + 1)
    q = spec.q
    qv = [q.at(i) for i in range(1, depth + 1)]
    wl, dl = _image_weights(spec.lhs.word, qv)
    wr, base_r, dr, tail_r = gk_module._resolve_rhs(spec, qv)
    rem_l = [0] * (depth + 1)
    rem_r = [0] * (depth + 1)
    leaves = [0] * (depth + 1)
    leaves[depth] = 1
    for i in range(depth - 1, -1, -1):
        rem_l[i] = rem_l[i + 1] + (qv[i] - 1) * wl[i]
        rem_r[i] = rem_r[i + 1] + (qv[i] - 1) * wr[i]
        leaves[i] = leaves[i + 1] * qv[i]
    want_lt = spec.relation == "lt"
    tie = isinstance(spec.rhs, ProgramOnZ) and dl == dr
    inside = straddle = 0
    stack = [(0, 0, base_r, 1)]
    while stack:
        i, acc_l, acc_r, mult = stack.pop()
        if (acc_l + rem_l[i] + 1) * dr <= acc_r * dl:
            if want_lt:
                inside += mult * leaves[i]
        elif acc_l * dr >= (acc_r + rem_r[i] + tail_r) * dl:
            if not want_lt:
                inside += mult * leaves[i]
        elif i == depth and tie and acc_l == acc_r:
            if not want_lt:
                inside += mult
        elif i == depth:
            straddle += mult
        elif wl[i] == 0 and wr[i] == 0:
            stack.append((i + 1, acc_l, acc_r, mult * qv[i]))
        else:
            for c in range(qv[i]):
                stack.append((i + 1, acc_l + c * wl[i], acc_r + c * wr[i], mult))
    total = leaves[0]
    return gk_module.MeasureBounds(F(inside, total), F(inside + straddle, total),
                                   depth, F(total - straddle, total))


def measure_bounds_by_leaf(spec, depth):
    """Classify every rank-`depth` cylinder on its own.  Each image
    interval runs from the program applied to the cylinder's digits
    followed by zeros to the same digits followed by maximal digits.
    Two equal intervals of two programs of z are the same image over
    the whole cylinder, so that tie lies inside "ge"."""
    q = spec.q

    def image(program, digits):
        return tuple(eval_prefix(apply_program(program, DigitString(q, digits, tail), q))
                     for tail in (ZERO_TAIL, MAX_TAIL))

    rhs = spec.rhs
    if isinstance(rhs, ConstRhs):
        fixed = (rhs.value, rhs.value)
    elif isinstance(rhs, ProgramOnX):
        v = apply_program(rhs.program, rhs.x, q)
        fixed = (v, v)
    inside = straddle = total = 0
    for digits in itertools.product(*(range(q.at(i)) for i in range(1, depth + 1))):
        lo_l, hi_l = image(spec.lhs, digits)
        lo_r, hi_r = image(rhs.program, digits) if isinstance(rhs, ProgramOnZ) else fixed
        total += 1
        if hi_l <= lo_r:
            inside += spec.relation == "lt"
        elif lo_l >= hi_r or isinstance(rhs, ProgramOnZ) and (lo_l, hi_l) == (lo_r, hi_r):
            inside += spec.relation == "ge"
        else:
            straddle += 1
    return gk_module.MeasureBounds(F(inside, total), F(inside + straddle, total),
                                   depth, F(total - straddle, total))


def outcome(call, *args):
    """The result of a call, or the type, message and `required` of the
    package error it raised."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "required", None)


WALK_BASES = st.sampled_from([Q2, Q3, QSequence.periodic([2, 3]),
                              QSequence.explicit([3, 2, 4, 2])])
WALK_WORDS = st.lists(st.sampled_from([SIGMA] + [GEN(m) for m in range(1, 6)]),
                      max_size=4).map(lambda w: ShiftProgram(tuple(w)))


@st.composite
def walk_specs(draw):
    q = draw(WALK_BASES)
    kind = draw(st.sampled_from(["const", "x", "z"]))
    if kind == "const":
        rhs = ConstRhs(draw(st.fractions(min_value=-1, max_value=2, max_denominator=40)))
    elif kind == "x":
        rhs = ProgramOnX(draw(WALK_WORDS), draw(FRACTIONS))
    else:
        rhs = ProgramOnZ(draw(WALK_WORDS))
    return GKSetSpec(q, draw(WALK_WORDS), rhs, draw(st.sampled_from(["lt", "ge"])))


class TestWalk:
    @settings(max_examples=300, deadline=None)
    @given(spec=walk_specs(), extra=st.integers(-1, 9))
    def test_matches_walk_by_position(self, spec, extra):
        # depths below required_depth + 1 compare the refusals
        depth = spec.required_depth + extra
        assert outcome(measure_bounds, spec, depth) == \
            outcome(measure_bounds_by_position, spec, depth)

    @settings(max_examples=100, deadline=None)
    @given(spec=walk_specs(), depth=st.integers(1, 8))
    def test_matches_leaf_by_leaf(self, spec, depth):
        assume(spec.required_depth < depth)
        assume(spec.q.partial_product(depth) <= 1000)
        assert measure_bounds(spec, depth) == measure_bounds_by_leaf(spec, depth)

    @pytest.mark.parametrize("name", sorted(TIE_SPECS))
    @pytest.mark.parametrize("relation", ["lt", "ge"])
    def test_tie_specs_match_walk_by_position(self, name, relation):
        # the tie tails past required_depth are the positions left out
        spec = tie_spec(name, relation)
        depth = spec.required_depth + 6
        assert measure_bounds(spec, depth) == measure_bounds_by_position(spec, depth)


# the "tie" kind of `mc_specs` over a constant base: every spec has two
# equal image denominators
TIE_KIND = mc_specs(st.sampled_from(CONSTANT_BASES), ("tie",))


def with_relation(spec, relation):
    return GKSetSpec(spec.q, spec.lhs, spec.rhs, relation)


class TestTies:
    """Over an equal denominator both images of a rank-d cylinder past
    `required_depth` share one tail, so a tied cylinder lies inside "ge"
    and no cylinder straddles."""

    @settings(max_examples=150, deadline=None)
    @given(spec=TIE_KIND)
    def test_bracket_is_exact_at_every_depth(self, spec):
        for relation in ("lt", "ge"):
            s = with_relation(spec, relation)
            near, far = (measure_bounds(s, s.required_depth + extra) for extra in (1, 5))
            assert near.lower == near.upper == far.lower == far.upper
            assert near.decided_mass == far.decided_mass == 1

    @settings(max_examples=150, deadline=None)
    @given(spec=TIE_KIND, extra=st.integers(1, 5))
    def test_relations_sum_to_one(self, spec, extra):
        lt, ge = (measure_bounds(with_relation(spec, relation), spec.required_depth + extra)
                  for relation in ("lt", "ge"))
        assert lt.lower + ge.lower == lt.upper + ge.upper == 1

    @settings(max_examples=60, deadline=None)
    @given(spec=TIE_KIND)
    def test_sampler_agrees_with_the_exact_value(self, spec):
        for relation in ("lt", "ge"):
            s = with_relation(spec, relation)
            exact = measure_bounds(s, s.required_depth + 1).lower
            r = measure_mc(s, 4000, 1)
            assert abs(r.estimate - exact) <= 4 * r.std_err

    @settings(max_examples=100, deadline=None)
    @given(q=WALK_BASES, word=WALK_WORDS, extra=st.integers(1, 6))
    def test_a_program_against_itself(self, q, word, extra):
        # every cylinder is a tie: the lt set is empty
        for relation, value in (("lt", 0), ("ge", 1)):
            spec = GKSetSpec(q, word, ProgramOnZ(word), relation)
            b = measure_bounds(spec, spec.required_depth + extra)
            assert (b.lower, b.upper, b.decided_mass) == (value, value, 1)


def run_cli(*argv):
    """Run the CLI in a fresh interpreter; a walk that turns exponential
    again fails on the timeout instead of hanging the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cantorshift.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys; from cantorshift.cli import main; sys.exit(main({list(argv)!r}))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30, env=env)


def program_json(word):
    return ShiftProgram(word).to_json()


class TestDeepWalks:
    """Specs whose cost grew exponentially with depth or family step
    while the walk went by position."""

    @pytest.mark.parametrize("name, depth, want", [
        ("tie-q3", 60, '{"decided_mass": "1/1", "depth": 60, "lower": "4/9", "upper": "4/9"}'),
        ("gen2-vs-sigma-q2", 40, '{"decided_mass": "1/1", "depth": 40, "lower": "1/4", "upper": "1/4"}'),
    ], ids=["tie-q3", "gen2-vs-sigma-q2"])
    def test_tie_bounds(self, name, depth, want):
        q, lhs, rhs = TIE_SPECS[name]
        spec = {"q": q.to_json(), "lhs": program_json(lhs),
                "rhs": {"programOnZ": program_json(rhs)}}
        r = run_cli("gk", "bounds", "--depth", str(depth), "--spec", json.dumps(spec))
        assert (r.returncode, r.stdout, r.stderr) == (0, want + "\n", "")

    def test_affine_scan_against_a_shift(self):
        r = run_cli("gk", "scan", "--q", "2",
                    "--family", '{"kind": "affine", "a": 1, "b": 1}',
                    "--rhs", json.dumps({"programOnZ": program_json((SIGMA,))}),
                    "--params", "10:13")
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout == ("n,lower,upper,decided_mass\n"
                            "10,32767/65536,32769/65536,32767/32768\n"
                            "11,65535/131072,65537/131072,65535/65536\n"
                            "12,131071/262144,131073/262144,131071/131072\n"
                            "13,262143/524288,262145/524288,262143/262144\n")


# ---------------------------------------------------------------------------
# Families and scans
# ---------------------------------------------------------------------------

class TestScans:
    def test_sigma_family_all_exact(self):
        fam = sigma_family(Q2, F(1, 4))
        rows = limit_scan(fam, range(1, 6))
        assert all(r.error is None for r in rows)
        assert all(r.bounds.lower == r.bounds.upper == F(1, 4) for r in rows)

    def test_admission_rule_rows(self):
        fam = generator_family(
            Q2, {"kind": "mod-filter", "m": 2, "c": 3}, ConstRhs(F(1, 2)))
        rows = limit_scan(fam, range(1, 8))
        ok = {r.param for r in rows if r.error is None}
        bad = {r.param for r in rows if r.error is not None}
        assert ok == {1, 4, 7} and bad == {2, 3, 5, 6}
        for r in rows:
            assert (r.bounds is None) == (r.error is not None)

    def test_admitted_rows_uniform_value(self):
        # repeated position-2 deletions keep the image uniform
        fam = generator_family(
            Q2, {"kind": "const-repeat", "m": 2}, ConstRhs(F(1, 2)))
        for r in limit_scan(fam, range(1, 5)):
            assert r.bounds.lower == r.bounds.upper == F(1, 2)

    def test_parameter_count_capped_before_any_row(self, monkeypatch):
        fam = sigma_family(Q2, F(1, 4))
        for params in (range(1, 10**12), itertools.count(1)):
            with pytest.raises(DomainError, match="limit of 100000$"):
                limit_scan(fam, params)
        monkeypatch.setattr(gk_module, "MAX_PARAMS", 3)
        assert len(limit_scan(fam, range(1, 4))) == 3
        monkeypatch.setattr(gk_module, "measure_bounds", None)
        with pytest.raises(DomainError, match="limit of 3"):
            limit_scan(fam, [1, 2, 3, 4])

    def test_parameters_are_integers_read_before_any_row(self, monkeypatch):
        fam = sigma_family(Q2, F(1, 3))
        assert limit_scan(fam, [2.0]) == limit_scan(fam, [2])
        assert limit_scan(fam, [2])[0].param == 2
        monkeypatch.setattr(gk_module, "measure_bounds", None)
        with pytest.raises(DomainError) as info:
            limit_scan(fam, [2, 2.5])
        assert str(info.value) == "expected an integer, got 2.5"

    def test_custom_depth_rule(self):
        fam = sigma_family(Q2, F(1, 3))
        rows = limit_scan(fam, [2], depth_rule=lambda n: n + 4)
        assert rows[0].bounds.depth == 6

    def test_family_relation_passthrough(self):
        fam = sigma_family(Q2, F(1, 4), relation="ge")
        rows = limit_scan(fam, [1])
        assert rows[0].bounds.lower == rows[0].bounds.upper == F(3, 4)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_round_trip_each_rhs(self):
        specs = [
            shift_below(Q2, 2, F(1, 3)),
            GKSetSpec(Q3, ShiftProgram((GEN(2), SIGMA)),
                      ProgramOnZ(ShiftProgram.identity()), relation="ge"),
            GKSetSpec(Q2, ShiftProgram.sigma_power(1),
                      ProgramOnX(ShiftProgram.sigma_power(2), F(5, 16))),
        ]
        for spec in specs:
            assert GKSetSpec.from_json(spec.to_json()) == spec

    def test_rhs_json_rejects_unknown(self):
        with pytest.raises(DomainError):
            rhs_from_json({"mystery": 1})
        with pytest.raises(DomainError):
            rhs_from_json("1/2")

    def test_relation_validated(self):
        with pytest.raises(DomainError):
            GKSetSpec(Q2, ShiftProgram.identity(), ConstRhs(F(1, 2)),
                      relation="le")

    def test_required_depth_covers_both_sides(self):
        spec = GKSetSpec(Q2, ShiftProgram.sigma_power(1),
                         ProgramOnZ(ShiftProgram((GEN(3),))))
        assert spec.required_depth == 3
