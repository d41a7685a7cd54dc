"""Complexity targets, pinned by what a call does rather than by timing.

- A constant or `ProgramOnX` bracket is counted from the left image
  denominator: it never builds the scaled difference the cylinder walk
  needs, so it returns even at `MAX_BOUNDS_DEPTH` with that helper gone,
  and its width is that of at most one image cylinder.
- Salem evaluation at a rational point sums one term per digit of the
  preperiod and of one period of its exact expansion.
- The cylinder walk of a tie spec (a program of z over an equal
  denominator) has as many positions to branch on past the digits the
  programs read as at the first free digit, so its tree does not grow
  with depth, and its bracket stays exact.
- Not met yet: a rational program image sums a number of series steps
  bounded by the word, not by the depth it reads.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import cantorshift.gausskuzmin as gk_module
import cantorshift.shifts as shifts_module
from cantorshift import (
    GEN,
    SIGMA,
    ConstRhs,
    GKSetSpec,
    ProgramOnX,
    ProgramOnZ,
    QSequence,
    SalemSystem,
    ShiftProgram,
    apply_program,
    evaluate,
    expand_exact,
    gen_shift,
    measure_bounds,
)
from cantorshift.errors import MAX_BOUNDS_DEPTH
from cantorshift.gausskuzmin import _image_weights, _scaled_difference
from test_gausskuzmin import tie_spec

BASES = st.sampled_from([QSequence.constant(2), QSequence.constant(3),
                         QSequence.constant(10), QSequence.periodic([2, 3]),
                         QSequence.explicit([3, 2, 4, 2])])
WORDS = st.lists(st.sampled_from([SIGMA] + [GEN(m) for m in range(1, 6)]),
                 max_size=4).map(lambda w: ShiftProgram(tuple(w)))
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=60)


@st.composite
def fixed_threshold_specs(draw):
    """(spec, c): a constant or `ProgramOnX` threshold and its value c."""
    q = draw(BASES)
    if draw(st.booleans()):
        c = draw(UNIT)
        rhs = ConstRhs(c)
    else:
        program, x = draw(WORDS), draw(UNIT)
        rhs = ProgramOnX(program, x)
        c = apply_program(program, x, q)
    return GKSetSpec(q, draw(WORDS), rhs, draw(st.sampled_from(["lt", "ge"]))), c


class TestCountedBrackets:
    @settings(max_examples=60, deadline=None)
    @given(case=fixed_threshold_specs(), deep=st.booleans())
    def test_no_walk_at_any_depth(self, case, deep):
        spec, c = case
        depth = MAX_BOUNDS_DEPTH if deep else spec.required_depth + 1
        D = _image_weights(spec.lhs.word, spec.q.values(0, depth))[1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gk_module, "_scaled_difference", None)
            b = measure_bounds(spec, depth)
        assert b.width == (0 if (c * D).denominator == 1 else F(1, D))
        assert b.decided_mass == 1 - b.width
        assert b.lower <= (c if spec.relation == "lt" else 1 - c) <= b.upper

    def test_a_program_of_z_still_walks(self, monkeypatch):
        spec = GKSetSpec(QSequence.constant(2), ShiftProgram((SIGMA,)),
                         ProgramOnZ(ShiftProgram(())))
        monkeypatch.setattr(gk_module, "_scaled_difference", None)
        with pytest.raises(TypeError):
            measure_bounds(spec, 4)


WEIGHTS = {q: st.lists(st.integers(1, 9), min_size=q, max_size=q).map(
    lambda raw: tuple(F(r, sum(raw)) for r in raw)) for q in (2, 3, 5)}


@st.composite
def salem_points(draw):
    q = draw(st.sampled_from(sorted(WEIGHTS)))
    den = draw(st.integers(1, 500))
    return q, draw(WEIGHTS[q]), F(draw(st.integers(0, den - 1)), den)


class TestSalemTerms:
    @settings(max_examples=200, deadline=None)
    @given(point=salem_points())
    def test_one_term_per_digit_of_prefix_and_period(self, point):
        q, w, x = point
        e = expand_exact(x, QSequence.constant(q))
        r = evaluate(x, q, SalemSystem.fixed(w))
        assert r.terms == len(e.prefix) + len(e.tail.period)


# (positions with e_s != 0, exact "lt" measure) of the tie specs
TIE_WALKS = {"tie-q3": (3, F(4, 9)), "gen2-vs-sigma-q2": (2, F(1, 4))}


class TestTieWalk:
    @pytest.mark.parametrize("name", TIE_WALKS)
    def test_branching_positions_do_not_grow_with_depth(self, name):
        # both images read the same tail past the programs' digits, so
        # every later position has e_s = 0 and the walk skips it
        spec, (nonzero, measure) = tie_spec(name, "lt"), TIE_WALKS[name]
        for extra in (1, 10, 50):
            depth = spec.required_depth + extra
            steps = _scaled_difference(spec, spec.q.values(0, depth))[0]
            assert sum(e != 0 for e in steps) == nonzero
            b = measure_bounds(spec, depth)
            assert (b.lower, b.upper, b.decided_mass) == (measure, measure, 1)


class TestRationalImageSteps:
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the run map sums one "
                       "series step per run of surviving digits, not per digit")
    @pytest.mark.parametrize("m", [10**3, 10**4])
    def test_deleting_one_digit_sums_a_few_steps(self, monkeypatch, m):
        counted = []
        real = shifts_module._series

        def series(steps):
            steps = list(steps)
            counted.append(len(steps))
            return real(steps)

        monkeypatch.setattr(shifts_module, "_series", series)
        gen_shift(F(1, 3), QSequence.constant(2), m)
        assert sum(counted) <= 8
