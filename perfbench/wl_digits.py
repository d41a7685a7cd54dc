"""Workload `digits`: the numeral and shifts layers on rationals and on
digit strings.

Cost on a rational input follows the period of its expansion, so the
inputs are rationals whose denominators are log-uniform from 3 to 4096,
over five bases.  The long-period rational ops form the latency tail
that a rational image kernel (ROADMAP item 2) targets.  About 40% of the
ops take `DigitString` inputs: that symbolic route never runs the
rational kernel, so the same change predicts no change on them.

Every pass draws fresh numerators, so inputs seldom repeat within a run.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import DEN_CYCLE, Op, log_uniform_den
from oracle import (Base, digits_value, expansion, frac_shift, gen_shift_value,
                    program_value)

NAME = "digits"
TAIL_PCT = 99
MAX_DEN = 4096

BASES = {
    "2": ((), (2,)),
    "3": ((), (3,)),
    "10": ((), (10,)),
    "periodic-2-3": ((), (2, 3)),
    "explicit-2-3-4": ((2, 3), (4,)),
}

PROGRAMS = [
    [("sigma",), ("gen", 3)],
    [("gen", 2), ("sigma",)],
    [("gen", 4), ("gen", 2)],
    [("sigma",), ("gen", 3), ("sigma",)],
    [("gen", 2), ("gen", 2), ("sigma",)],
    [("gen", 5)],
]

# (op kind, input route, slots per base per pass)
MIX = [
    ("expand", "rational", 2),
    ("expand_exact", "rational", 2),
    ("classify_rationality", "rational", 2),
    ("shift_n", "rational", 3),
    ("gen_shift", "rational", 2),
    ("apply_program", "rational", 2),
    ("reconstruct_identity", "rational", 2),
    ("shift_n", "digitstring", 4),
    ("gen_shift", "digitstring", 3),
    ("apply_program", "digitstring", 4),
]
NORMALIZE_PER_PASS = 10
SLOTS = sum(n for _, _, n in MIX) * len(BASES)

REGRESSION = {"x": (1, 80021), "base": "2", "n": 1}


def make_spec(seed: int) -> dict:
    return {"seed": seed, "bases": BASES, "programs": PROGRAMS}


def build(spec: dict) -> "Digits":
    import cantorshift as cs
    qs = {name: cs.QSequence(tuple(h), tuple(c)) for name, (h, c) in spec["bases"].items()}
    programs = [cs.ShiftProgram(tuple(_atom(cs, a) for a in word)) for word in spec["programs"]]
    return Digits(cs, spec, qs, programs)


def _atom(cs, a):
    return cs.SIGMA if a[0] == "sigma" else cs.GEN(a[1])


class Digits:
    name = NAME
    tail_pct = TAIL_PCT

    def __init__(self, cs, spec, qs, programs):
        self.cs = cs
        self.seed = spec["seed"]
        self.qs = qs
        self.refs = {name: Base(h, c) for name, (h, c) in spec["bases"].items()}
        self.programs = programs
        self.words = [[tuple(a) for a in w] for w in spec["programs"]]
        x = Fraction(*REGRESSION["x"])
        q, ref = qs[REGRESSION["base"]], self.refs[REGRESSION["base"]]
        n = REGRESSION["n"]
        self.regression = [Op("shift_n", lambda: self.cs.shift_n(x, q, n),
                              lambda r: r == frac_shift(x, ref, n),
                              label=f"shift_n({x}, 2, {n})")]

    def inputs(self, p: int):
        """(kind, route, base name, x, param) for every slot of pass p.

        `shape` draws what sets an op's cost and does not depend on the
        seed; the seed draws numerators and the op order."""
        rng = random.Random(f"{self.seed}/digits/{p}")
        shape = random.Random(f"digits/{p}")
        slots = []
        for kind, route, per_base in MIX:
            for name in self.qs:
                for _ in range(per_base):
                    d = log_uniform_den((p % DEN_CYCLE) * SLOTS + len(slots), 3, MAX_DEN)
                    x = Fraction(rng.randrange(1, d), d)
                    if kind in ("shift_n", "gen_shift", "reconstruct_identity"):
                        param = shape.randint(1, 8)
                    elif kind == "expand":
                        param = shape.randint(8, 64)
                    elif kind == "apply_program":
                        param = (p + len(slots)) % len(self.programs)
                    else:
                        param = None
                    slots.append((kind, route, name, x, param))
        rng.shuffle(slots)
        return rng, slots

    def pass_ops(self, p: int) -> list:
        rng, slots = self.inputs(p)
        ops = [self._op(*slot) for slot in slots]
        shape = random.Random(f"digits/normalize/{p}")
        for _ in range(NORMALIZE_PER_PASS):
            ops.insert(rng.randrange(len(ops) + 1), self._normalize_op(rng, shape))
        return ops

    def shares(self, passes=range(4)) -> dict:
        """Measured shares of the properties the ROADMAP fixes depend on."""
        total = long_period = symbolic = 0
        for p in passes:
            for kind, route, name, x, _ in self.inputs(p)[1]:
                total += 1
                symbolic += route == "digitstring"
                long_period += len(expansion(x, self.refs[name])[1]) > 256
        total += NORMALIZE_PER_PASS * len(passes)
        return {"period_gt_256": long_period / total, "digitstring": symbolic / total}

    # -- op construction --------------------------------------------------

    def _op(self, kind, route, name, x, param):
        cs, q, ref = self.cs, self.qs[name], self.refs[name]
        tag = f"{kind}[{route}]"
        label = f"{tag}({x}, {name}, {param})"
        if route == "digitstring":
            pre, per = expansion(x, ref)
            d = cs.DigitString(q, tuple(pre), cs.periodic_tail(per) if per else cs.ZERO_TAIL)
            if kind == "shift_n":
                want = frac_shift(x, ref, param)
                call = lambda: cs.shift_n(d, q, param)
            elif kind == "gen_shift":
                want = gen_shift_value(x, ref, param)
                call = lambda: cs.gen_shift(d, q, param)
            else:
                want = program_value(self.words[param], x, ref)[0]
                prog = self.programs[param]
                call = lambda: cs.apply_program(prog, d, q)
            return Op(tag, call, lambda r: _string_is(r, want), label=label)
        if kind == "expand":
            pre, per = expansion(x, ref)
            return Op(tag, lambda: cs.expand(x, q, param),
                      lambda r: _expand_ok(r, x, pre, per, param, ref), label=label)
        if kind == "expand_exact":
            return Op(tag, lambda: cs.expand_exact(x, q),
                      lambda r: r.tail.kind in ("zero", "periodic") and _string_is(r, x),
                      label=label)
        if kind == "classify_rationality":
            terminates = not expansion(x, ref)[1]
            return Op(tag, lambda: cs.classify_rationality(x, q),
                      lambda r: _classify_ok(r, x, terminates), label=label)
        if kind == "shift_n":
            want = frac_shift(x, ref, param)
            return Op(tag, lambda: cs.shift_n(x, q, param), lambda r: r == want, label=label)
        if kind == "reconstruct_identity":
            shifted = frac_shift(x, ref, param)
            return Op(tag, lambda: cs.reconstruct_identity(x, q, param),
                      lambda r: r.holds and r.rhs == x and r.shifted == shifted, label=label)
        if kind == "gen_shift":
            want = gen_shift_value(x, ref, param)
            call = lambda: cs.gen_shift(x, q, param)
            symbolic = lambda: cs.gen_shift(cs.expand_exact(x, q), q, param)
        else:
            want = program_value(self.words[param], x, ref)[0]
            prog = self.programs[param]
            call = lambda: cs.apply_program(prog, x, q)
            symbolic = lambda: cs.apply_program(prog, cs.expand_exact(x, q), q)
        # the rational route must agree with eval_prefix of the digit-string route
        return Op(tag, call, lambda r: r == want,
                  warm_check=lambda r: r == cs.eval_prefix(symbolic()), label=label)

    def _normalize_op(self, rng, shape):
        cs = self.cs
        word = [("sigma",) if shape.random() < 0.4 else ("gen", shape.randint(1, 4))
                for _ in range(shape.randint(3, 10))]
        prog = cs.ShiftProgram(tuple(_atom(cs, a) for a in word))
        d = rng.randint(3, MAX_DEN)
        x = Fraction(rng.randrange(1, d), d)
        ref = self.refs["2"]
        want = program_value(word, x, ref)[0]

        def check(r):
            out = [("sigma",) if a.kind == "sigma" else ("gen", a.index) for a in r.word]
            return program_value(out, x, ref)[0] == want

        return Op("normalize_program", lambda: cs.normalize_program(prog), check,
                  label=f"normalize_program({word})")


def _string_is(d, want: Fraction) -> bool:
    """The digit string is fully known and its exact value is `want`."""
    if d.tail.kind not in ("zero", "periodic"):
        return False
    return digits_value(d.prefix, d.tail.period, Base(d.base.prefix, d.base.cycle)) == want


def _expand_ok(d, x, pre, per, depth, ref) -> bool:
    digits = pre + per * (depth // max(len(per), 1) + 1) if per else pre + [0] * depth
    if list(d.prefix) != digits[:depth]:
        return False
    if d.tail.kind == "truncated":
        return True
    return _string_is(d, x)


def _classify_ok(r, x, terminates: bool) -> bool:
    if terminates:
        return r.kind == "q-rational" and _string_is(r.zero_form, x)
    return r.kind == "q-irrational" and _string_is(r.certificate, x)
