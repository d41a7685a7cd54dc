"""Workload `gk`: measure brackets and sampling estimates for sets
{z : P(z) < R}, plus family scans.

The right side is a constant, a program of z (`ProgramOnZ`) or a program
applied to a fixed rational (`ProgramOnX`).  Constant-rhs specs cost
about 0.1 ms and predict no change from any walk change.  `ProgramOnX`
calls into shifts on rationals with periods up to a few thousand.  Two
`ProgramOnZ` specs have a boundary of positive mass (the q=3 tie
GEN(2) GEN(3) against two shifts, and GEN(2) against one shift at q=2):
their bracket never narrows and the walk grows about 9x per 2 digits
of depth, which is what exact tie handling (ROADMAP item 4) targets.
Affine scan rows against a shift double in cost per k.

Any deletion program maps uniform digits to uniform digits, so the true
measure of {P(z) < c} is c: constant and `ProgramOnX` brackets are
checked against exact values.  `ProgramOnZ` brackets are checked for
overlap with brackets recorded by record_reference.py.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction as F

from harness import BENCH_DIR, DEN_CYCLE, Op, log_uniform_den
from oracle import Base, program_value, required_depth

NAME = "gk"
TAIL_PCT = 99
MC_SAMPLES = 20000
MAX_DEN = 4096

S = ("sigma",)
BASES = {"2": ((), (2,)), "3": ((), (3,)), "periodic-2-3": ((), (2, 3))}
WORDS = [[S], [S, S, S], [("gen", 2)], [("gen", 3), S], [S, ("gen", 2), S], [("gen", 2), ("gen", 2)]]

# ProgramOnZ specs: name -> (base, lhs, rhs, depth range for measure_bounds)
POOL = {
    "sigma-vs-id-q2": ("2", [S], [], (12, 24)),
    "sigma2-vs-sigma-p23": ("periodic-2-3", [S, S], [S], (8, 20)),
    "gen3-vs-id-q3": ("3", [("gen", 3)], [], (8, 20)),
    "gen2-vs-sigma-q2": ("2", [("gen", 2)], [S], (6, 14)),
    "tie-q3": ("3", [("gen", 2), ("gen", 3)], [S, S], (6, 12)),
}
AFFINE = {"rule": {"kind": "affine", "a": 1, "b": 1}, "rhs": [S], "k": (6, 10)}
MOD_FILTER = {"rule": {"kind": "mod-filter", "m": 2, "c": 3}, "params": list(range(1, 8))}

# per pass
CONST_BOUNDS = 8
X_BOUNDS = 6
MC_PAIRS = {"const": 2, "x": 2, "z": 1}
SCANS = {"affine": 1, "mod-filter": 2}
RATIONALS_PER_PASS = CONST_BOUNDS + X_BOUNDS + MC_PAIRS["const"] + MC_PAIRS["x"] + SCANS["mod-filter"]

REFERENCE = os.path.join(BENCH_DIR, "gk_reference.json")
REGRESSION = "tie-q3"


def make_spec(seed: int) -> dict:
    return {"seed": seed, "bases": BASES, "words": WORDS, "pool": POOL}


def build(spec: dict) -> "GK":
    import cantorshift as cs
    qs = {name: cs.QSequence(tuple(h), tuple(c)) for name, (h, c) in spec["bases"].items()}
    progs = [_program(cs, w) for w in spec["words"]]
    pool = {}
    for name, (base, lhs, rhs, _) in spec["pool"].items():
        pool[name] = {rel: cs.GKSetSpec(qs[base], _program(cs, lhs),
                                        cs.ProgramOnZ(_program(cs, rhs)), rel)
                      for rel in ("lt", "ge")}
    return GK(cs, spec, qs, progs, pool)


def _program(cs, word):
    return cs.ShiftProgram(tuple(cs.SIGMA if a[0] == "sigma" else cs.GEN(a[1]) for a in word))


def _bracket(pair):
    return F(pair[0]), F(pair[1])


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _rational(rng: random.Random, i: int) -> F:
    d = log_uniform_den(i, 3, MAX_DEN)
    return F(rng.randrange(1, d), d)


class GK:
    name = NAME
    tail_pct = TAIL_PCT

    def __init__(self, cs, spec, qs, progs, pool):
        self.cs = cs
        self.seed = spec["seed"]
        self.qs = qs
        self.refs = {name: Base(h, c) for name, (h, c) in spec["bases"].items()}
        self.words = [[tuple(a) for a in w] for w in spec["words"]]
        self.progs = progs
        self.pool = pool
        self.depths = {name: tuple(v[3]) for name, v in spec["pool"].items()}
        ref = load_reference()
        self.recorded = {name: {rel: _bracket(v[rel]) for rel in ("lt", "ge")}
                         for name, v in ref["pool"].items()}
        self.positive = {name: v["positive_boundary"] for name, v in ref["pool"].items()}
        self.affine_ref = {int(k): _bracket(v) for k, v in ref["affine"].items()}
        self.regression = [self._mc_pair_op(self.pool[REGRESSION], self.recorded[REGRESSION],
                                            seed=1, label=f"measure_mc lt+ge ({REGRESSION})")]

    # -- inputs -----------------------------------------------------------

    def _const_spec(self, rng, shape):
        base = shape.choice(sorted(self.qs))
        w = shape.randrange(len(self.words))
        c = _rational(rng, self._next())
        rel = shape.choice(("lt", "ge"))
        spec = self.cs.GKSetSpec(self.qs[base], self.progs[w], self.cs.ConstRhs(c), rel)
        return spec, {"lt": (c, c), "ge": (1 - c, 1 - c)}, required_depth(self.words[w])

    def _x_spec(self, rng, shape):
        base = shape.choice(("2", "3"))
        w, v = shape.randrange(len(self.words)), shape.randrange(len(self.words))
        x = _rational(rng, self._next())
        val = program_value(self.words[v], x, self.refs[base])[0]
        rel = shape.choice(("lt", "ge"))
        rhs = self.cs.ProgramOnX(self.progs[v], x)
        spec = self.cs.GKSetSpec(self.qs[base], self.progs[w], rhs, rel)
        return spec, {"lt": (val, val), "ge": (1 - val, 1 - val)}, required_depth(self.words[w])

    def _next(self) -> int:
        self._index += 1
        return self._index

    def pass_ops(self, p: int) -> list:
        rng = random.Random(f"{self.seed}/gk/{p}")
        # `shape` draws what sets an op's cost (bases, programs, relations,
        # depths) and does not depend on the seed; the seed draws the
        # rationals, the sampling seeds and the op order
        shape = random.Random(f"gk/{p}")
        self._index = (p % DEN_CYCLE) * RATIONALS_PER_PASS
        ops = []
        for rhs, make, count in (("const", self._const_spec, CONST_BOUNDS),
                                 ("x", self._x_spec, X_BOUNDS)):
            for _ in range(count):
                spec, truth, req = make(rng, shape)
                depth = req + shape.randint(4, 12)
                ops.append(self._bounds_op(spec, truth[spec.relation], depth, rhs))
        # depths and scan lengths cycle: their cost grows geometrically
        for name, specs in self.pool.items():
            lo, hi = self.depths[name]
            for i, (rel, spec) in enumerate(specs.items()):
                depth = lo + (2 * p + i) % (hi - lo + 1)
                ops.append(self._bounds_op(spec, self.recorded[name][rel], depth, name))
        for kind, count in MC_PAIRS.items():
            for _ in range(count):
                if kind == "z":
                    name = shape.choice([n for n in self.pool if not self.positive[n]])
                    pair, truth = self.pool[name], self.recorded[name]
                else:
                    make = self._const_spec if kind == "const" else self._x_spec
                    spec, truth, _ = make(rng, shape)
                    pair = {rel: self.cs.GKSetSpec(spec.q, spec.lhs, spec.rhs, rel)
                            for rel in ("lt", "ge")}
                    name = kind
                ops.append(self._mc_pair_op(pair, truth, rng.randrange(2**31),
                                            label=f"measure_mc lt+ge ({name})", tag=kind))
        lo, hi = AFFINE["k"]
        for i in range(SCANS["affine"]):
            ops.append(self._affine_op(lo + (SCANS["affine"] * p + i) % (hi - lo + 1)))
        for _ in range(SCANS["mod-filter"]):
            ops.append(self._mod_filter_op(_rational(rng, self._next())))
        rng.shuffle(ops)
        return ops

    def shares(self) -> dict:
        """Share of measure_bounds ops per pass whose set has a boundary of
        positive mass (recorded: the bracket does not narrow with depth)."""
        z_ops = 2 * len(self.pool)
        positive = 2 * sum(self.positive.values())
        return {"positive_boundary": positive / (CONST_BOUNDS + X_BOUNDS + z_ops)}

    # -- ops --------------------------------------------------------------

    def _bounds_op(self, spec, truth, depth, name):
        lo, hi = truth

        def check(b):
            return b.depth == depth and b.lower <= hi and lo <= b.upper and b.lower <= b.upper

        return Op(f"measure_bounds[{name}]", lambda: self.cs.measure_bounds(spec, depth), check,
                  label=f"measure_bounds({name}, {spec.relation}, depth {depth})")

    def _mc_pair_op(self, pair, truth, seed, label, tag="z"):
        cs = self.cs

        def call():
            return (cs.measure_mc(pair["lt"], MC_SAMPLES, seed),
                    cs.measure_mc(pair["ge"], MC_SAMPLES, seed + 1))

        def check(res):
            for r, rel in zip(res, ("lt", "ge")):
                lo, hi = truth[rel]
                if not lo - 5 * r.std_err <= r.estimate <= hi + 5 * r.std_err:
                    return False
            se = math.hypot(res[0].std_err, res[1].std_err)
            return abs(res[0].estimate + res[1].estimate - 1) <= 5 * se + 1e-9

        return Op(f"measure_mc[{tag}]", call, check, label=label)

    def _affine_op(self, k):
        cs = self.cs
        fam = cs.generator_family(self.qs["2"], AFFINE["rule"],
                                  cs.ProgramOnZ(_program(cs, AFFINE["rhs"])))
        lo, hi = self.affine_ref[k]

        def check(rows):
            b = rows[0].bounds
            return len(rows) == 1 and b is not None and b.lower <= hi and lo <= b.upper

        return Op("limit_scan[affine]", lambda: cs.limit_scan(fam, [k]), check,
                  label=f"limit_scan(affine, k={k})")

    def _mod_filter_op(self, c):
        cs = self.cs
        fam = cs.generator_family(self.qs["2"], MOD_FILTER["rule"], cs.ConstRhs(c))
        params = MOD_FILTER["params"]
        admitted = [k % MOD_FILTER["rule"]["c"] == 1 for k in params]

        def check(rows):
            if [r.param for r in rows] != params:
                return False
            return all((r.bounds is not None and r.bounds.lower <= c <= r.bounds.upper)
                       if ok else (r.bounds is None and r.error)
                       for r, ok in zip(rows, admitted))

        return Op("limit_scan[mod-filter]", lambda: cs.limit_scan(fam, params), check,
                  label=f"limit_scan(mod-filter, c={c})")
