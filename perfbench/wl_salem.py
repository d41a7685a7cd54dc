"""Workload `salem`: digit-weight (Salem) function systems.

Systems: balanced (1/3, 2/3) and skewed (9/10, 1/10), (97/100, 3/100)
at q=2; a signed q=3 tuple; (1/3, 2/3) read in swap-pairs order; a
12-column matrix.  Half the points terminate in base q and close exactly
today, so exact periodic closure (ROADMAP item 3) predicts no change on
them; the other half are periodic and run the tolerance loop that item 3
replaces, where skewed weights need hundreds of series terms.  `mc_mean`
calls run beside the exact ones on the same systems; their digit block
(samples x terms) sets the workload's peak RSS.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from harness import DEN_CYCLE, Op, log_uniform_den
from oracle import salem_mean, salem_value

NAME = "salem"
TAIL_PCT = 99
TOL = F(1, 10**9)
MAX_DEN = 1024

# name -> (weights or columns, swap-pairs order, mc samples per call)
SYSTEMS = {
    "balanced": ([(1, 3), (2, 3)], False, 20000),
    "skewed-9/10": ([(9, 10), (1, 10)], False, 40000),
    "skewed-97/100": ([(97, 100), (3, 100)], False, 4000),
    "signed-q3": ([(3, 5), (-1, 5), (3, 5)], False, 10000),
    "swap-pairs": ([(1, 3), (2, 3)], True, 20000),
    "columns": ([[(k + 1, 2 * k + 3), (k + 2, 2 * k + 3)] for k in range(12)], False, 20000),
}

EVAL_POINTS = 6      # per system per pass, half terminating
RESIDUAL_POINTS = 2
TABLE_POINTS = 4
POINTS_PER_PASS = (EVAL_POINTS + RESIDUAL_POINTS + TABLE_POINTS) * len(SYSTEMS)

REGRESSION = {"x": (1, 3), "weights": [(999, 1000), (1, 1000)]}


def make_spec(seed: int) -> dict:
    return {"seed": seed, "systems": SYSTEMS}


def _fr(pair):
    return F(*pair)


def build(spec: dict) -> "Salem":
    import cantorshift as cs
    systems = {}
    for name, (w, swap, _) in spec["systems"].items():
        if isinstance(w[0][0], list):
            systems[name] = cs.SalemSystem.matrix([[_fr(p) for p in col] for col in w])
        else:
            reorder = cs.Reorder("rule", name="swap-pairs") if swap else cs.Reorder()
            systems[name] = cs.SalemSystem.fixed([_fr(p) for p in w], reorder=reorder)
    return Salem(cs, spec, systems)


def _point(rng: random.Random, shape: random.Random, q: int, terminating: bool,
           i: int) -> F:
    """A point terminating in base q, or the i-th periodic point."""
    if terminating:
        k = shape.randint(1, 12)
        return F(rng.randrange(1, q ** k), q ** k)
    d = log_uniform_den(i, 3, MAX_DEN)
    if _terminates(F(1, d), q):
        d += 1
    while True:
        x = F(rng.randrange(1, d), d)
        if x.denominator == d:
            return x


def _terminates(x: F, q: int) -> bool:
    den = x.denominator
    while den % q == 0:
        den //= q
    return den == 1


class Salem:
    name = NAME
    tail_pct = TAIL_PCT

    def __init__(self, cs, spec, systems):
        self.cs = cs
        self.seed = spec["seed"]
        self.systems = systems
        self.refs = {}
        for name, (w, swap, samples) in spec["systems"].items():
            if isinstance(w[0][0], list):
                ref = {"columns": [[_fr(p) for p in col] for col in w]}
            else:
                ref = {"weights": [_fr(p) for p in w], "swap_pairs": swap}
            self.refs[name] = (ref, samples)
        x = F(*REGRESSION["x"])
        weights = [_fr(p) for p in REGRESSION["weights"]]
        system = cs.SalemSystem.fixed(weights)
        want = salem_value(x, weights=weights)
        self.regression = [Op("evaluate", lambda: self.cs.evaluate(x, 2, system),
                              lambda r: abs(r.value - want) <= r.error_bound,
                              label=f"evaluate({x}, 2, (999/1000, 1/1000))")]

    def value(self, name, x):
        return salem_value(x, **self.refs[name][0])

    def inputs(self, p: int):
        rng = random.Random(f"{self.seed}/salem/{p}")
        shape = random.Random(f"salem/{p}")  # cost-setting draws, seed-free
        slots = []
        i = (p % DEN_CYCLE) * POINTS_PER_PASS
        for name, system in self.systems.items():
            q = system.q
            for n in range(EVAL_POINTS):
                i += 1
                slots.append(("evaluate", name, _point(rng, shape, q, n % 2 == 0, i), None))
            for n in range(RESIDUAL_POINTS):
                i += 1
                slots.append(("residual", name, _point(rng, shape, q, n % 2 == 0, i),
                              shape.randint(1, 4)))
            grid = []
            for n in range(TABLE_POINTS):
                i += 1
                grid.append(_point(rng, shape, q, n % 2 == 0, i))
            slots.append(("emit_table", name, grid, None))
            slots.append(("mc_mean", name, None, rng.randrange(2**31)))
        rng.shuffle(slots)
        return slots

    def pass_ops(self, p: int) -> list:
        return [self._op(*slot) for slot in self.inputs(p)]

    def shares(self, passes=range(4)) -> dict:
        points = terminating = 0
        for p in passes:
            for kind, name, x, _ in self.inputs(p):
                xs = x if kind == "emit_table" else [] if x is None else [x]
                q = self.systems[name].q
                points += len(xs)
                terminating += sum(_terminates(v, q) for v in xs)
        return {"terminating_points": terminating / points}

    def _op(self, kind, name, x, param):
        cs, system = self.cs, self.systems[name]
        q = system.q
        label = f"{kind}({name}, {x}, {param})"
        if kind in ("evaluate", "residual"):
            tag = f"{kind}[{'terminating' if _terminates(x, q) else 'periodic'}]"
        if kind == "evaluate":
            want = self.value(name, x)
            return Op(tag, lambda: cs.evaluate(x, q, system),
                      lambda r: abs(r.value - want) <= r.error_bound, label=label)
        if kind == "residual":
            # the k-th self-similarity equation holds up to both sides' bounds
            return Op(tag, lambda: cs.residual(x, q, system, param),
                      lambda r: abs(r) <= 2 * TOL, label=label)
        if kind == "emit_table":
            wants = [self.value(name, v) for v in x]

            def check(rows):
                return (len(rows) == len(x)
                        and all(r.x == v and abs(r.value - w) <= r.error_bound
                                for r, v, w in zip(rows, x, wants)))

            return Op(kind, lambda: cs.emit_table(system, x), check, label=label)
        ref, samples = self.refs[name]
        mean = float(salem_mean(**{k: v for k, v in ref.items() if k != "swap_pairs"}))
        return Op(kind, lambda: cs.mc_mean(system, samples, param),
                  lambda r: r.samples == samples
                  and abs(r.mean - mean) <= 5 * r.std_err + 1e-8, label=label)
