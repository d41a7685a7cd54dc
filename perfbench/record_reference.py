"""Record the reference brackets that the `gk` workload checks against.

    python3 perfbench/record_reference.py

Writes gk_reference.json: for every `ProgramOnZ` spec of the workload,
exact lt and ge brackets two digits deeper than the deepest depth the
workload asks for, and whether the boundary has positive mass (the
bracket did not narrow over the last two digits); for every affine scan
row, its bracket two digits deeper than the scan's default depth.  Any
correct bracket contains the true measure, so it overlaps these.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import wl_gk  # noqa: E402


def _pair(b):
    return [f"{b.lower.numerator}/{b.lower.denominator}",
            f"{b.upper.numerator}/{b.upper.denominator}"]


def main() -> None:
    import cantorshift as cs
    spec = wl_gk.make_spec(0)
    qs = {name: cs.QSequence(tuple(h), tuple(c)) for name, (h, c) in spec["bases"].items()}
    out = {"pool": {}, "affine": {}}
    for name, (base, lhs, rhs, (_, hi)) in wl_gk.POOL.items():
        row = {}
        for rel in ("lt", "ge"):
            s = cs.GKSetSpec(qs[base], wl_gk._program(cs, lhs),
                             cs.ProgramOnZ(wl_gk._program(cs, rhs)), rel)
            deep = cs.measure_bounds(s, hi + 2)
            shallow = cs.measure_bounds(s, hi)
            row[rel] = _pair(deep)
            row["positive_boundary"] = deep.width > shallow.width * 9 / 10
        out["pool"][name] = row
    fam = cs.generator_family(qs["2"], wl_gk.AFFINE["rule"],
                              cs.ProgramOnZ(wl_gk._program(cs, wl_gk.AFFINE["rhs"])))
    lo, hi = wl_gk.AFFINE["k"]
    for k in range(lo, hi + 1):
        s = fam(k)
        out["affine"][str(k)] = _pair(cs.measure_bounds(s, s.required_depth + 8))
    with open(wl_gk.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
