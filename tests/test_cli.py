"""End-to-end tests of the command-line interface.

Every test drives `main` directly with an argv list and inspects the
captured stdout/stderr plus the exit code, so the suite needs no
installed entry point.  Only the last tests start fresh interpreters, to
check what a new `cantorshift` process imports and prints.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cantorshift
import cantorshift.cli as cli
from cantorshift.cli import main
from cantorshift.errors import (
    MAX_BOUNDS_DEPTH, MAX_EXPAND_DEPTH, MAX_EXPONENT, MAX_PROBE, MAX_PROGRAM_DEPTH,
)
from test_readme import EXAMPLES as README_EXAMPLES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


SYSTEM = json.dumps({"q": 2, "p": ["1/3", "2/3"]})
SPEC = json.dumps({
    "q": 2,
    "lhs": {"word": [{"sigma": None}]},
    "rhs": {"programOnZ": {"word": []}},
    "relation": "lt",
})


# ---------------------------------------------------------------------------
# Digit arithmetic commands
# ---------------------------------------------------------------------------

class TestDigitCommands:
    def test_expand(self, capsys):
        out = run_json(capsys, "expand", "--x", "5/6", "--q",
                       json.dumps({"kind": "explicit", "values": [2, 3, 4]}), "--depth", "4")
        assert out["prefix"] == [1, 2, 0, 0]
        assert out["tail"] == "zero"
        assert out["value"] == "5/6"

    def test_expand_digits_only(self, capsys):
        code, out, err = run(capsys, "expand", "--x", "5/6", "--q",
                             json.dumps({"kind": "explicit", "values": [2, 3, 4]}),
                             "--depth", "4", "--digits")
        assert code == 0 and out.strip() == "1,2,0,0"

    def test_expand_periodic_tail(self, capsys):
        out = run_json(capsys, "expand", "--x", "1/3", "--q", "2", "--depth", "4")
        assert out["prefix"] == [0, 1, 0, 1]
        assert out["tail"] == {"periodic": [0, 1]}

    def test_evaluate(self, capsys):
        out = run_json(capsys, "evaluate", "--q", "2", "--prefix", "1,0,1")
        assert out["value"] == "5/8"

    def test_evaluate_truncated_gives_interval(self, capsys):
        out = run_json(capsys, "evaluate", "--q", "2", "--prefix", "1,0",
                       "--tail", json.dumps({"truncated": 2}))
        assert out["value"] == {"lo": "1/2", "hi": "3/4"}

    def test_classify(self, capsys):
        out = run_json(capsys, "classify", "--x", "3/4", "--q", "2")
        assert out["kind"] == "q-rational"
        assert "zero_form" in out and "max_form" in out
        out = run_json(capsys, "classify", "--x", "1/3", "--q", "2")
        assert out["kind"] == "q-irrational"
        assert "certificate" in out

    def test_cylinder(self, capsys):
        out = run_json(capsys, "cylinder", "--q", "2", "--digits", "1,0")
        assert out == {"digits": [1, 0], "rank": 2, "inf": "1/2",
                       "sup": "3/4", "measure": "1/4"}

    def test_shift_variants(self, capsys):
        q = json.dumps({"kind": "explicit", "values": [2, 3, 4]})
        assert run_json(capsys, "shift", "--x", "5/6", "--q", q,
                        "--n", "1")["value"] == "2/3"
        assert run_json(capsys, "shift", "--x", "5/6", "--q", q,
                        "--m", "2")["value"] == "1/2"
        prog = json.dumps({"word": [{"gen": 2}, {"sigma": None}]})
        assert run_json(capsys, "shift", "--x", "5/6", "--q", q,
                        "--program", prog)["value"] == "0/1"

    def test_normalize(self, capsys):
        prog = json.dumps({"word": [{"gen": 2}, {"gen": 2}, {"sigma": None}]})
        out = run_json(capsys, "normalize", "--program", prog)
        assert out["sigma_power"] == 3
        assert out["word"] == [{"sigma": None}] * 3

    def test_normalize_generator_form(self, capsys):
        prog = json.dumps({"generator": {"kind": "const-repeat", "m": 2}, "k": 2})
        out = run_json(capsys, "normalize", "--program", prog)
        assert out["sigma_power"] is None
        assert out["word"] == [{"gen": 2}] * 2


# ---------------------------------------------------------------------------
# Function-system commands
# ---------------------------------------------------------------------------

class TestSalemCommands:
    def test_validate_ok(self, capsys):
        assert run_json(capsys, "salem", "validate", "--system", SYSTEM) == {"ok": True}

    def test_validate_bad_exits_zero_with_verdict(self, capsys):
        bad = json.dumps({"q": 2, "p": ["1/3", "1/3"]})
        out = run_json(capsys, "salem", "validate", "--system", bad)
        assert out["ok"] is False
        assert out["violation"]["condition"] == "column-sum"

    def test_eval(self, capsys):
        out = run_json(capsys, "salem", "eval", "--system", SYSTEM, "--x", "1/2")
        assert out == {"value": "1/3", "error_bound": "0/1", "terms": 1}

    def test_eval_exact_flag_periodic_point(self, capsys):
        out = run_json(capsys, "salem", "eval", "--system", SYSTEM,
                       "--x", "1/3", "--exact")
        assert out == {"value": "1/7", "error_bound": "0/1", "terms": 2}

    def test_eval_exact_flag_failure(self, capsys):
        # 64 columns outlast the tolerance, so the sum is truncated
        columns = json.dumps({"q": 2, "columns": [["1/2", "1/2"]] * 64})
        code, out, err = run(capsys, "salem", "eval", "--system", columns,
                             "--x", "1/3", "--exact")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "domain"

    def test_eval_long_period_prints_the_exact_value(self, capsys):
        # period 20028: the denominator has about 9600 decimal digits
        out = run_json(capsys, "salem", "eval", "--system", SYSTEM,
                       "--x", "1/20029", "--exact")
        num, den = out["value"].split("/")
        assert len(den) > 4300 and out["error_bound"] == "0/1"
        assert out["terms"] == 20028

    def test_residual(self, capsys):
        out = run_json(capsys, "salem", "residual", "--system", SYSTEM,
                       "--x", "3/4", "--k", "2")
        assert out == {"residual": "0/1"}

    def test_integral(self, capsys):
        out = run_json(capsys, "salem", "integral", "--system", SYSTEM)
        assert out == {"value": "1/3"}

    def test_table_stdout_exact(self, capsys):
        code, out, err = run(capsys, "salem", "table", "--system", SYSTEM,
                             "--points", "3", "--exact")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,g,err_bound"
        assert lines[1] == "0/1,0/1,0/1"
        assert lines[2] == "1/2,1/3,0/1"
        assert lines[3] == "1/1,1/1,0/1"

    def test_table_decimal_default(self, capsys):
        code, out, err = run(capsys, "salem", "table", "--system", SYSTEM,
                             "--points", "3", "--digits", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "0.000000,0.000000,0.000000"
        assert lines[2] == "0.500000,0.333333,0.000000"
        assert lines[3] == "1.000000,1.000000,0.000000"

    def test_table_grid_and_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, err = run(capsys, "salem", "table", "--system", SYSTEM,
                             "--grid", "1/4,3/4", "--exact", "--out", str(path))
        assert code == 0 and out == ""
        lines = path.read_text().strip().split("\n")
        assert lines == ["x,g,err_bound", "1/4,1/9,0/1", "3/4,5/9,0/1"]

    def test_refused_table_leaves_the_out_file_alone(self, capsys, tmp_path):
        # the file is opened only after every row has rendered
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("earlier\n")
        for path in (fresh, kept):
            code, out, err = run(capsys, "salem", "table", "--system", SYSTEM,
                                 "--grid", "1/4,3/4", "--digits", "0", "--out", str(path))
            assert code == 2 and out == ""
            assert json.loads(err)["error"]["message"] == "decimal precision must be >= 1, got 0"
        assert not fresh.exists() and kept.read_text() == "earlier\n"

    def test_unwritable_out_path_is_refused(self, capsys, tmp_path):
        for path, reason in ((tmp_path / "missing" / "x.csv", "No such file or directory"),
                             (tmp_path, "Is a directory")):
            code, out, err = run(capsys, "salem", "table", "--system", SYSTEM,
                                 "--points", "3", "--out", str(path))
            assert code == 2 and out == ""
            assert json.loads(err) == {"error": {
                "type": "domain", "message": f"cannot write {path}: {reason}"}}

    def test_mc(self, capsys):
        out = run_json(capsys, "salem", "mc", "--system", SYSTEM,
                       "--samples", "20000", "--seed", "3")
        assert out["samples"] == 20000 and out["seed"] == 3
        assert abs(out["mean"] - 1 / 3) <= 4 * out["std_err"]


# ---------------------------------------------------------------------------
# Measure commands
# ---------------------------------------------------------------------------

class TestGkCommands:
    def test_bounds(self, capsys):
        out = run_json(capsys, "gk", "bounds", "--spec", SPEC, "--depth", "16")
        assert out["lower"] == "32767/65536"
        assert out["upper"] == "32769/65536"
        assert out["depth"] == 16

    def test_mc(self, capsys):
        out = run_json(capsys, "gk", "mc", "--spec", SPEC,
                       "--samples", "50000", "--seed", "1")
        assert abs(out["estimate"] - 0.5) <= 4 * out["std_err"]
        assert out["hits"] == round(out["estimate"] * out["samples"])

    @pytest.mark.parametrize("rhs", [
        {"const": "100000000000000000000001/100000000000000000000003"},
        {"programOnX": {"program": {"word": [{"sigma": None}]},
                        "x": "1/100000000000000000000003"}},
    ])
    def test_mc_threshold_beyond_int64(self, capsys, rhs):
        spec = json.dumps({"q": 2, "lhs": {"word": [{"sigma": None}]}, "rhs": rhs})
        code, out, err = run(capsys, "gk", "mc", "--spec", spec,
                             "--samples", "100", "--seed", "1")
        assert code == 0, err
        result = json.loads(out)
        assert result["samples"] == 100
        # the threshold is within 1e-22 of 1 or of 0: every sample or none
        assert result["hits"] == (100 if "const" in rhs else 0)

    def test_bounds_deeper_than_the_recursion_limit(self, capsys):
        # 1400 shifts read 1400 digits: a walk that recursed per digit
        # died with a RecursionError traceback here
        spec = json.dumps({"q": 2, "lhs": {"word": [{"sigma": None}] * 1400},
                           "rhs": {"const": "1/2"}})
        out = run_json(capsys, "gk", "bounds", "--depth", "1500", "--spec", spec)
        assert out == {"decided_mass": "1/1", "depth": 1500,
                       "lower": "1/2", "upper": "1/2"}

    def test_scan_csv(self, capsys):
        code, out, err = run(
            capsys, "gk", "scan", "--q", "2",
            "--family", json.dumps({"kind": "const-repeat", "m": 2}),
            "--rhs", json.dumps({"const": "1/2"}),
            "--params", "1:3")
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "n,lower,upper,decided_mass"
        assert [ln.split(",")[1] for ln in lines[1:]] == ["1/2"] * 3

    def test_scan_fixed_depth(self, capsys):
        # --depth sets one rank for every row, in place of consumed + offset
        family, rhs = {"kind": "const-repeat", "m": 2}, {"programOnZ": {"word": []}}
        argv = ("gk", "scan", "--q", "2", "--family", json.dumps(family),
                "--rhs", json.dumps(rhs), "--params", "1:3")
        code, out, err = run(capsys, *argv, "--depth", "9")
        assert code == 0 and err == ""
        make = cantorshift.generator_family(cantorshift.QSequence.constant(2), family,
                                            cantorshift.rhs_from_json(rhs), "lt")
        want = [cantorshift.measure_bounds(make(n), 9).to_json() for n in (1, 2, 3)]
        assert out.split("\n")[1:] == [
            f"{n},{b['lower']},{b['upper']},{b['decided_mass']}"
            for n, b in zip((1, 2, 3), want)] + [""]
        assert out != run(capsys, *argv)[1]

    def test_scan_decimal_mode(self, capsys):
        code, out, err = run(
            capsys, "gk", "scan", "--q", "2",
            "--family", json.dumps({"kind": "const-repeat", "m": 2}),
            "--rhs", json.dumps({"const": "1/2"}),
            "--params", "1:1", "--digits", "4")
        assert code == 0
        assert out.strip().split("\n")[1] == "1,0.5000,0.5000,1.0000"

    def test_scan_warnings_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "gk", "scan", "--q", "2",
            "--family", json.dumps({"kind": "mod-filter", "m": 2, "c": 3}),
            "--rhs", json.dumps({"const": "1/2"}),
            "--params", "1:7")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["1", "4", "7"]
        warned = [json.loads(w)["warning"]["param"] for w in err.strip().split("\n")]
        assert warned == [2, 3, 5, 6]

    def test_scan_builds_each_word_once(self, capsys, monkeypatch):
        # the default depth rule reads the spec the scan has just built;
        # rows 2, 3, 5 and 6 are rejected while their word is built
        built = []
        from_generator = cantorshift.ShiftProgram.from_generator
        monkeypatch.setattr(cantorshift.ShiftProgram, "from_generator", staticmethod(
            lambda rule, k=None: built.append(k) or from_generator(rule, k)))
        code, out, err = run(
            capsys, "gk", "scan", "--q", "2",
            "--family", json.dumps({"kind": "mod-filter", "m": 2, "c": 3}),
            "--rhs", json.dumps({"const": "1/2"}),
            "--params", "1:7")
        assert code == 0
        assert out == "n,lower,upper,decided_mass\n1,1/2,1/2,1/1\n4,1/2,1/2,1/1\n7,1/2,1/2,1/1\n"
        assert built == [1, 2, 3, 4, 5, 6, 7]

    def test_scan_all_rejected_is_error(self, capsys):
        code, out, err = run(
            capsys, "gk", "scan", "--q", "2",
            "--family", json.dumps({"kind": "mod-filter", "m": 2, "c": 3}),
            "--rhs", json.dumps({"const": "1/2"}),
            "--params", "2,3")
        assert code == 2
        assert json.loads(err.strip().split("\n")[-1])["error"]["type"] == "domain"

    def test_scan_all_rejected_writes_no_csv(self, capsys):
        code, out, err = run(
            capsys, "gk", "scan", "--q", "2",
            "--family", json.dumps({"kind": "mod-filter", "m": 2, "c": 3}),
            "--rhs", json.dumps({"const": "1/2"}),
            "--params", "2,3")
        assert code == 2 and out == ""
        *warnings, last = err.strip().split("\n")
        assert [json.loads(w)["warning"]["param"] for w in warnings] == [2, 3]
        assert json.loads(last)["error"] == {
            "type": "domain", "message": "no parameter in the scan produced bounds"}


# ---------------------------------------------------------------------------
# Error handling and determinism
# ---------------------------------------------------------------------------

def _spec(lhs=None, rhs=None):
    return json.dumps({"q": 2, "lhs": lhs or {"word": [{"sigma": None}]},
                       "rhs": rhs or {"const": "1/2"}})


# well-formed JSON of the wrong shape: each of these once escaped `main`
# as a KeyError, TypeError or AttributeError traceback
WRONG_SHAPE = [
    *(("expand", "--x", "1/3", "--depth", "3", "--q", q)
      for q in ("null", "1.5", '"abc"', '{"kind":"periodic","values":5}')),
    ("gk", "bounds", "--depth", "3", "--spec", "{}"),
    *(("gk", "bounds", "--depth", "3", "--spec", spec) for spec in (
        _spec(lhs={"word": 5}),
        _spec(lhs={"word": [{"gen": None}]}),
        _spec(lhs={"generator": {"kind": "const-repeat"}, "k": 2}),
        _spec(rhs={"programOnX": {}}))),
    ("shift", "--x", "1/3", "--q", "2", "--program", '{"word":5}'),
    *(("salem", "eval", "--x", "1/3", "--system", json.dumps(system))
      for system in ({"p": 5}, {"columns": [5]},
                     {"p": ["1/2", "1/2"], "reorder": "x"},
                     {"p": ["1/2", "1/2"], "reorder": {"kind": "list", "values": 5}})),
    ("evaluate", "--q", "2", "--prefix", "1", "--tail", '{"periodic":5}'),
    ("gk", "scan", "--q", "2", "--family", '{"kind":"affine"}',
     "--rhs", '{"const":"1/2"}', "--params", "1:3"),
    ("gk", "scan", "--q", "2", "--family", '{"kind":"const-repeat","m":2}',
     "--rhs", '{"programOnX":{"program":{"word":[]}}}', "--params", "1:3"),
]

class TestErrors:
    def test_usage_error(self, capsys):
        code, out, err = run(capsys, "shift", "--x", "1/2", "--q", "2")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "usage"

    def test_unknown_command_is_usage(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "expand", "--x", "7/6", "--q", "2",
                           "--depth", "4")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "domain"

    def test_bad_json_is_domain_error(self, capsys):
        code, _, err = run(capsys, "normalize", "--program", "{oops")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "domain"

    @pytest.mark.parametrize("argv", WRONG_SHAPE)
    def test_wrong_shape_json_follows_error_contract(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code in (1, 2, 3)
        lines = [json.loads(line) for line in err.splitlines()]
        assert "error" in lines[-1]
        if argv[:2] == ("gk", "scan"):
            # a scan reports each rejected parameter, then fails
            assert code == 2
            assert all("warning" in line for line in lines[:-1])
        else:
            assert len(lines) == 1

    @pytest.mark.parametrize("argv", [
        ("salem", "mc", "--system", SYSTEM),
        ("gk", "mc", "--spec", SPEC),
    ])
    def test_sample_count_past_the_cap_is_refused(self, capsys, monkeypatch, argv):
        # refused before any draw; sampling a billion would take minutes
        monkeypatch.setattr(np.random, "default_rng", None)
        code, out, err = run(capsys, *argv, "--samples", "1000000000", "--seed", "1")
        assert code == 2 and out == ""
        obj = json.loads(err)["error"]
        assert obj["type"] == "domain" and "limit of 10000000" in obj["message"]

    @pytest.mark.parametrize("argv", [
        ("salem", "eval", "--system", SYSTEM, "--x", "1/3", "--tol", "1e-30000000"),
        ("shift", "--x", "1e-30000000", "--q", "2", "--n", "1"),
        ("salem", "eval", "--x", "1/3",
         "--system", json.dumps({"q": 2, "p": ["1e-30000000", "1"]})),
    ], ids=["tol", "x", "weight"])
    def test_huge_decimal_exponent_is_refused(self, capsys, argv):
        # building 10**30000000 first took about a minute
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        obj = json.loads(err)["error"]
        assert obj["type"] == "domain" and "limit of 10000" in obj["message"]

    @pytest.mark.parametrize("argv", [
        ("salem", "table", "--system", SYSTEM, "--points", "100000001"),
        ("gk", "scan", "--q", "2", "--family", '{"kind": "mod-filter", "m": 2, "c": 3}',
         "--rhs", '{"const": "1/2"}', "--params", "1:100000000"),
    ], ids=["points", "params"])
    def test_oversized_input_is_refused(self, capsys, argv):
        # refused before a point or parameter list is built
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        obj = json.loads(err)["error"]
        assert obj["type"] == "domain" and obj["message"].endswith("limit of 100000")

    @pytest.mark.parametrize("argv, limit", [
        (("expand", "--x", "1/3", "--q", "2", "--depth", str(MAX_EXPAND_DEPTH + 1)),
         MAX_EXPAND_DEPTH),
        (("gk", "bounds", "--spec", SPEC, "--depth", str(MAX_BOUNDS_DEPTH + 1)),
         MAX_BOUNDS_DEPTH),
    ], ids=["expand", "gk-bounds"])
    def test_depth_over_the_limit_is_refused(self, capsys, argv, limit):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        obj = json.loads(err)["error"]
        assert obj == {"type": "domain",
                       "message": f"depth {limit + 1} exceeds the limit of {limit}"}

    @pytest.mark.parametrize("argv, message", [
        (("expand", "--x", "1/1000000000000000000000000000057", "--q", "2",
          "--depth", "1", "--probe", str(MAX_PROBE + 1)),
         f"probe {MAX_PROBE + 1} exceeds the limit of {MAX_PROBE}"),
        (("classify", "--x", "1/1000000000000000000000000000057", "--q", "2",
          "--probe", str(MAX_PROBE + 1)),
         f"probe {MAX_PROBE + 1} exceeds the limit of {MAX_PROBE}"),
        (("shift", "--x", "5/6", "--q", "2", "--n", str(MAX_PROGRAM_DEPTH + 1)),
         f"required depth {MAX_PROGRAM_DEPTH + 1} exceeds the limit of {MAX_PROGRAM_DEPTH}"),
        (("shift", "--x", "5/6", "--q", "2", "--m", str(MAX_PROGRAM_DEPTH + 1)),
         f"required depth {MAX_PROGRAM_DEPTH + 1} exceeds the limit of {MAX_PROGRAM_DEPTH}"),
        (("shift", "--x", "5/6", "--q", "2",
          "--program", json.dumps({"word": [{"gen": MAX_PROGRAM_DEPTH + 1}]})),
         f"required depth {MAX_PROGRAM_DEPTH + 1} exceeds the limit of {MAX_PROGRAM_DEPTH}"),
        # the word of a billion atoms is refused before it is built
        (("shift", "--x", "5/6", "--q", "2", "--program", json.dumps(
            {"generator": {"kind": "const-repeat", "m": 2, "k": 10**9}})),
         f"a word of {10**9} atoms requires a depth past the limit of {MAX_PROGRAM_DEPTH}"),
    ], ids=["expand-probe", "classify-probe", "shift-n", "shift-m", "shift-program",
            "shift-generator"])
    def test_probe_or_program_depth_over_the_limit_is_refused(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "domain", "message": message}

    @pytest.mark.parametrize("argv, message", [
        (("expand", "--x", "1/3", "--q", '{"kind": "constant", "values": [2.5]}',
          "--depth", "4"), "expected an integer, got 2.5"),
        (("evaluate", "--q", "2", "--prefix", "1", "--tail", '{"periodic": [1.5]}'),
         "expected an integer, got 1.5"),
        (("shift", "--x", "1/3", "--q", "2", "--program", '{"word": [{"gen": 2.9}]}'),
         "expected an integer, got 2.9"),
        (("normalize", "--program",
          '{"generator": {"kind": "affine", "a": 1, "b": 1}, "k": -5}'),
         "repetition count must be >= 0"),
        (("classify", "--x", "1/3", "--q", "2", "--probe", "-1"), "probe must be >= 0, got -1"),
        (("expand", "--x", "1/3", "--q", "2", "--depth", "3", "--probe", "-1"),
         "probe must be >= 0, got -1"),
    ], ids=["float-base-value", "float-tail-digit", "float-gen-index", "negative-count",
            "classify-negative-probe", "expand-negative-probe"])
    def test_non_integral_or_negative_count_is_refused(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "domain", "message": message}

    @pytest.mark.parametrize("argv", [
        ("salem", "table", "--system", SYSTEM, "--grid", "1/3"),
        ("gk", "scan", "--q", "2", "--family", '{"kind": "const-repeat", "m": 2}',
         "--rhs", '{"const": "1/2"}', "--params", "1:2"),
    ], ids=["salem-table", "gk-scan"])
    def test_decimal_precision_over_the_limit_is_refused(self, capsys, argv):
        # 10**2000000 and its decimal string took more than 20 s; the
        # rows are rendered before the CSV header is written
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--digits", str(MAX_EXPONENT + 1))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "domain",
            "message": f"decimal precision {MAX_EXPONENT + 1} exceeds the limit of {MAX_EXPONENT}"}

    def test_insufficient_depth_exit_code(self, capsys):
        code, _, err = run(capsys, "gk", "bounds", "--spec", SPEC,
                           "--depth", "1")
        assert code == 3
        obj = json.loads(err)["error"]
        assert obj["type"] == "insufficient-depth" and obj["required"] == 2

    @pytest.mark.parametrize("system, k, message", [
        ({"q": 2, "columns": [["1/3", "2/3"]]}, 2,
         "system has 1 columns; position 2 undefined"),
        ({"q": 2, "p": ["1/3", "2/3"], "reorder": {"kind": "list", "values": [2, 1]}}, 3,
         "reorder schedule has 2 steps; step 3 undefined"),
    ], ids=["columns", "list"])
    def test_equation_past_the_schedule_is_a_domain_error(self, capsys, system, k, message):
        # running off the end of a schedule is not a lack of digits: no
        # string, however deep, has an equation k there
        code, out, err = run(capsys, "salem", "residual", "--system", json.dumps(system),
                             "--x", "1/3", "--k", str(k))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"type": "domain", "message": message}

    @pytest.mark.parametrize("values, message", [
        ([1, 10**12], "a sample reads digit position 1000000000000: 1000000000000 "
                      "bytes of digits exceed the limit of 67108864"),
        ([1, 0], "list reorder positions must be >= 1, got 0"),
    ], ids=["far", "zero"])
    def test_mc_refuses_a_schedule_it_cannot_draw(self, capsys, monkeypatch, values, message):
        # the far position once allocated 931 GiB, and position 0 read
        # digit column -1; both are refused before any draw
        monkeypatch.setattr(np.random, "default_rng", None)
        system = json.dumps({"q": 2, "p": ["1/3", "2/3"],
                             "reorder": {"kind": "list", "values": values}})
        code, out, err = run(capsys, "salem", "mc", "--system", system,
                             "--samples", "10", "--seed", "1")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"type": "domain", "message": message}

    @pytest.mark.parametrize("extra", ["0", "-3"])
    def test_mc_refuses_an_extra_depth_below_one(self, capsys, monkeypatch, extra):
        # once reported as base values growing too quickly, even at q = 2
        monkeypatch.setattr(np.random, "default_rng", None)
        code, out, err = run(capsys, "gk", "mc", "--spec", SPEC, "--samples", "10",
                             "--seed", "1", "--extra-depth", extra)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "type": "domain", "message": f"extra depth must be >= 1, got {extra}"}

    @pytest.mark.parametrize("argv", [
        ["salem", "mc", "--system", '{"q": 2, "p": ["1/3", "2/3"]}'],
        ["gk", "mc", "--spec", SPEC],
    ], ids=["salem", "gk"])
    def test_mc_refuses_a_negative_seed(self, capsys, monkeypatch, argv):
        # once numpy's own "expected non-negative integer", after loading it
        monkeypatch.setattr(np.random, "default_rng", None)
        code, out, err = run(capsys, *argv, "--samples", "10", "--seed", "-1")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "type": "domain", "message": "seed must be >= 0, got -1"}

    @pytest.mark.parametrize("params, message", [
        ("a:b", "parameter range must be int:int, got 'a:b'"),
        ("3:1", "empty parameter range '3:1'"),
        ("1,x", "digit list must be comma-separated integers: '1,x'"),
    ], ids=["range", "empty-range", "list"])
    def test_scan_parameters_must_be_integers(self, capsys, params, message):
        code, out, err = run(capsys, "gk", "scan", "--q", "2",
                             "--family", json.dumps({"kind": "const-repeat", "m": 2}),
                             "--rhs", json.dumps({"const": "1/2"}), "--params", params)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"type": "domain", "message": message}

    def test_invalid_system_exit_code(self, capsys):
        bad = json.dumps({"q": 2, "p": ["1/3", "1/3"]})
        code, _, err = run(capsys, "salem", "eval", "--system", bad,
                           "--x", "1/2")
        assert code == 2
        obj = json.loads(err)["error"]
        assert obj["type"] == "invalid-system"
        assert obj["violation"]["condition"] == "column-sum"

    def test_byte_determinism(self, capsys):
        args = ("salem", "mc", "--system", SYSTEM,
                "--samples", "5000", "--seed", "42")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        args = ("gk", "bounds", "--spec", SPEC, "--depth", "10")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_output_keys_sorted(self, capsys):
        _, out, _ = run(capsys, "salem", "eval", "--system", SYSTEM,
                        "--x", "1/2")
        keys = list(json.loads(out).keys())
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# One parser per process
# ---------------------------------------------------------------------------

def call_main(argv):
    """`main` with stdout and stderr swapped for fresh buffers on each
    call, as an embedding caller may do."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# the README's argv shapes, plus both samplers on the README's system and
# spec, a deletion, both probes and a decimal table
SHAPES = [argv for argv, _ in README_EXAMPLES] + [
    ["salem", "mc", "--system", SYSTEM, "--samples", "100", "--seed", "7"],
    ["gk", "mc", "--spec", SPEC, "--samples", "100", "--seed", "7"],
    ["shift", "--x", "5/6", "--q", "2", "--m", "2"],
    ["expand", "--x", "1/7", "--q", "2", "--depth", "4", "--probe", "8"],
    ["classify", "--x", "1/7", "--q", "2", "--probe", "8"],
    ["salem", "table", "--system", SYSTEM, "--grid", "1/3,1/2", "--digits", "6"],
]
NUMBERS = {
    # `expand` and `gk bounds` both read --depth; each is refused past its limit
    "--depth": st.integers(-3, 64) | st.sampled_from([MAX_BOUNDS_DEPTH + 1,
                                                      MAX_EXPAND_DEPTH + 1]),
    "--points": st.integers(-3, 50),
    "--samples": st.integers(-3, 2000),
    "--seed": st.integers(-3, 2**40),
    # `shift --n` and `--m` are refused past the required-depth limit,
    # and an explicit `--probe` past its own
    "--n": st.integers(-3, 64) | st.just(MAX_PROGRAM_DEPTH + 1),
    "--m": st.integers(-3, 64) | st.just(MAX_PROGRAM_DEPTH + 1),
    "--probe": st.integers(-3, 64) | st.just(MAX_PROBE + 1),
    # decimal places of `salem table`, refused past the exponent limit
    "--digits": st.integers(-3, 64) | st.just(MAX_EXPONENT + 1),
    "--x": st.sampled_from(["0", "1", "-1/2", "3/2", "1/0", "0.25", "2/6"]),
    "--params": st.builds("{}:{}".format, st.integers(-3, 20), st.integers(-3, 20)),
}
NOT_INTEGERS = st.sampled_from(["1.5", "-0.5", "1/2", "x", "", "1e3", "0x10"])
BROKEN_JSON = st.sampled_from(["{", "{oops", "[1,", '"', "", "nul", '{"q": 2,}'])
LEAVES = (st.none() | st.booleans() | st.integers(-3, 70) | st.text(max_size=3)
          | st.lists(st.integers(-1, 3), max_size=3) | st.just({}))


def split_flags(argv):
    """(command words, [[flag, value] or [flag], ...]) of a README argv."""
    i = next((i for i, a in enumerate(argv) if a.startswith("--")), len(argv))
    cmd, flags = list(argv[:i]), []
    while i < len(argv):
        has_value = i + 1 < len(argv) and not argv[i + 1].startswith("--")
        flags.append(list(argv[i:i + 1 + has_value]))
        i += 1 + has_value
    return cmd, flags


def paths(obj, at=()):
    """Every position in a JSON value, the root included."""
    yield at
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from paths(value, at + (key,))


@st.composite
def wrong_shape(draw, text):
    """`text` with one JSON value, at any depth, replaced."""
    obj = json.loads(text)
    at = draw(st.sampled_from(list(paths(obj))))
    leaf = draw(LEAVES)
    if not at:
        return json.dumps(leaf)
    parent = obj
    for key in at[:-1]:
        parent = parent[key]
    parent[at[-1]] = leaf
    return json.dumps(obj)


@st.composite
def fuzzed_argv(draw):
    cmd, flags = split_flags(draw(st.sampled_from(SHAPES)))
    kinds = st.sampled_from(["number", "json", "drop", "dup", "command"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        if kind == "command":
            # "-h" and its abbreviations print the help and return 0
            cmd[draw(st.integers(0, len(cmd) - 1))] = draw(
                st.text("-abcdeghkmnstxz", max_size=10) | st.sampled_from(["-h", "--he"]))
        elif kind == "drop" and flags:
            del flags[draw(st.integers(0, len(flags) - 1))]
        elif kind == "dup" and flags:
            flags.append(list(flags[draw(st.integers(0, len(flags) - 1))]))
        elif kind == "number":
            slots = [i for i, f in enumerate(flags) if f[0] in NUMBERS and len(f) == 2]
            if slots:
                f = flags[draw(st.sampled_from(slots))]
                f[1] = str(draw(NUMBERS[f[0]] | NOT_INTEGERS))
        elif kind == "json":
            slots = [i for i, f in enumerate(flags)
                     if len(f) == 2 and f[1][:1] in ("{", "[")]
            if slots:
                f = flags[draw(st.sampled_from(slots))]
                try:
                    f[1] = draw(BROKEN_JSON | wrong_shape(f[1]))
                except json.JSONDecodeError:  # already broken
                    f[1] = draw(BROKEN_JSON)
    return cmd + [a for f in flags for a in f]


class TestHelp:
    @pytest.mark.parametrize("argv", [["-h"], ["salem", "--he"], ["gk", "mc", "-h"]])
    def test_help_returns_zero_and_prints_the_parser_text(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = call_main(argv)
        assert (code, err) == (0, "") and out.startswith("usage: cantorshift ")
        # argparse's own help text, as it prints it before exiting
        want = io.StringIO()
        with contextlib.redirect_stdout(want), pytest.raises(SystemExit):
            cli._parser.parse_args(argv)
        assert out == want.getvalue()


# each command's usage line, printed on one line at 250 columns, and the
# arguments named when its required ones are missing; a shared argument
# declared in the wrong place moves in both
USAGES = {
    "expand": ("--x X --q Q --depth DEPTH [--probe PROBE] [--digits]", "--x, --q, --depth"),
    "evaluate": ("--q Q --prefix PREFIX [--tail TAIL]", "--q, --prefix"),
    "classify": ("--x X --q Q [--probe PROBE]", "--x, --q"),
    "cylinder": ("--q Q --digits DIGITS", "--q, --digits"),
    "shift": ("--x X --q Q (--n N | --m M | --program PROGRAM)", "--x, --q"),
    "normalize": ("--program PROGRAM", "--program"),
    "salem validate": ("--system SYSTEM", "--system"),
    "salem eval": ("--system SYSTEM --x X [--tol TOL] [--exact]", "--system, --x"),
    "salem residual": ("--system SYSTEM --x X --k K [--tol TOL]", "--system, --x, --k"),
    "salem integral": ("--system SYSTEM", "--system"),
    "salem table": ("--system SYSTEM (--points POINTS | --grid GRID) [--tol TOL] "
                    "[--digits DIGITS] [--exact] [--out OUT]", "--system"),
    "salem mc": ("--system SYSTEM --samples SAMPLES --seed SEED",
                 "--system, --samples, --seed"),
    "gk bounds": ("--spec SPEC --depth DEPTH", "--spec, --depth"),
    "gk mc": ("--spec SPEC --samples SAMPLES --seed SEED [--extra-depth EXTRA_DEPTH]",
              "--spec, --samples, --seed"),
    "gk scan": ("--q Q --family FAMILY --rhs RHS [--relation {lt,ge}] --params PARAMS "
                "[--depth DEPTH] [--depth-offset DEPTH_OFFSET] [--digits DIGITS]",
                "--q, --family, --rhs, --params"),
}


@pytest.mark.parametrize("command, usage, missing",
                         [(c, *v) for c, v in USAGES.items()], ids=USAGES.keys())
def test_usage_line_and_missing_arguments_are_pinned(monkeypatch, command, usage, missing):
    monkeypatch.setenv("COLUMNS", "250")
    code, out, err = call_main(command.split() + ["-h"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"usage: cantorshift {command} [-h] {usage}"
    code, out, err = call_main(command.split())
    message = f"the following arguments are required: {missing}"
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {"type": "usage", "message": message}}


class TestSharedParser:
    def test_parser_is_built_once_per_process(self, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        calls = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: calls.append(1) or build())
        for argv, want in README_EXAMPLES[:3]:
            assert call_main(argv)[:2] == (0, want)
        assert len(calls) == 1

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this interpreter has no int <-> str limit")
    @pytest.mark.parametrize("argv, code", [
        (README_EXAMPLES[0][0], 0),
        (["shift", "--x", "1/0", "--q", "2", "--n", "1"], 2),
        (["expand"], 1),
        (["-h"], 0),
    ], ids=["result", "domain-error", "usage-error", "help"])
    def test_str_limit_is_restored(self, argv, code):
        # `main` lifts the int <-> str limit for its own call only
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert call_main(argv)[0] == code
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(before)

    @settings(max_examples=200, deadline=timedelta(seconds=5))
    @given(argv=fuzzed_argv())
    def test_fuzzed_calls_keep_the_contract_and_leave_no_state(self, argv):
        code, _, err = call_main(argv)
        assert code in (0, 1, 2, 3)
        for line in err.splitlines():
            obj = json.loads(line)
            assert isinstance(obj, dict) and list(obj) in (["error"], ["warning"])
        # the same parser still runs every README example as printed there
        for example, want in README_EXAMPLES:
            assert call_main(example)[:2] == (0, want), example


# ---------------------------------------------------------------------------
# Fresh processes
# ---------------------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cantorshift.__file__)))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))

# runs each README example (argv, stdout) read as JSON from stdin through
# `main`, then prints whether numpy was imported
README_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from cantorshift.cli import main
for argv, want in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0 and out.getvalue() == want, argv
print("numpy" in sys.modules)
"""


class TestFreshProcess:
    def test_readme_commands_do_not_import_numpy(self):
        r = subprocess.run([sys.executable, "-c", README_IN_ONE_PROCESS],
                           input=json.dumps(README_EXAMPLES), capture_output=True,
                           text=True, timeout=60, env=ENV)
        assert (r.returncode, r.stdout) == (0, "False\n"), r.stderr

    @pytest.mark.parametrize("argv, want", [
        (["salem", "mc", "--system", SYSTEM, "--samples", "5000", "--seed", "7"],
         '{"mean": 0.33535342912472244, "samples": 5000, "seed": 7, '
         '"std_err": 0.003726125822415987, "terms": 54}\n'),
        (["gk", "mc", "--spec", '{"q": 2, "lhs": {"word": [{"sigma": null}]}, '
          '"rhs": {"programOnZ": {"word": []}}}', "--samples", "5000", "--seed", "7"],
         '{"depth": 33, "estimate": 0.5006, "hits": 2503, "samples": 5000, '
         '"seed": 7, "std_err": 0.0070710627206948175}\n'),
        # an odd sample count: the q = 2 rows leave a buffered half word,
        # which the next q = 3 row's bounded draw takes first
        (["gk", "mc", "--spec", '{"q": {"kind": "periodic", "values": [2, 3]}, '
          '"lhs": {"word": [{"sigma": null}]}, "rhs": {"const": "1/3"}}',
          "--samples", "5001", "--seed", "7"],
         '{"depth": 33, "estimate": 0.34593081383723256, "hits": 1730, "samples": 5001, '
         '"seed": 7, "std_err": 0.006726328008455507}\n'),
        (["gk", "mc", "--spec", '{"q": 4, "lhs": {"word": [{"gen": 2}]}, '
          '"rhs": {"programOnZ": {"word": [{"sigma": null}]}}}',
          "--samples", "5001", "--seed", "7"],
         '{"depth": 31, "estimate": 0.3649270145970806, "hits": 1825, "samples": 5001, '
         '"seed": 7, "std_err": 0.0068074803976945495}\n'),
        # a tie of measure 1/9 that counts as "ge" however wide its cylinder
        (["gk", "mc", "--spec", '{"q": 3, "lhs": {"word": [{"gen": 2}, {"gen": 3}]}, '
          '"rhs": {"programOnZ": {"word": [{"sigma": null}, {"sigma": null}]}}, '
          '"relation": "ge"}', "--samples", "5001", "--seed", "7"],
         '{"depth": 36, "estimate": 0.5640871825634873, "hits": 2821, "samples": 5001, '
         '"seed": 7, "std_err": 0.007012041989295481}\n'),
        # three chunks: the first two draw every row, the last stops early
        (["gk", "mc", "--spec", '{"q": 2, "lhs": {"word": [{"sigma": null}]}, '
          '"rhs": {"const": "1/3"}}', "--samples", "140001", "--seed", "7"],
         '{"depth": 33, "estimate": 0.33396904307826375, "hits": 46756, "samples": 140001, '
         '"seed": 7, "std_err": 0.0012604764760730813}\n'),
    ], ids=["salem-mc", "gk-mc", "gk-mc-periodic-2-3", "gk-mc-q4", "gk-mc-tie-q3-ge",
            "gk-mc-three-chunks"])
    def test_sampler_output_is_pinned(self, argv, want):
        # numpy is imported inside the samplers; the seeded stream and the
        # printed bytes are those of the import at module level
        r = subprocess.run([sys.executable, "-m", "cantorshift.cli", *argv],
                           capture_output=True, text=True, timeout=60, env=ENV)
        assert (r.returncode, r.stdout, r.stderr) == (0, want, "")
