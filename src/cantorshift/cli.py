"""Command-line interface.

One executable, `cantorshift`, with flat commands for digit arithmetic
(expand / evaluate / classify / cylinder / shift / normalize) and two
command groups: `salem` for digit-weight function systems and `gk` for
measure bounds of digit-defined sets.

Conventions:

* rationals are read and written as "num/den" strings;
* results go to stdout as single-line JSON with sorted keys (tables and
  scans emit CSV instead), so identical invocations are byte-identical;
* errors go to stderr as one JSON object {"error": {...}};
* exit codes: 0 success (`-h`/`--help` included), 1 usage, 2
  domain/validation error, 3 insufficient digits for the requested
  operation.

The argument parser is built by the first `main` call and reused by
every later call in the process; nothing in it holds a stream.  Each
command looks up `sys.stdout` and `sys.stderr` when it runs, so callers
that swap those streams between calls get their output where they expect.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict
from fractions import Fraction
from functools import lru_cache

from .errors import MAX_EXPONENT, DomainError, InsufficientDepthError, InvalidSystemError
from .numeral import (
    DigitString,
    Interval,
    QSequence,
    Tail,
    classify_rationality,
    cylinder_info,
    eval_prefix,
    expand,
    format_rational,
    parse_rational,
)
from .shifts import ShiftProgram, apply_program, gen_shift, normalize_program, shift_n
from .salem import (
    DEFAULT_TOL,
    SalemSystem,
    emit_table,
    evaluate,
    integral,
    mc_mean,
    residual,
    validate_system,
)
from .gausskuzmin import (
    GKSetSpec,
    rhs_from_json,
    generator_family,
    limit_scan,
    measure_bounds,
    measure_mc,
)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Input parsing helpers
# ---------------------------------------------------------------------------

def _json_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON argument: {exc}") from exc


def _parse_q(text: str) -> QSequence:
    try:
        return QSequence.constant(int(text))
    except ValueError:
        pass
    return QSequence.from_json(_json_arg(text))


def _parse_digit_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise DomainError(f"digit list must be comma-separated integers: {text!r}") from exc


def _parse_tail(text: str) -> Tail:
    if text in ("zero", "max"):
        return Tail.from_json(text)
    return Tail.from_json(_json_arg(text))


def _parse_params(text: str) -> range | tuple[int, ...]:
    text = text.strip()
    if ":" in text:
        lo, _, hi = text.partition(":")
        try:
            a, b = int(lo), int(hi)
        except ValueError as exc:
            raise DomainError(f"parameter range must be int:int, got {text!r}") from exc
        if b < a:
            raise DomainError(f"empty parameter range {text!r}")
        return range(a, b + 1)  # `limit_scan` caps its length
    return _parse_digit_list(text)


def _value_json(v):
    if isinstance(v, Interval):
        return {"lo": format_rational(v.lo), "hi": format_rational(v.hi)}
    return format_rational(v)


def _decimal(x: Fraction, digits: int) -> str:
    """Round-half-even decimal rendering, exact to `digits` places, for
    `digits` from 1 to `MAX_EXPONENT` (10**4)."""
    if digits < 1:
        raise DomainError(f"decimal precision must be >= 1, got {digits}")
    if digits > MAX_EXPONENT:
        raise DomainError(f"decimal precision {digits} exceeds the limit of {MAX_EXPONENT}")
    sign = "-" if x < 0 else ""
    scaled = round(abs(x) * 10**digits)
    s = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def _formatter(digits):
    """The CSV renderer of a rational: "num/den" when `digits` is None,
    else `digits` decimal places (refused at the first value rendered)."""
    return format_rational if digits is None else lambda v: _decimal(v, digits)


def _emit(obj, file=None) -> None:
    """Write `obj` as one sorted-key JSON line to `file`, or to the
    current `sys.stdout`."""
    print(json.dumps(obj, sort_keys=True), file=file)


def _write_csv(header, rows, path=None) -> None:
    """Write the header and rows as CSV to the file `path`, or to stdout.
    A path that cannot be opened is refused before anything is written."""
    try:
        out = open(path, "w", newline="") if path else nullcontext(sys.stdout)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from exc
    with out as f:
        csv.writer(f, lineterminator="\n").writerows([header, *rows])


# ---------------------------------------------------------------------------
# Digit arithmetic commands
# ---------------------------------------------------------------------------

def _cmd_expand(args) -> None:
    x = parse_rational(args.x)
    q = _parse_q(args.q)
    d = expand(x, q, args.depth, probe_limit=args.probe)
    if args.digits:
        print(",".join(str(c) for c in d.prefix))
        return
    _emit({"prefix": list(d.prefix), "tail": d.tail.to_json(),
           "value": _value_json(eval_prefix(d))})


def _cmd_evaluate(args) -> None:
    q = _parse_q(args.q)
    d = DigitString(q, _parse_digit_list(args.prefix), _parse_tail(args.tail))
    _emit({"value": _value_json(eval_prefix(d))})


def _cmd_classify(args) -> None:
    x = parse_rational(args.x)
    q = _parse_q(args.q)
    r = classify_rationality(x, q, probe_depth=args.probe)
    out = {"kind": r.kind, "probe_depth": r.probe_depth}
    for key in ("zero_form", "max_form", "certificate"):
        if getattr(r, key) is not None:
            out[key] = getattr(r, key).to_json()
    _emit(out)


def _cmd_cylinder(args) -> None:
    q = _parse_q(args.q)
    c = cylinder_info(_parse_digit_list(args.digits), q)
    _emit({"digits": list(c.base_digits), "rank": c.rank,
           "inf": format_rational(c.inf), "sup": format_rational(c.sup),
           "measure": format_rational(c.measure)})


def _cmd_shift(args) -> None:
    x = parse_rational(args.x)
    q = _parse_q(args.q)
    if args.n is not None:
        v = shift_n(x, q, args.n)
    elif args.m is not None:
        v = gen_shift(x, q, args.m)
    else:
        program = ShiftProgram.from_json(_json_arg(args.program))
        v = apply_program(program, x, q)
    _emit({"value": format_rational(v)})


def _cmd_normalize(args) -> None:
    program = ShiftProgram.from_json(_json_arg(args.program))
    norm = normalize_program(program)
    _emit({"word": [a.to_json() for a in norm.word],
           "sigma_power": norm.is_sigma_power()})


# ---------------------------------------------------------------------------
# Function-system commands
# ---------------------------------------------------------------------------

def _system(args) -> SalemSystem:
    return SalemSystem.from_json(_json_arg(args.system))


def _cmd_salem_validate(args) -> None:
    report = validate_system(_system(args))
    if report.ok:
        _emit({"ok": True})
    else:
        _emit({"ok": False, "violation": asdict(report.violation)})


def _cmd_salem_eval(args) -> None:
    system = _system(args)
    x = parse_rational(args.x)
    res = evaluate(x, system.q, system, tol=parse_rational(args.tol))
    if args.exact and res.error_bound != 0:
        raise DomainError(
            "exact evaluation unavailable: the input needs series truncation")
    _emit({"value": format_rational(res.value),
           "error_bound": format_rational(res.error_bound),
           "terms": res.terms})


def _cmd_salem_residual(args) -> None:
    system = _system(args)
    x = parse_rational(args.x)
    r = residual(x, system.q, system, args.k, tol=parse_rational(args.tol))
    _emit({"residual": format_rational(r)})


def _cmd_salem_integral(args) -> None:
    _emit({"value": format_rational(integral(_system(args)))})


def _cmd_salem_table(args) -> None:
    system = _system(args)
    grid = args.points if args.points is not None else [
        parse_rational(v) for v in args.grid.split(",")]
    fmt = _formatter(None if args.exact else args.digits)
    # every row is rendered before the file is opened or the header written
    rows = [[fmt(row.x), fmt(row.value), fmt(row.error_bound)]
            for row in emit_table(system, grid, tol=parse_rational(args.tol))]
    _write_csv(["x", "g", "err_bound"], rows, args.out)


def _cmd_salem_mc(args) -> None:
    _emit(asdict(mc_mean(_system(args), args.samples, args.seed)))


# ---------------------------------------------------------------------------
# Measure commands
# ---------------------------------------------------------------------------

def _cmd_gk_bounds(args) -> None:
    spec = GKSetSpec.from_json(_json_arg(args.spec))
    _emit(measure_bounds(spec, args.depth).to_json())


def _cmd_gk_mc(args) -> None:
    spec = GKSetSpec.from_json(_json_arg(args.spec))
    _emit(asdict(measure_mc(spec, args.samples, args.seed, extra_depth=args.extra_depth)))


def _cmd_gk_scan(args) -> None:
    q = _parse_q(args.q)
    rule = _json_arg(args.family)
    rhs = rhs_from_json(_json_arg(args.rhs))
    # the default depth rule reads the spec `limit_scan` has just built
    family = lru_cache(maxsize=1)(generator_family(q, rule, rhs, args.relation))
    params = _parse_params(args.params)
    if args.depth is not None:
        depth_rule = lambda n: args.depth
    else:
        depth_rule = lambda n: family(n).required_depth + args.depth_offset
    rows = limit_scan(family, params, depth_rule)
    fmt = _formatter(args.digits)
    # every row is rendered before the header is written
    rendered = []
    for row in rows:
        if row.bounds is None:
            _emit({"warning": {"param": row.param, "message": row.error}}, sys.stderr)
            continue
        b = row.bounds
        rendered.append([row.param, fmt(b.lower), fmt(b.upper), fmt(b.decided_mass)])
    if not rendered:
        raise DomainError("no parameter in the scan produced bounds")
    _write_csv(["n", "lower", "upper", "decided_mass"], rendered)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    """The `cantorshift` parser.  Each argument that more than one command
    takes is declared once, in a parent parser of its own; a command lists
    those parents first, in its argument order, and declares the rest."""

    def shared(flag, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(flag, **kwargs)
        return parent

    x = shared("--x", required=True, help="rational in [0,1], e.g. 5/6")
    q = shared("--q", required=True, help="base: integer or JSON")
    system = shared("--system", required=True, help="system JSON")
    # `salem residual` and `salem table` declare --tol themselves, after
    # arguments of their own that a parent would move it ahead of
    tol = shared("--tol", default=format_rational(DEFAULT_TOL))
    spec = shared("--spec", required=True, help="set spec JSON")
    samples = shared("--samples", type=int, required=True)
    seed = shared("--seed", type=int, required=True)

    def command(group, name, func, help, *parents) -> _Parser:
        s = group.add_parser(name, help=help, parents=parents)
        s.set_defaults(func=func)
        return s

    p = _Parser(prog="cantorshift",
                description="Exact Cantor-series digit arithmetic, shift "
                            "operators, singular functions, measure bounds")
    sub = p.add_subparsers(dest="command", required=True)

    s = command(sub, "expand", _cmd_expand, "greedy digit expansion of a rational", x, q)
    s.add_argument("--depth", type=int, required=True)
    s.add_argument("--probe", type=int, default=None,
                   help="cap on the tail-detection scan")
    s.add_argument("--digits", action="store_true",
                   help="print only the digit list")

    s = command(sub, "evaluate", _cmd_evaluate, "exact value of a digit string", q)
    s.add_argument("--prefix", required=True, help="comma-separated digits")
    s.add_argument("--tail", default="zero",
                   help='"zero", "max", {"periodic": [...]}, {"truncated": n}')

    s = command(sub, "classify", _cmd_classify, "terminating vs non-terminating expansion", x, q)
    s.add_argument("--probe", type=int, default=None)

    s = command(sub, "cylinder", _cmd_cylinder, "endpoints and measure of a digit cylinder", q)
    s.add_argument("--digits", required=True)

    s = command(sub, "shift", _cmd_shift, "shift / digit deletion / program application", x, q)
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int, help="apply the left shift n times")
    g.add_argument("--m", type=int, help="delete the m-th digit")
    g.add_argument("--program", help="shift-program JSON")

    s = command(sub, "normalize", _cmd_normalize, "rewrite a program to pure shifts when possible")
    s.add_argument("--program", required=True)

    salem = sub.add_parser("salem", help="digit-weight function systems")
    ssub = salem.add_subparsers(dest="salem_command", required=True)

    command(ssub, "validate", _cmd_salem_validate, "check system requirements", system)

    s = command(ssub, "eval", _cmd_salem_eval, "evaluate the system's function", system, x, tol)
    s.add_argument("--exact", action="store_true",
                   help="fail unless the value is closed exactly")

    s = command(ssub, "residual", _cmd_salem_residual,
                "defect of the k-th self-similarity equation", system, x)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--tol", default=format_rational(DEFAULT_TOL))

    command(ssub, "integral", _cmd_salem_integral, "exact Lebesgue mean", system)

    s = command(ssub, "table", _cmd_salem_table, "CSV table x,g,err_bound over a grid", system)
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--points", type=int, help="uniform grid size (includes 0 and 1)")
    g.add_argument("--grid", help="comma-separated rationals")
    s.add_argument("--tol", default=format_rational(DEFAULT_TOL))
    s.add_argument("--digits", type=int, default=12,
                   help="decimal places for the default rendering")
    s.add_argument("--exact", action="store_true",
                   help="print exact num/den instead of decimals")
    s.add_argument("--out", default=None, help="write CSV here instead of stdout")

    command(ssub, "mc", _cmd_salem_mc, "Monte-Carlo estimate of the mean", system, samples, seed)

    gk = sub.add_parser("gk", help="measure of digit-defined sets")
    gsub = gk.add_subparsers(dest="gk_command", required=True)

    s = command(gsub, "bounds", _cmd_gk_bounds, "exact lower/upper measure bounds", spec)
    s.add_argument("--depth", type=int, required=True)

    s = command(gsub, "mc", _cmd_gk_mc, "sampling estimate of the measure", spec, samples, seed)
    s.add_argument("--extra-depth", type=int, default=32)

    s = command(gsub, "scan", _cmd_gk_scan, "CSV bounds over a family parameter", q)
    s.add_argument("--family", required=True, help="generator rule JSON")
    s.add_argument("--rhs", required=True, help="threshold JSON")
    s.add_argument("--relation", default="lt", choices=["lt", "ge"])
    s.add_argument("--params", required=True, help='"a:b" range or comma list')
    s.add_argument("--depth", type=int, default=None, help="fixed depth for all rows")
    s.add_argument("--depth-offset", type=int, default=6,
                   help="depth = digits consumed + offset")
    s.add_argument("--digits", type=int, default=None,
                   help="print decimals with this precision instead of num/den")

    return p


# built by the first `main` call rather than at import, which keeps
# `import cantorshift.cli` cheap
_parser = None


def _fail(code: int, kind: str, exc: Exception, **extra) -> int:
    """Print the {"error": ...} object for `exc` to stderr, with the
    extras that are not None, and return the exit code."""
    err = {"type": kind, "message": str(exc)}
    err.update((k, v) for k, v in extra.items() if v is not None)
    _emit({"error": err}, sys.stderr)
    return code


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    # `json.loads` reads the integers of a JSON argument with `int`, and
    # one may have more digits than the interpreter's default int <-> str
    # limit (`numeral` converts rationals past it on its own).  The limit
    # is lifted for this call only
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = _parser.parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:  # -h/--help printed its text to stdout
        return exc.code
    except _UsageError as exc:
        return _fail(1, "usage", exc)
    except InsufficientDepthError as exc:
        return _fail(3, "insufficient-depth", exc, required=exc.required)
    except InvalidSystemError as exc:
        v = getattr(exc.report, "violation", None)
        return _fail(2, "invalid-system", exc, violation=v and asdict(v))
    except ValueError as exc:  # DomainError and stray parse errors
        return _fail(2, "domain", exc)
    finally:
        if lift:
            sys.set_int_max_str_digits(before)


if __name__ == "__main__":
    sys.exit(main())
