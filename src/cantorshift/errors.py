"""Exception types and input limits shared across the package."""

from functools import wraps

__all__ = ["DomainError", "InsufficientDepthError", "InvalidSystemError"]

# Largest sample count `mc_mean` and `measure_mc` accept.  A larger one is
# refused with a DomainError before any digit is drawn.
MAX_SAMPLES = 10**7

# Largest decimal exponent, in size, that `numeral.parse_rational` expands.
# 1e-30000000 would build a 30-million-digit denominator first, so a larger
# one is refused with a DomainError.  The CLI's decimal rendering
# (`salem table --digits`, `gk scan --digits`) takes at most this many
# places, for the same reason.
MAX_EXPONENT = 10**4

# Largest uniform grid `salem.emit_table` evaluates, and most parameters
# `gausskuzmin.limit_scan` runs.  Larger inputs are refused with a
# DomainError before a point or a parameter is built.
MAX_POINTS = 10**5
MAX_PARAMS = 10**5

# Largest depth `numeral.expand` expands to, and largest cylinder rank
# `gausskuzmin.measure_bounds` walks (depth 20000 took 11 s and 295 MB).
# A deeper request is refused with a DomainError before any digit is read.
MAX_EXPAND_DEPTH = 10**6
MAX_BOUNDS_DEPTH = 10**4

# Most digits an expansion scan reads.  The default scans of
# `numeral.expand_exact` (and so of every Salem point) and
# `numeral.classify_rationality` stop there: the first refuses an x whose
# preperiod plus period is longer with a DomainError, the second answers
# "undecided".  A larger explicit probe, `numeral.expand`'s `probe_limit`
# or `classify_rationality`'s `probe_depth`, is refused with a DomainError
# before any digit is scanned.  A 10**7-step scan took about 2 s and
# 93 MB, and 1/1000003 (period 1000002) still closes within it.
MAX_PROBE = 10**7

# Largest depth a shift program may require (`shifts.required_depth`), on
# a rational or a digit string: `shift_n`, `gen_shift`, `apply_program` and
# `drop_positions`.  A deeper one is refused with a DomainError before any
# base value or digit is read.  A generator rule's word holds at most this
# many atoms, since each adds at least 1 to the required depth; a longer
# one is refused before it is built.
MAX_PROGRAM_DEPTH = 10**6


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class InsufficientDepthError(ValueError):
    """A digit string does not carry enough known digits for the request.

    `required` holds a prefix length the request needs; every raise in the
    package sets it.  Where that length is known before a digit is read (a
    program's required depth, a materialization), it is the least one that
    suffices.  A Salem sum over a truncated string reads its digits as it
    goes and raises at the first missing position, so there `required` is
    only a lower bound: the depth-6 string of 1/3 under the weights
    (1/3, 2/3) reports 7, but depth 54 is the first that succeeds.  This is
    on purpose: finding the least depth first would plan the whole sum
    before the error, and for weights near 1 that is tens of thousands
    of steps, each multiplying the integer remainder bound and comparing
    it with the tolerance.  A step past the end of a finite schedule is
    a DomainError instead: no deeper string would help.
    """

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class InvalidSystemError(ValueError):
    """A coefficient system failed validation; `report` has the details."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def json_decoder(func):
    """Make a JSON decoder raise DomainError on input of the wrong shape:
    a missing key, or a value of the wrong type or out of float range."""

    @wraps(func)
    def decode(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (AttributeError, LookupError, OverflowError, TypeError) as exc:
            raise DomainError(
                f"malformed input to {func.__qualname__}: {exc!r}") from exc

    return decode


def json_int(value) -> int:
    """An integer read from JSON or passed as a count: an int, or a float,
    string or other number naming one (3, 3.0, "3" or Fraction(6, 2)).  A
    number with a fractional part, such as 2.5 or Fraction(5, 2), or a
    boolean, is refused with a DomainError instead of being truncated or
    read as 0 or 1, and so is any value `int()` does not take: one of
    another type, such as None, a list or 1j, a string such as "abc",
    nan or inf."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"expected an integer, got {value!r}") from exc
    if isinstance(value, bool) or n != value and not isinstance(value, str):
        raise DomainError(f"expected an integer, got {value!r}")
    return n


def json_list(value):
    """A JSON array: a list or a tuple, returned as it is.  Anything else,
    a string above all, is refused with a DomainError instead of being
    read item by item."""
    if not isinstance(value, (list, tuple)):
        raise DomainError(f"expected a JSON array, got {value!r}")
    return value
