"""Integer reference arithmetic that the benchmark checks outputs against.

Nothing here calls cantorshift.  Digits come from integer division of
remainders, values from Horner sums over integers, so a check built on
these functions cannot share a defect with the code it checks.  A base
sequence is a `Base`: a finite head followed by a cycle repeated forever,
the same shape as `cantorshift.QSequence` but a separate implementation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class Base:
    """q_1, q_2, ... given as head values followed by a repeated cycle."""

    __slots__ = ("head", "cycle")

    def __init__(self, head, cycle):
        self.head = tuple(head)
        self.cycle = tuple(cycle)

    def at(self, k: int) -> int:
        if k <= len(self.head):
            return self.head[k - 1]
        return self.cycle[(k - len(self.head) - 1) % len(self.cycle)]

    def product(self, n: int) -> int:
        out = 1
        for k in range(1, n + 1):
            out *= self.at(k)
        return out

    def shift(self, n: int) -> "Base":
        if n < len(self.head):
            return Base(self.head[n:], self.cycle)
        return Base((), [self.at(k) for k in range(n + 1, n + 1 + len(self.cycle))])

    def remove_at(self, m: int) -> "Base":
        c = len(self.cycle)
        span = max(m, len(self.head))
        head = [self.at(k) for k in range(1, span + 1) if k != m]
        return Base(head, [self.at(k) for k in range(span + 1, span + 1 + c)])


def expansion(x: Fraction, base: Base) -> tuple[list[int], list[int]]:
    """Greedy digits of x in [0, 1) as (pre-period, period).

    The period is empty when the expansion terminates.  Recurrence is
    detected on the state (remainder, phase of the base cycle)."""
    num, den = x.numerator, x.denominator
    if not 0 <= num < den:
        raise ValueError("expansion needs 0 <= x < 1")
    h, c = len(base.head), len(base.cycle)
    digits: list[int] = []
    seen: dict = {}
    k = 0
    while num:
        if k >= h:
            state = (num, (k - h) % c)
            j = seen.get(state)
            if j is not None:
                return digits[:j], digits[j:]
            seen[state] = k
        q = base.at(k + 1)
        d, num = divmod(num * q, den)
        digits.append(d)
        k += 1
    return digits, []


def digits_value(prefix, period, base: Base) -> Fraction:
    """Exact value of the digit string prefix + period repeated forever."""
    prefix = list(prefix)
    period = list(period)
    if not any(period):
        period = []
    if period:
        # extend the prefix until the base is inside its cycle, then one
        # block of lcm(len(period), len(cycle)) digits repeats exactly
        L = len(period)
        while len(prefix) < len(base.head):
            prefix.append(period[0])
            period = period[1:] + period[:1]
        n = len(prefix)
        c = len(base.cycle)
        T = L * c // gcd(L, c)
        block_num, block_den = 0, 1
        for i in range(T):
            q = base.at(n + 1 + i)
            block_num = block_num * q + period[i % L]
            block_den *= q
    num, den = 0, 1
    for i, d in enumerate(prefix):
        q = base.at(i + 1)
        num = num * q + d
        den *= q
    value = Fraction(num, den)
    if period:
        value += Fraction(block_num, (block_den - 1) * den)
    return value


def frac_shift(x: Fraction, base: Base, n: int) -> Fraction:
    """n left shifts of x: the fractional part of x * q_1 ... q_n."""
    y = x * base.product(n)
    return y - (y.numerator // y.denominator)


def gen_shift_value(x: Fraction, base: Base, m: int) -> Fraction:
    """Digit m of x deleted: (floor(x Q_{m-1}) + frac(x Q_m)) / Q_{m-1}."""
    qm1 = base.product(m - 1)
    head = (x * qm1).numerator // (x * qm1).denominator
    return (head + frac_shift(x, base, m)) / qm1


def program_value(word, x: Fraction, base: Base) -> tuple[Fraction, Base]:
    """Value and base after running a word of ("sigma",) / ("gen", m) atoms
    on the greedy expansion of x."""
    for atom in word:
        if atom[0] == "sigma":
            x = frac_shift(x, base, 1)
            base = base.shift(1)
        else:
            x = gen_shift_value(x, base, atom[1])
            base = base.remove_at(atom[1])
    return x, base


def required_depth(word) -> int:
    req = 0
    for atom in reversed(word):
        req = req + 1 if atom[0] == "sigma" else max(atom[1], req + 1)
    return req


# ---------------------------------------------------------------------------
# Digit-weight functions
# ---------------------------------------------------------------------------

def _betas(p):
    out = [Fraction(0)]
    for w in p[:-1]:
        out.append(out[-1] + w)
    return out


def _series(digits, cols):
    """Sum of beta(d_k) * prod_{j<k} p(d_j) over digits consumed in order;
    cols[k] is the weight tuple applied to the k-th consumed digit."""
    total = Fraction(0)
    prod = Fraction(1)
    for d, p in zip(digits, cols):
        total += _betas(p)[d] * prod
        prod *= p[d]
    return total, prod


def salem_value(x: Fraction, weights=None, columns=None, swap_pairs=False) -> Fraction:
    """Exact value of the weight system's function at a rational x < 1.

    A fixed tuple with identity or swap-pairs order closes the periodic
    tail in one step, g(tail) = S / (1 - P) over one even-aligned block;
    a column matrix is a finite sum over its columns."""
    q = len(weights) if weights is not None else len(columns[0])
    pre, per = expansion(x, Base((), (q,)))
    per = per or [0]
    if columns is not None:
        n = len(columns)
        digits = (pre + per * (n // len(per) + 1))[:n]
        return _series(digits, columns)[0]
    if swap_pairs:
        if len(pre) % 2:
            pre = pre + per[:1]
            per = per[1:] + per[:1]
        if len(per) % 2:
            per = per * 2
        pre = [pre[i ^ 1] for i in range(len(pre))]
        per = [per[i ^ 1] for i in range(len(per))]
    head, head_prod = _series(pre, [weights] * len(pre))
    block, block_prod = _series(per, [weights] * len(per))
    return head + head_prod * block / (1 - block_prod)


def salem_mean(weights=None, columns=None) -> Fraction:
    """Lebesgue mean: digits are independent and uniform, E[p(d)] = 1/q."""
    if columns is not None:
        q = len(columns[0])
        return sum((sum(_betas(c)) / q / Fraction(q) ** k
                    for k, c in enumerate(columns)), Fraction(0))
    q = len(weights)
    return sum(_betas(weights), Fraction(0)) / (q - 1)
