"""Exact counting and rigorous iterated-exponential interval arithmetic.

Quantities in the deeper levels of the growth-sequence recursion are far too
large for exact integers, so they are carried as *towers*: a pair of rational
bounds at some exponential height, where a tower of height k with bounds
[lo, hi] encloses a value v with exp2^k(lo) <= v <= exp2^k(hi).  All rounding
is directed (lower bounds round down, upper bounds round up), so every
comparison that resolves is sound.  Comparisons that do not resolve report
Unknown at the fixed DEFAULT_PRECISION; callers report or fail, never guess.

This module alone decides which values stay exact.  The tower operations
also take plain ints, and on two of them return a plain int: add and sub
always, mul, pow and exp2 while the result fits EXACT_BIT_LIMIT bits (a
tower above that); le and cmp compare two ints directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, isqrt

PROMOTION_THRESHOLD = 2 ** 64  # promote to the next height above this
DEMOTION_LIMIT = 64            # drop a height when the upper bound is <= this
DEFAULT_PRECISION = 96         # fractional bits carried by log2/pow2 bounds
EXACT_BIT_LIMIT = 1 << 26      # largest integer we materialize exactly
LOG2_MEMO_BITS = 512           # log2 memoises operands of at most this many bits


class TowerDomainError(ArithmeticError):
    """An operation left the representable domain (e.g. log of <= 0)."""


class Cmp(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    UNKNOWN = "unknown"


def subset_count(m: int, k: int) -> int:
    """Number of subsets of an m-set of size at most k."""
    if m < 0 or k < 0:
        raise ValueError("subset_count needs non-negative arguments")
    return sum(comb(m, i) for i in range(min(m, k) + 1))


def _bits(x: int) -> int:
    return max(1, x.bit_length())


def _ints(a, b) -> bool:
    return isinstance(a, int) and isinstance(b, int)


def _exact_subset_count(m: int, k: int):
    """subset_count(m, k), or None when it could pass EXACT_BIT_LIMIT bits.
    For k >= m the count is 2**m; below that the binomial sum holds terms of
    up to i * bits(m) bits for i <= k, bits(m) * k(k+1)/2 in all."""
    if k >= m >= 0:
        return 1 << m if m <= EXACT_BIT_LIMIT else None
    if _bits(m) * k * (k + 1) // 2 > EXACT_BIT_LIMIT:
        return None
    return subset_count(m, k)


def _is_pow2(n: int) -> bool:
    """n > 0 is a power of two: no set bit below its top bit."""
    return not _bit_below(n, n.bit_length() - 1)


def _exact_pow(x: int, y: int):
    """x ** y for integers x and y >= 0, or None when the result could pass
    EXACT_BIT_LIMIT bits.  A power-of-two base is a shift."""
    bits = _bits(x)
    if y > EXACT_BIT_LIMIT // bits:  # y * bits > EXACT_BIT_LIMIT, unbuilt
        return None
    if y == 1:
        return x
    if x > 0 and _is_pow2(x):
        return 1 << ((bits - 1) * y)
    return x ** y


# ---------------------------------------------------------------------------
# directed rational log2 / pow2


def _bit_below(n: int, r: int) -> bool:
    """n >= 0 has a set bit below bit r >= 0.  The low 64 bits decide most
    huge n without scanning them; past them n is compared with itself
    shifted off bit r and back, cheaper than isolating its lowest set bit."""
    return bool(n & ((1 << min(r, 64)) - 1)) or r > 64 and n >> r << r != n


def _shr_ceil(n: int, s: int) -> int:
    """ceil(n / 2**s) for n >= 0, without materializing 2**s."""
    return (n >> s) + _bit_below(n, s)


def _floor_log2(x: Fraction) -> int:
    """floor(log2(x)) for x > 0; neither side is shifted up."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    ge = (n >> e) >= d if e >= 0 else n >= _shr_ceil(d, -e)
    return e if ge else e - 1


def _sq_chain_floor(t: int, prec: int) -> int:
    """Lower bound of 2**prec * log2(t / 2**prec) for t in [2**prec, 2**(prec+1))."""
    bits = 0
    v = t
    for _ in range(prec):
        v = (v * v) >> prec
        bits <<= 1
        if v >= (2 << prec):
            bits |= 1
            v >>= 1
    return bits


def _shifted_quotient(n: int, s: int, d: int, keep: int) -> int:
    """floor(n * 2**s / d) for n, d > 0.

    An operand longer than ``keep`` bits is cut to its top ``keep`` bits,
    with a sticky flag for a set bit the cut dropped.  The cut operands
    bound the quotient from both sides, the upper end open when a flag is
    set; when the two floors agree that is the answer.  Otherwise the full
    division decides.
    """
    rn = max(0, n.bit_length() - keep)
    rd = max(0, d.bit_length() - keep)
    if rn or rd:
        sn, sd = _bit_below(n, rn), _bit_below(d, rd)
        nt, dt = n >> rn, d >> rd
        e = s + rn - rd
        a_lo, a_hi, b_lo, b_hi = nt, nt + sn, dt + sd, dt
        if e >= 0:
            a_lo, a_hi = a_lo << e, a_hi << e
        else:
            b_lo, b_hi = b_lo << -e, b_hi << -e
        lo = a_lo // b_lo
        if not (sn or sd) or lo == (a_hi - 1) // b_hi:
            return lo
    return ((n << s) if s >= 0 else (n >> -s)) // d


def _log2_bounds(x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Directed bounds of log2(x) with prec fractional bits.  Promotions
    meet the same small operands again and again, so those are memoised; a
    longer operand costs more to hash than its log2 (a stopgap until the
    bounds are dyadic)."""
    if x.numerator.bit_length() + x.denominator.bit_length() <= LOG2_MEMO_BITS:
        return _log2_memo(x, prec)
    return _log2_kernel(x, prec)


def _log2_kernel(x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    n, d = x.numerator, x.denominator
    if n <= 0:
        raise TowerDomainError("log2 of a non-positive value")
    if _is_pow2(n) and _is_pow2(d):
        v = Fraction(n.bit_length() - d.bit_length())
        return v, v
    e = _floor_log2(x)
    keep = 2 * prec + 64
    # mantissa m = x / 2**e lies in (1, 2); lower bound via floor squaring
    t = _shifted_quotient(n, prec - e, d, keep)
    lo = e + Fraction(_sq_chain_floor(t, prec), 1 << prec)
    # upper bound: log2(m) = 1 - log2(2/m), bound 2/m = 2**(e+1) d / n from below
    t2 = _shifted_quotient(d, prec + e + 1, n, keep)
    hi = e + 1 - Fraction(_sq_chain_floor(t2, prec), 1 << prec)
    return Fraction(lo), Fraction(hi)


_log2_memo = lru_cache(maxsize=1024)(_log2_kernel)


def _exp2_frac(m: int, s: int, prec: int, up: bool) -> Fraction:
    """Directed bound of 2**(m / 2**s) for 0 <= m < 2**s."""
    P = prec + 8
    r = 1 << P
    z = 2 << P
    for i in range(1, s + 1):
        sq = isqrt(z << P)
        if up and sq * sq < (z << P):
            sq += 1
        z = sq
        if (m >> (s - i)) & 1:
            r = _shr_ceil(r * z, P) if up else (r * z) >> P
    return Fraction(r, 1 << P)


def _pow2_bounds(x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    if x.denominator == 1:
        n = x.numerator
        v = Fraction(1 << n) if n >= 0 else Fraction(1, 1 << -n)
        return v, v
    n = x.numerator // x.denominator
    f = x - n
    scale = Fraction(1 << n) if n >= 0 else Fraction(1, 1 << -n)
    s = prec
    mf = (f.numerator << s) // f.denominator
    lo = scale * _exp2_frac(mf, s, prec, up=False)
    hi = scale * _exp2_frac(min(mf + 1, (1 << s) - 1), s, prec, up=True)
    if mf + 1 >= (1 << s):
        hi = scale * 2
    return lo, hi


def _slack(height: int, w: Fraction) -> Fraction:
    """A delta with 2 * exp2^height(w) <= exp2^height(w + delta), and for
    w >= 1 also exp2^height(w - delta) <= exp2^height(w) / 2."""
    if height <= 1:
        return Fraction(1)
    wf = int(w) if w >= 1 else 0
    return Fraction(4, 2 ** min(wf, 126))


# ---------------------------------------------------------------------------
# towers


@dataclass(frozen=True)
class LogTower:
    """Value v with exp2^height(low) <= v <= exp2^height(high)."""

    height: int
    low: Fraction
    high: Fraction

    def __post_init__(self):
        if _less(self.high, self.low):
            raise ValueError("tower bounds out of order")

    @property
    def is_point(self) -> bool:
        return self.low == self.high

    @property
    def is_exact_int(self) -> bool:
        return self.height == 0 and self.is_point and self.low.denominator == 1


def _less(a, b) -> bool:
    """a < b for ints and Fractions.  Two integers compare by numerator:
    Fraction's own comparison multiplies each side by the other's
    denominator, which copies a multi-million-bit integer."""
    if a.denominator == 1 == b.denominator:
        return a.numerator < b.numerator
    return a < b


def tower(v) -> LogTower:
    if isinstance(v, LogTower):
        return v
    if isinstance(v, int):
        return _canonical(0, Fraction(v), Fraction(v))
    if isinstance(v, Fraction):
        return _canonical(0, v, v)
    raise TypeError(f"cannot make a tower from {type(v).__name__}")


def _canonical(height: int, low: Fraction, high: Fraction) -> LogTower:
    while height > 0 and high <= DEMOTION_LIMIT:
        low = _pow2_bounds(low, DEFAULT_PRECISION)[0]
        high = _pow2_bounds(high, DEFAULT_PRECISION)[1]
        height -= 1
    t = LogTower(height, low, high)
    while _less(PROMOTION_THRESHOLD, t.low):
        t = _promote(t)
    return t


def _log2_interval(low: Fraction, high: Fraction):
    """(lower bound of log2(low), upper bound of log2(high)); a point
    interval takes one log2."""
    lb = _log2_bounds(low, DEFAULT_PRECISION)
    hb = lb if high == low else _log2_bounds(high, DEFAULT_PRECISION)
    return lb[0], hb[1]


def _promote(t: LogTower) -> LogTower:
    """The same value one height up: log2 of both bounds."""
    return LogTower(t.height + 1, *_log2_interval(t.low, t.high))


def _align(x: LogTower, y: LogTower):
    while x.height < y.height:
        x = _promote(x)
    while y.height < x.height:
        y = _promote(y)
    return x, y


def _align_soft(x: LogTower, y: LogTower):
    """Promote the shorter tower while its bounds stay in log2's domain
    (low > 1); heights may still differ on return."""
    while x.height < y.height and x.low > 1:
        x = _promote(x)
    while y.height < x.height and y.low > 1:
        y = _promote(y)
    return x, y


def _dominates(tall: LogTower, short: LogTower, margin: int = 0) -> bool:
    """Sound check that tall >= 2**margin * short across a height gap.

    Uses exp2^j(t) >= t for t >= 1: if tall.low >= short.high + margin then
    exp2^{tall.h}(tall.low) >= exp2^{short.h}(short.high + margin).  A short
    tower with bounds below 1 is below exp2^{short.h}(1), which any taller
    tower with low >= 2 clears by a factor of 4 or more (margin <= 2).
    """
    if tall.height <= short.height:
        return False
    if short.high >= 1:
        return tall.low >= short.high + margin
    return margin <= 2 and tall.low >= 2


def tower_log2(x) -> LogTower:
    x = tower(x)
    if x.height >= 1:
        return _canonical(x.height - 1, x.low, x.high)
    return _canonical(0, *_log2_interval(x.low, x.high))


def tower_exp2(x):
    if isinstance(x, int) and 0 <= x <= EXACT_BIT_LIMIT:
        return 1 << x
    x = tower(x)
    return _canonical(x.height + 1, x.low, x.high)


def _is_zero(t: LogTower) -> bool:
    return t.height == 0 and t.low == t.high == 0


def tower_add(a, b):
    if _ints(a, b):
        return a + b
    x, y = tower(a), tower(b)
    if x.height == 0 and y.height == 0:
        return _canonical(0, x.low + y.low, x.high + y.high)
    if _is_zero(x):
        return y
    if _is_zero(y):
        return x
    x, y = _align_soft(x, y)
    if x.height != y.height:
        short, tall = (x, y) if x.height < y.height else (y, x)
        if _dominates(tall, short):
            # the short summand is below the tall one: sum <= 2 * tall
            slack = _slack(tall.height, tall.high)
            return _canonical(tall.height, tall.low, tall.high + slack)
        raise TowerDomainError("cannot add across an unresolved height gap")
    h = x.height
    lo = max(x.low, y.low)
    top = max(x.high, y.high)
    gap = top - min(x.high, y.high)
    if h == 1 and gap >= 2:
        slack = Fraction(2, 2 ** min(int(gap), 126))
    else:
        slack = _slack(h, top)
    return _canonical(h, lo, top + slack)


def tower_sub(a, b):
    if _ints(a, b):
        if a < b:
            raise TowerDomainError("negative difference")
        return a - b
    x, y = tower(a), tower(b)
    if x.height == 0 and y.height == 0:
        if x.low - y.high < 0:
            raise TowerDomainError("negative difference")
        return _canonical(0, x.low - y.high, x.high - y.low)
    if _is_zero(y):
        return x
    x, y = _align_soft(x, y)
    if x.height != y.height:
        if not _dominates(x, y, margin=1):
            raise TowerDomainError("cannot subtract across an unresolved height gap")
    elif y.high > x.low - 1:
        raise TowerDomainError("difference bounds too close to subtract soundly")
    # the subtrahend is at most half of x: difference >= x / 2
    lo = x.low - _slack(x.height, max(x.low, 1))
    return _canonical(x.height, lo, x.high)


def tower_mul(a, b):
    if _ints(a, b) and _bits(a) + _bits(b) <= EXACT_BIT_LIMIT:
        return a * b
    x, y = tower(a), tower(b)
    if _is_zero(x) or _is_zero(y):
        return tower(0)
    if x.height == 0 and y.height == 0:
        bits = (x.high.numerator.bit_length() + y.high.numerator.bit_length()
                + x.high.denominator.bit_length() + y.high.denominator.bit_length())
        if bits <= EXACT_BIT_LIMIT:
            return _canonical(0, x.low * y.low, x.high * y.high)
    return tower_exp2(tower_add(tower_log2(x), tower_log2(y)))


def tower_div(a, b) -> LogTower:
    x, y = tower(a), tower(b)
    if x.height == 0 and y.height == 0:
        if y.low <= 0:
            raise TowerDomainError("division by a bound interval touching zero")
        return _canonical(0, x.low / y.high, x.high / y.low)
    if _is_zero(x):  # y is above height 0, so positive
        return tower(0)
    lx, ly = tower_log2(x), tower_log2(y)
    if lx.height == 0 and ly.height == 0:  # a rational difference, maybe negative
        return tower_exp2(_canonical(0, lx.low - ly.high, lx.high - ly.low))
    return tower_exp2(tower_sub(lx, ly))


def tower_pow(a, b):
    # exact: of two ints as an int, of two integral height-0 points (an int
    # met by a tower is one only up to the promotion threshold) as a tower
    ints = _ints(a, b)
    x, y = (a, b) if ints else (tower(a), tower(b))
    if ints or x.is_exact_int and y.is_exact_int:
        p, q = (x, y) if ints else (int(x.low), int(y.low))
        v = _exact_pow(p, q) if q >= 0 else None
        if v is not None:
            return v if ints else _canonical(0, Fraction(v), Fraction(v))
    x, y = tower(x), tower(y)
    if _is_zero(y):
        return tower(1)
    if _is_zero(x):
        # a tower above height 0 is positive
        if y.height or y.low > 0:
            return tower(0)
        raise TowerDomainError("a zero base needs an exponent of 0 or above 0")
    return tower_exp2(tower_mul(y, tower_log2(x)))


def _compared(a, b):
    """The order of two ints, or of one object with itself, as a Cmp;
    otherwise both as canonical towers, aligned as far as log2's domain
    allows."""
    if _ints(a, b):
        return Cmp.EQUAL if a == b else Cmp.LESS if a < b else Cmp.GREATER
    if a is b:
        return Cmp.EQUAL
    x, y = tower(a), tower(b)
    return _align_soft(_canonical(x.height, x.low, x.high),
                       _canonical(y.height, y.low, y.high))


def _below(x: LogTower, y: LogTower, strict: bool) -> bool:
    """x < y (strict) or x <= y, proved for two aligned towers; across a
    height gap only the shorter is below, by a factor 2 when strict."""
    if x.height != y.height:
        return _dominates(y, x, margin=int(strict))
    return _less(x.high, y.low) if strict else not _less(y.low, x.high)


def tower_cmp(a, b) -> Cmp:
    """Sound three-way comparison; Unknown when the intervals overlap."""
    xy = _compared(a, b)
    if isinstance(xy, Cmp):
        return xy
    x, y = xy
    if _below(x, y, True):
        return Cmp.LESS
    if _below(y, x, True):
        return Cmp.GREATER
    return Cmp.EQUAL if _below(x, y, False) and _below(y, x, False) else Cmp.UNKNOWN


def tower_le(a, b):
    """Sound <=: True / False, or None when the enclosures overlap."""
    xy = _compared(a, b)
    if isinstance(xy, Cmp):
        return xy is not Cmp.GREATER
    x, y = xy
    return True if _below(x, y, False) else False if _below(y, x, True) else None


# ---------------------------------------------------------------------------
# expression trees


def _subset_count_bound(m: LogTower, k: LogTower) -> LogTower:
    """Enclosure of |[m]^{<=k}|, which is 2^m for k >= m; otherwise
    2^min(m, k) <= sum <= (k + 1) m^k."""
    c = tower_cmp(m, k)
    if m.is_exact_int and (k.is_exact_int or c in (Cmp.LESS, Cmp.EQUAL)):
        mi = int(m.low)
        v = _exact_subset_count(mi, int(k.low) if k.is_exact_int else mi)
        if v is not None:
            return tower(v)
    j = k if c is Cmp.GREATER else m if c is not Cmp.UNKNOWN else tower(0)
    lo, hi = _align(tower_exp2(j), tower_mul(tower_add(k, 1), tower_pow(m, k)))
    return LogTower(lo.height, lo.low, hi.high)


_OPS = {"add": tower_add, "mul": tower_mul, "sub": tower_sub, "div": tower_div,
        "pow": tower_pow, "subset_count_bound": _subset_count_bound}


def tower_eval(expr) -> LogTower:
    """Evaluate an expression tree to a rigorous tower enclosure.

    Nodes are {"op": name, "args": [...]}, each op folded left over its
    args; constants may appear directly as decimal strings or integers.
    """
    if isinstance(expr, (int, LogTower)):
        return tower(expr)
    if isinstance(expr, str):
        return tower(int(expr))
    op = expr["op"]
    if op == "const":
        return tower(int(expr["value"]))
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    return reduce(_OPS[op], [tower_eval(e) for e in expr["args"]])


def tower_to_json(t: LogTower) -> dict:
    return {"height": t.height,
            "low": f"{t.low.numerator}/{t.low.denominator}",
            "high": f"{t.high.numerator}/{t.high.denominator}"}
