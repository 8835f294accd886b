"""Independent re-implementations used as test oracles.

Everything here is written directly from the defining property, with no code
shared with the package, so agreement is meaningful evidence.
"""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction


def norm_direct(arena, members):
    """Largest k such that every k-subset of range(arena) lies inside some
    member; descending scan over all subset sizes."""
    members = [set(m) for m in members]
    best = 0
    for k in range(1, arena + 1):
        if all(any(set(sub) <= m for m in members)
               for sub in itertools.combinations(range(arena), k)):
            best = k
        else:
            break
    return best


def subset_count_direct(m, k):
    return sum(math.comb(m, j) for j in range(min(m, k) + 1))


def escape_measure_direct(c, h, cells, window):
    """Product over the window of (c(k) - |cell(k)|) / c(k)."""
    out = Fraction(1)
    for k in range(window[0], window[1]):
        out *= Fraction(c[k] - len(set(cells[k])), c[k])
    return out


def dominating_number_direct(x_size, y_size, rel):
    """Smallest D <= Y with every x related to some y in D; None if some x
    relates to nothing (the characteristic is infinite)."""
    for x in range(x_size):
        if not any(rel[x][y] for y in range(y_size)):
            return None
    for size in range(y_size + 1):
        for D in itertools.combinations(range(y_size), size):
            if all(any(rel[x][y] for y in D) for x in range(x_size)):
                return size
    return None


def unbounded_number_direct(x_size, y_size, rel):
    """Smallest U <= X with no single y relating to all of U; None if one y
    bounds everything (the characteristic is infinite)."""
    for size in range(x_size + 1):
        for U in itertools.combinations(range(x_size), size):
            if not any(all(rel[x][y] for x in U) for y in range(y_size)):
                return size
    return None


def single_family_level0(d0):
    """Level-0 values of the growth recursion, recomputed from scratch.
    Interval offsets start at zero, so min I = min J = 0 here."""
    d = d0
    h = d ** d
    g = h ** 2                    # (0 + h)^2 - 0
    b = 2 ** (g + d)
    c = 2 ** (2 * g + d)          # exponent g + (g + d)
    a = c ** h + 1
    return {"d": d, "h": h, "g": g, "b": b, "c": c, "a": a}


def branches_direct(coords):
    """Every branch of a condition given per coordinate as per-level member
    lists: per coordinate, a tuple of one member per level."""
    return list(itertools.product(*[itertools.product(*levels) for levels in coords]))


def reads_direct(coords, name, mode):
    """Does the condition read the name (a function of branches) timely or
    early?  From the definition, over pairs of branches: at every cut, two
    branches equal below the cut in every coordinate have the same first n
    values.  Early reading cuts below every level n (n = 1..N); timely
    reading cuts just above every split level n (a level where some
    coordinate has more than one member) and compares n values."""
    N = len(coords[0])
    if mode == "early":
        cuts = [(n, n) for n in range(1, N + 1)]
    else:
        cuts = [(n, n + 1) for n in range(N) if any(len(c[n]) > 1 for c in coords)]
    rows = [(b, tuple(name(b))) for b in branches_direct(coords)]
    return all(u[:n] == v[:n]
               for (a, u), (b, v) in itertools.combinations(rows, 2)
               for n, cut in cuts
               if all(x[:cut] == y[:cut] for x, y in zip(a, b)))


# ---------------------------------------------------------------------------
# tower enclosures: exp2^h(low) <= v <= exp2^h(high)

EXACT_BITS = 1 << 14   # integer sizes the containment checks may build
DIGITS = 100           # decimal digits of the logarithms they fall back to
MARGIN = Decimal(10) ** -60


def _bits(v):
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def exact_log2(v):
    """log2(v) when v > 0 is an integer power of two (2^n for an int n,
    negative n included), else None."""
    n, d = v.numerator, v.denominator
    if n > 0 and n & (n - 1) == 0 and d & (d - 1) == 0:
        return n.bit_length() - d.bit_length()
    return None


def _dec_log2(v):
    """log2 of an int v > 0 to DIGITS digits.  Past 400 bits only the top
    400 are read, which moves the result by less than 2^-398."""
    e = max(0, v.bit_length() - 400)
    return (Decimal(v >> e).ln() / Decimal(2).ln()) + e


def _sign(x):
    return (x > 0) - (x < 0)


def _exp_cmp(j, x, y):
    """Sign of exp2^j(x) - y for rationals x and y and j >= 0, or None when
    the decimal fallback cannot tell them apart."""
    if j == 0:
        return _sign(x - y)
    if y <= 0:
        return 1
    n = exact_log2(y)
    if n is not None:
        return _exp_cmp(j - 1, x, Fraction(n))
    p, q = x.numerator, x.denominator
    if j == 1 and abs(p) <= EXACT_BITS and q * _bits(y) <= EXACT_BITS:
        # 2^(p/q) against a/b: 2^p * b^q against a^q
        lhs, rhs = y.denominator ** q, y.numerator ** q
        return _sign((lhs << p) - rhs if p >= 0 else lhs - (rhs << -p))
    with localcontext() as ctx:
        ctx.prec = DIGITS
        # exp2^j(x) against y is x against log2 taken j times of y, while
        # each logarithm's argument is positive; exp2^i(x) > 0 for i >= 1
        z = _dec_log2(y.numerator) - _dec_log2(y.denominator)
        for _ in range(j - 1):
            if abs(z) <= MARGIN:
                return None
            if z < 0:
                return 1
            z = z.ln() / Decimal(2).ln()
        diff, tol = Decimal(p) / Decimal(q) - z, MARGIN * max(1, abs(z))
        return None if abs(diff) <= tol else _sign(diff)


def _cmp_exp(a, x, b, y):
    """Sign of exp2^a(x) - exp2^b(y); a negative height takes logarithms.
    Both sides take exp2 until the lower height is 0, which keeps the
    order since exp2 is increasing."""
    k = min(a, b)
    if b == k:
        return _exp_cmp(a - k, x, y)
    r = _exp_cmp(b - k, y, x)
    return None if r is None else -r


def encloses(t, v, shift=0):
    """Does t, an int or a tower with height, low and high, hold the real
    number exp2^shift(v) for a rational v (log2 taken -shift times when
    shift < 0)?  True or False where decided, by exact integers where their
    size allows and by DIGITS-digit logarithms outside MARGIN otherwise;
    None (undecided) inside that margin."""
    v = Fraction(v)
    if isinstance(t, int):
        h, low, high = 0, Fraction(t), Fraction(t)
    else:
        h, low, high = t.height, t.low, t.high
    below = _cmp_exp(h, low, shift, v)
    above = _cmp_exp(h, high, shift, v)
    if below == 1 or above == -1:
        return False
    if below is None or above is None:
        return None
    return True


def exact_op(op, args):
    """The exact value of one tower operation on exact arguments, each a
    pair (shift, v) for the real exp2^shift(v) as in encloses; None when it
    is undefined or too large to build.  2^v is built while v <= EXACT_BITS
    and log2 of a power of two is taken, so shift is 0 where it can be."""
    if op == "exp2":
        (s, v), = args
        return _settle(s + 1, v)
    if op == "log2":
        (s, v), = args
        return _settle(s - 1, v) if s > 0 or (s == 0 and v > 0) else None
    if any(s for s, _ in args):
        return None
    x, y = (v for _, v in args)
    if op == "add":
        return 0, x + y
    if op == "sub":
        return 0, x - y
    if op == "mul":
        return (0, x * y) if _bits(x) + _bits(y) <= EXACT_BITS else None
    if y.denominator != 1 or y < 0 or x < 0:
        return None
    if op == "pow":
        n = exact_log2(x) if x else None
        if n is not None:
            return _settle(1, n * y)
        return (0, x ** int(y)) if y * _bits(x) <= EXACT_BITS else None
    # subset_count_bound: the number of subsets of an x-set of size <= y
    if x.denominator != 1:
        return None
    if y >= x:
        return _settle(1, x)
    if y * _bits(x) <= EXACT_BITS:
        return 0, Fraction(subset_count_direct(int(x), int(y)))
    return None


def _settle(s, v):
    while s > 0 and v.denominator == 1 and abs(v) <= EXACT_BITS:
        s, v = s - 1, Fraction(2) ** int(v)
    while s < 0 and exact_log2(v) is not None:
        s, v = s + 1, Fraction(exact_log2(v))
    return s, v
