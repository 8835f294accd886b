import hashlib
import json
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from creaturelab import numeric
from creaturelab.numeric import (
    EXACT_BIT_LIMIT,
    LogTower,
    Cmp,
    TowerDomainError,
    subset_count,
    tower,
    tower_add,
    tower_cmp,
    tower_div,
    tower_eval,
    tower_exp2,
    tower_le,
    tower_log2,
    tower_mul,
    tower_pow,
    tower_sub,
    tower_to_json,
    _align,
    _bit_below,
    _exact_pow,
    _exact_subset_count,
    _floor_log2,
    _is_pow2,
    _log2_bounds,
    _pow2_bounds,
    _shifted_quotient,
    _shr_ceil,
    _sq_chain_floor,
)

from oracles import encloses, exact_op, subset_count_direct


@given(st.integers(0, 30), st.integers(0, 30))
def test_subset_count_matches_binomial_sum(m, k):
    assert subset_count(m, k) == subset_count_direct(m, k)


def test_subset_count_frozen_values():
    assert subset_count(4, 2) == 11
    assert subset_count(5, 0) == 1
    assert subset_count(3, 7) == 8


@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
def test_exact_arithmetic_on_small_integers(a, b):
    assert tower_cmp(tower_add(tower(a), tower(b)), tower(a + b)) is Cmp.EQUAL
    assert tower_cmp(tower_mul(tower(a), tower(b)), tower(a * b)) is Cmp.EQUAL
    if a >= b:
        assert tower_cmp(tower_sub(tower(a), tower(b)),
                         tower(a - b)) is Cmp.EQUAL
    assert tower_cmp(tower_div(tower(a), tower(b)),
                     tower(Fraction(a, b))) is Cmp.EQUAL


@given(st.integers(1, 10 ** 9))
def test_cmp_agrees_with_integers(a):
    b = a + 1
    assert tower_cmp(tower(a), tower(b)) is Cmp.LESS
    assert tower_cmp(tower(b), tower(a)) is Cmp.GREATER
    assert tower_cmp(tower(a), tower(a)) is Cmp.EQUAL
    assert tower_le(tower(a), tower(b)) is True
    assert tower_le(tower(b), tower(a)) is False


def test_exp2_log2_roundtrip_exact_powers():
    for e in (0, 1, 5, 20):
        t = tower_exp2(tower(e))
        assert tower_cmp(t, tower(2 ** e)) is Cmp.EQUAL
        assert tower_cmp(tower_log2(t), tower(e)) is Cmp.EQUAL


def test_log2_bounds_enclose_true_value():
    t = tower_log2(tower(10))
    assert t.height == 0
    assert float(t.low) <= math.log2(10) <= float(t.high)


def test_pow_promotes_above_exact_limit():
    big = tower_pow(tower(2), tower(2 ** 70))
    assert big.height >= 1
    assert tower_cmp(big, tower(10 ** 18)) is Cmp.GREATER
    assert tower_le(tower(10 ** 18), big) is True


def test_pow_of_a_zero_base_past_the_exact_budget():
    """0^y is 1 for y = 0 and 0 for every y above 0, however large; an
    exponent that may be 0 or below is refused, naming the zero base."""
    assert tower_pow(tower(0), tower(0)) == tower(1)
    for y in (2 ** 30, 2 ** 100, Fraction(7, 3), LogTower(0, Fraction(1, 2), Fraction(6)),
              tower_exp2(tower(100))):
        assert tower_pow(0, y) == tower(0)
    with pytest.raises(TowerDomainError, match="zero base"):
        tower_pow(0, LogTower(0, Fraction(-1), Fraction(2)))


def test_cross_height_comparison_and_arithmetic():
    tall = tower_exp2(tower_exp2(tower_exp2(tower(10))))
    small = tower(10 ** 9)
    assert tower_cmp(tall, small) is Cmp.GREATER
    assert tower_cmp(small, tall) is Cmp.LESS
    assert tower_le(small, tall) is True
    assert tower_le(tall, small) is False
    s = tower_add(tall, small)
    assert tower_le(tall, s) is True
    d = tower_sub(tall, small)
    assert tower_cmp(d, small) is Cmp.GREATER


def test_align_promotes_the_lower_operand_on_either_side():
    three, high = tower(3), LogTower(1, Fraction(10), Fraction(10))
    assert _align(three, high) == (numeric._promote(three), high)
    assert _align(high, three) == (high, numeric._promote(three))
    assert _align(three, tower(5)) == (three, tower(5))


def test_sub_refuses_unresolvable_gap():
    tall = tower_exp2(tower_exp2(tower_exp2(tower(10))))
    with pytest.raises(TowerDomainError):
        tower_sub(tower(5), tall)


def test_eval_expression_tree():
    expr = {"op": "add", "args": [{"op": "pow", "args": [2, 10]}, 1]}
    assert tower_cmp(tower_eval(expr), tower(1025)) is Cmp.EQUAL
    expr2 = {"op": "subset_count_bound", "args": [4, 2]}
    assert tower_cmp(tower_eval(expr2), tower(11)) is Cmp.EQUAL
    # the three leaf forms: an int, a decimal string and a const node
    expr3 = {"op": "mul", "args": [3, "5", {"op": "const", "value": 7}]}
    assert tower_cmp(tower_eval(expr3), tower(105)) is Cmp.EQUAL


def _log2_bounds_full_division(x, prec):
    """The log2 bounds with both quotients taken by full division."""
    n, d = x.numerator, x.denominator
    e = _floor_log2(x)
    s = prec - e
    t = ((n << s) if s >= 0 else (n >> -s)) // d
    lo = e + Fraction(_sq_chain_floor(t, prec), 1 << prec)
    s2 = prec + e + 1
    t2 = ((d << s2) if s2 >= 0 else (d >> -s2)) // n
    hi = e + 1 - Fraction(_sq_chain_floor(t2, prec), 1 << prec)
    return lo, hi


@settings(max_examples=60, deadline=None)
@given(st.integers(10 ** 3, 10 ** 6), st.integers(1, 2 * 10 ** 4),
       st.integers(0, 2 ** 32), st.sampled_from([32, 96]))
def test_log2_bounds_match_full_division_on_huge_operands(nbits, dbits,
                                                          seed, prec):
    rng = Random(seed)
    n = rng.getrandbits(nbits) | (1 << (nbits - 1))
    d = rng.getrandbits(dbits) | 1
    for x in (Fraction(n), Fraction(n, d), Fraction(d, n)):
        if x.numerator & (x.numerator - 1) == 0 \
                and x.denominator & (x.denominator - 1) == 0:
            continue
        assert _log2_bounds(x, prec) == _log2_bounds_full_division(x, prec)


def test_log2_bounds_fall_back_when_the_top_bits_cannot_decide():
    # each of these once reached the full division: the top bits of 2**M or
    # 2**M +- 1 could not tell the quotient from an exact integer.  The
    # sticky bit of the cut now decides all of them from the top bits but
    # the lower quotient of 3 / (2**100003 + 1); either way the bounds are
    # those of the full division
    for M in (1000, 5000, 100_003):
        for x in (Fraction(3, 2 ** M), Fraction(5, 2 ** M),
                  Fraction(2 ** M + 1), Fraction(1, 2 ** M + 1),
                  Fraction(2 ** M - 1), Fraction(3, 2 ** M + 1)):
            assert _log2_bounds(x, 96) == _log2_bounds_full_division(x, 96)
    assert _shifted_quotient(1, 5097, 2 ** 5000, 256) == 2 ** 97
    n = 2 ** 5000 + 1
    assert _shifted_quotient(1, 5097, n, 256) == (1 << 5097) // n
    assert _shifted_quotient(n, 100, 3 ** 4000, 64) == (n << 100) // 3 ** 4000


@pytest.mark.parametrize("K", [300, 5000, 100_003])
def test_log2_bounds_of_the_family_shapes_match_full_division(K):
    """The level-0 values the families build: 2^K + 1, 3 * 2^K + 4 and
    3 * 2^K + 5 (a set bit far below the cut), and k * 2^K (a zero tail)."""
    for n in (2 ** K + 1, 3 * 2 ** K + 4, 3 * 2 ** K + 5,
              *(k * 2 ** K for k in (3, 5, 7, 12, 2 ** 70 + 1))):
        for x in (Fraction(n), Fraction(1, n)):
            assert _log2_bounds(x, 96) == _log2_bounds_full_division(x, 96)


def test_shifted_quotient_falls_back_where_the_cut_straddles_an_integer():
    # n / d is 2^62 +- 1/d: the top 64 bits of n and d put the floor at
    # 2^62 - 1 or 2^62, so only the full division decides
    d = 2 ** 300 + 12345
    for n in (d * 2 ** 62 + 1, d * 2 ** 62 - 1):
        nt, dt = n >> n.bit_length() - 64, d >> d.bit_length() - 64
        assert (nt << 62) // (dt + 1) < 2 ** 62 <= ((nt + 1 << 62) - 1) // dt
        assert _shifted_quotient(n, 0, d, 64) == n // d


def test_shifted_quotient_matches_the_full_division():
    """20,000 seeded cases against floor(n 2^s / d): n and d of 1-600 bits,
    s in [-300, 300], keep 64 or 256.  Answering from the cut operands
    whenever either cut is exact (`not (sn and sd)`) gets 2,236 of them
    wrong."""
    rng = Random(2118)
    for _ in range(20000):
        n, d = (rng.getrandbits(b) | 1 << b - 1 for b in (rng.randint(1, 600),
                                                          rng.randint(1, 600)))
        s, keep = rng.randint(-300, 300), rng.choice((64, 256))
        assert _shifted_quotient(n, s, d, keep) == \
            ((n << s) if s >= 0 else n >> -s) // d, (n, s, d, keep)


def _operand(rng) -> int:
    """A positive integer of 1-600 bits, its top bit set."""
    b = rng.randint(1, 600)
    return rng.getrandbits(b) | 1 << b - 1


def test_shr_ceil_matches_its_definition():
    """20,000 seeded cases against -(-n // 2**s), s in [0, 700]: n of 0-600
    bits, or in a third of the cases such an n times 2**s, or one off it."""
    rng = Random(2124)
    for _ in range(20000):
        s = rng.randint(0, 700)
        n = _operand(rng) >> rng.randint(0, 1)
        if rng.random() < 1 / 3:
            n = max(0, (n << s) + rng.choice((-1, 0, 1)))
        assert _shr_ceil(n, s) == -(-n // 2 ** s), (n, s)


def _floor_log2_direct(x: Fraction) -> int:
    """The e with 2**e <= x < 2**(e+1), bisected by exact comparisons over
    the span a quotient of 600-bit integers can reach."""
    lo, hi = -601, 601  # 2**lo <= x < 2**hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if Fraction(2) ** mid <= x else (lo, mid)
    return lo


def test_floor_log2_matches_exact_comparison_with_powers_of_two():
    """10,000 seeded cases: n / d with n and d of 1-600 bits, or in a third
    of the cases d 2**k (k <= 300), or one off it, over d or under it."""
    rng = Random(2125)
    for _ in range(10000):
        n, d = _operand(rng), _operand(rng)
        if rng.random() < 1 / 3:
            near = max(1, (d << rng.randint(0, 300)) + rng.choice((-1, 0, 1)))
            n, d = (near, d) if rng.random() < 0.5 else (d, near)
        x = Fraction(n, d)
        assert _floor_log2(x) == _floor_log2_direct(x), (n, d)


def test_overlapping_enclosures_are_undecided():
    """[5, 6] against [4, 5]: both values may be 5, so neither <= nor a
    three-way answer is proved."""
    x, y = LogTower(0, Fraction(5), Fraction(6)), LogTower(0, Fraction(4), Fraction(5))
    assert tower_le(x, y) is None
    assert tower_cmp(x, y) is Cmp.UNKNOWN


def test_log2_of_a_33m_bit_operand_builds_nothing_of_its_size():
    """The log2 bounds of 2^(2^25) + 1, of 3 (2^(2^25) + 1) + 1 and of
    their reciprocal, and the refusal of a 2^25-bit exponent, each peak
    under 1 MB: none builds a shifted copy, a full-width quotient or a
    product the size of its 4 MB operand."""
    big = 2 ** 2 ** 25 + 1
    calls = [lambda x=x: _log2_bounds(x, 96)
             for x in (Fraction(big), Fraction(3 * big + 1), Fraction(1, big))]
    calls.append(lambda: _exact_pow(3, big))
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_exact_pow_shift_and_limit():
    for x in (1, 2, 3, 4, 7, 8, 1024, -2, -3, 0):
        for y in (0, 1, 2, 5, 33):
            assert _exact_pow(x, y) == x ** y
    assert _exact_pow(4, 256) == 2 ** 512
    # the guard is y > EXACT_BIT_LIMIT // bitlen(x), so base 2 stops at
    # half the limit, and a 2^25-bit exponent is refused unmultiplied
    half = EXACT_BIT_LIMIT // 2
    assert _exact_pow(2, half) == 1 << half
    assert _exact_pow(2, half + 1) is None
    assert _exact_pow(3, EXACT_BIT_LIMIT // 2 + 1) is None
    assert _exact_pow(3, 2 ** 2 ** 25) is None
    # a first power is its base, not a copy; a zeroth power is 1
    for x in (3, 2 ** 70, 3 ** 1000, 2 ** 2 ** 25 + 1):
        assert _exact_pow(x, 1) is x
        assert _exact_pow(x, 0) == 1


def test_set_bit_scans_match_their_old_definitions():
    """_bit_below and _is_pow2 against (n & -n).bit_length() <= r and
    n.bit_count() == 1, on 1, 2^K, 2^K +- 1, 3 2^K and 2^K + 2^j for K up
    to 2^25, at r = 0, 1, 63, 64, 65 and around the top bit."""
    cases = 0
    for K in (0, 1, 2, 62, 63, 64, 65, 66, 100, 4097, 2 ** 20, 2 ** 25):
        p = 1 << K
        shapes = {1, p, p + 1, p - 1, 3 * p}
        shapes |= {p + (1 << j) for j in {0, 1, 63, 64, 65, K // 2, K - 1} if 0 <= j < K}
        for n in shapes:
            if n > 0:
                assert _is_pow2(n) == (n.bit_count() == 1), (K, n.bit_length())
            top = n.bit_length()
            for r in {0, 1, 63, 64, 65, max(top - 1, 0), top, top + 1}:
                assert _bit_below(n, r) == (0 < (n & -n).bit_length() <= r), (K, r)
                cases += 1
    assert cases > 400


def test_two_ints_stay_exact_under_the_bit_limit():
    assert tower_add(2 ** 70, 1) == 2 ** 70 + 1
    assert tower_sub(2 ** 70, 1) == 2 ** 70 - 1
    with pytest.raises(TowerDomainError):
        tower_sub(3, 4)
    assert tower_mul(3 ** 50, 5 ** 40) == 3 ** 50 * 5 ** 40
    assert tower_pow(3, 200) == 3 ** 200
    assert tower_exp2(0) == 1 and tower_exp2(1000) == 2 ** 1000
    assert tower_le(2 ** 80, 2 ** 80 + 1) is True
    assert tower_le(5, 4) is False
    assert tower_cmp(7, 7) is Cmp.EQUAL and tower_cmp(6, 7) is Cmp.LESS
    assert tower_cmp(2 ** 90, 7) is Cmp.GREATER
    # past the limit the same calls give tower enclosures
    half = EXACT_BIT_LIMIT // 2
    big = tower_mul(2 ** half, 2 ** half)
    assert isinstance(big, LogTower)
    assert big.height == 1 and big.low <= 2 * half <= big.high
    assert isinstance(tower_pow(3, EXACT_BIT_LIMIT), LogTower)
    assert isinstance(tower_exp2(EXACT_BIT_LIMIT + 1), LogTower)


def test_exact_subset_count_budget():
    for m in range(12):
        for k in range(14):
            assert _exact_subset_count(m, k) == subset_count(m, k)
    assert _exact_subset_count(10 ** 6, 10 ** 6 + 5) == 2 ** (10 ** 6)
    assert _exact_subset_count(EXACT_BIT_LIMIT + 1, EXACT_BIT_LIMIT + 1) is None
    # k = 256 binomials of a 131,077-bit m: about 4.3e9 bits of terms
    assert _exact_subset_count(2 ** 131076, 256) is None
    assert _exact_subset_count(2 ** 100, 20) == subset_count(2 ** 100, 20)


def _count_bound(m, k):
    return tower_eval({"op": "subset_count_bound", "args": [m, k]})


def test_subset_count_bound_of_all_subsets_is_a_shift():
    start = time.perf_counter()
    t = _count_bound(100000, 100000)
    assert time.perf_counter() - start < 1.0
    assert tower_cmp(t, tower(2 ** 100000)) is Cmp.EQUAL
    assert tower_cmp(_count_bound(10, 2 ** 100), tower(1024)) is Cmp.EQUAL


def test_subset_count_bound_encloses_past_the_exact_budget():
    # the sum over an m-set with k >= m is exactly 2^m = exp2^2(100)
    t = _count_bound(2 ** 100, 2 ** 100)
    assert t.height == 2 and t.low <= 100 <= t.high
    # 2^20 <= sum <= 21 * (2^100)^20 < 2^2005
    t = _count_bound(2 ** 100, 20)
    assert tower_le(tower(2 ** 20), t) is True
    assert tower_le(t, tower_exp2(tower(2005))) is True


def test_pow2_bounds_enclose_fractional_powers():
    # x = m / 2^s: lo^(2^s) <= 2^m <= hi^(2^s), checked in exact rationals;
    # s > prec reaches the edge where the upper mantissa rounds up to 2 (at
    # prec 16 its 2^17-th powers take most of a second, so only 8 and 12)
    edges = 0
    for prec in (8, 12, 16):
        cases = [(m, s) for s in (1, 2, 3, 5) for m in range(-3 << s, 3 << s)
                 if m % 2]
        if prec < 16:
            cases += [(m, prec + 1) for m in (-1, (1 << prec + 1) - 1,
                                              (3 << prec + 1) - 1)]
        for m, s in cases:
            x = Fraction(m, 1 << s)
            lo, hi = _pow2_bounds(x, prec)
            assert lo ** (1 << s) <= Fraction(2) ** m <= hi ** (1 << s)
            assert (hi - lo) * 2 ** (prec - 1) <= hi
            f = x - math.floor(x)
            edges += (f.numerator << prec) // f.denominator + 1 >= 1 << prec
    assert edges == 6


_BINARY = {"add": tower_add, "sub": tower_sub, "mul": tower_mul,
           "pow": tower_pow, "subset_count_bound": _count_bound}
_UNARY = {"exp2": tower_exp2, "log2": tower_log2}

# bit lengths: any up to 400, and often the same few, so that operands
# meet at one tower height and close to each other
_bit_length = st.one_of(st.integers(0, 400), st.sampled_from([2, 8, 64, 65, 66, 100, 101]))
_leaf = st.tuples(_bit_length.flatmap(lambda b: st.integers(1 << b >> 1, (1 << b) - 1)),
                  st.booleans())
_trees = st.recursive(_leaf, lambda kids: st.one_of(
    st.tuples(st.sampled_from(sorted(_BINARY)), kids, kids),
    st.tuples(st.sampled_from(sorted(_UNARY)), kids)), max_leaves=6)


def _walk(tree, seen):
    """(the package's value, the exact value as exact_op's pair) of one
    tree, either None where undefined; each resolved node is checked."""
    if isinstance(tree[0], int):
        v, wrap = tree
        return (tower(v) if wrap else v), (0, Fraction(v))
    op, *kids = tree
    vals, exact = zip(*(_walk(k, seen) for k in kids))
    if None in vals:
        return None, None
    try:
        out = {**_BINARY, **_UNARY}[op](*vals)
    except ArithmeticError:
        seen[op, "refused"] += 1
        return None, None
    e = None if None in exact else exact_op(op, exact)
    if e is None:
        seen[op, "unchecked"] += 1
        return out, None
    verdict = encloses(out, e[1], e[0])
    assert verdict is not False, (tree, out, e)
    seen[op, "undecided" if verdict is None else "enclosed"] += 1
    return out, e


def test_tower_ops_enclose_the_exact_value(monkeypatch):
    """Random trees of tower operations on operands of 0-400 bits, passed
    as ints or as towers (heights 0-1): every result that resolves holds
    the exact value, and the oracle leaves few of them undecided.  Exact
    results stop at 2^12 bits here, so that no tree builds the
    multi-million-bit powers the default limit allows."""
    monkeypatch.setattr(numeric, "EXACT_BIT_LIMIT", 1 << 12)
    seen = Counter()

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(_trees)
    # an exact power of two across a height gap from 1: the sum is above it
    @example(("add", ("exp2", (100, False)), (1, True)))
    def check(tree):
        _walk(tree, seen)

    check()
    outcome = Counter()
    for (_, kind), n in seen.items():
        outcome[kind] += n
    assert all(seen[op, "enclosed"] for op in {**_BINARY, **_UNARY}), seen
    assert outcome["undecided"] * 20 <= outcome["enclosed"], outcome


# every op over every ordered pair of these operands, pinned by digest:
# ints at and around the promotion threshold, a Fraction, height-0 towers
# (a point and an interval) and towers of heights 1-3
_H1 = tower_exp2(tower(100))
_OPERANDS = [0, 1, 2, 3, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 2 ** 100, Fraction(7, 3),
             tower(5), LogTower(0, Fraction(9, 2), Fraction(6)), _H1,
             tower_exp2(tower_exp2(LogTower(0, Fraction(90), Fraction(91)))),
             tower_exp2(tower_exp2(_H1))]
_NUMERIC_GOLDEN = {
    "add": "3992673de4c0abd4e02e65b99840a501a78d20de11160558e7770440b39e9f40",
    "sub": "e7534f3b26ed2f0cfe731f664aaf092e54aaf1d431572cbc395b8c8c50f23c2d",
    "mul": "e8911d59de8dadcfc7b8174deb96d7f8e50795198069875dd38c5596ef2ecf22",
    # re-pinned when a quotient below 1 of operands of heights 0-1 stopped
    # being refused as a negative difference: its 27 lines went to an enclosure;
    # re-pinned again when 0 / y became 0 for y above height 0: the 5 lines of
    # 0 against 2^64+1, 2^100 and the towers of heights 1-3 went from a refused
    # log2(0) to 0
    "div": "e4685d01f27f1961df6a0042593c5cb72b88e7eb4481b9ad4a687543d1fa9d5a",
    # re-pinned when a zero base met an exponent above 0 past the exact
    # budget: its 9 lines went from a refused log2(0) to 0
    "pow": "0bdb6493df6e7b725ba1b2f347358a381a721430ccd4702a0b7fe2288f68e842",
    "cmp": "4840db6b3f2ad15abd91fe544456cacec405794a199c1154ebcdde77d6096f90",
    "le": "bf8772ede4a6d6269dc0295d329167025f9f4848177142c0b359bb13a505d2f7",
    "log2": "4addb86693959dc0af197c9e2ac3d499e7332e24fab4e6d9e1e2116dfe45aebe",
    "exp2": "4b3193aee1e4578327d1d24c3e9d68bb69793d73dd5fd8f744aaf21f92fe8955",
    "subset_count_bound": "26d27af64423be2251cc4031d79837f4efea3098ebd8baee9848a8bfeb6e9ad7",
}


def _golden_line(fn, *args):
    try:
        out = fn(*args)
    except Exception as e:
        return f"{type(e).__name__}: {e}"
    if isinstance(out, LogTower):
        return json.dumps(tower_to_json(out))
    if isinstance(out, Cmp):
        return out.value
    return f"int {out:x}" if type(out) is int else repr(out)


def test_every_op_on_every_operand_pair_is_pinned():
    """Values, int-or-tower types, Unknowns and refusals all count: an int
    above 2^64 that meets a tower is promoted before the op sees it."""
    leaf = lambda x: tower(x) if isinstance(x, Fraction) else x
    binary = {**_BINARY, "div": tower_div, "cmp": tower_cmp, "le": tower_le,
              "subset_count_bound": lambda m, k: _count_bound(leaf(m), leaf(k))}
    got = {}
    for name, fn in {**binary, **_UNARY}.items():
        pairs = [(x,) for x in _OPERANDS] if name in _UNARY else \
            [(x, y) for x in _OPERANDS for y in _OPERANDS]
        body = "\n".join(_golden_line(fn, *p) for p in pairs)
        got[name] = hashlib.sha256(body.encode()).hexdigest()
    assert got == _NUMERIC_GOLDEN


# the input checks of the module that no other test reaches, one input
# that fails each; a hand-built tower may be far from canonical
@pytest.mark.parametrize("call, error, message", [
    (lambda: subset_count(-1, 0), ValueError, "subset_count needs non-negative"),
    (lambda: LogTower(0, Fraction(2), Fraction(1)), ValueError, "tower bounds out of order"),
    (lambda: tower("7"), TypeError, "cannot make a tower from str"),
    (lambda: tower_add(LogTower(1, Fraction(1, 2), Fraction(1, 2)),
                       LogTower(0, Fraction(1, 2), Fraction(3))),
     TowerDomainError, "cannot add across an unresolved height gap"),
    (lambda: tower_eval({"op": "zz", "args": [1]}), ValueError, "unknown op 'zz'"),
])
def test_each_input_check_names_its_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("a, b", [(1, 2 ** 100), (3, 2 ** 65), (2 ** 100, 2 ** 101),
                                  (2 ** 64 + 1, 2 ** 64 + 1), (Fraction(7, 3), _H1)])
def test_div_below_one_encloses_the_exact_quotient(a, b):
    exact = Fraction(a) / (2 ** 100 if b is _H1 else b)
    assert encloses(tower_div(a, b), exact) is True


def test_div_encloses_every_exact_quotient_of_the_golden_operands():
    """The operands with a buildable value (all but the height-0 interval
    and the towers of heights 2 and 3) give 110 quotients that resolve, and
    each holds the exact value."""
    def exact(v):
        if isinstance(v, LogTower):
            return None if not v.is_point or v.height > 1 else \
                v.low if v.height == 0 else Fraction(2) ** int(v.low)
        return Fraction(v)
    verdicts = Counter()
    for x in _OPERANDS:
        for y in _OPERANDS:
            if exact(x) is None or not exact(y):
                continue
            try:
                out = tower_div(x, y)
            except TowerDomainError:
                continue
            verdicts[encloses(out, exact(x) / exact(y))] += 1
    assert verdicts == {True: 110}
