import math
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

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
    tower_from_json,
    tower_le,
    tower_log2,
    tower_mul,
    tower_pow,
    tower_sub,
    tower_to_json,
    _exact_pow,
    _exact_subset_count,
    _floor_log2,
    _log2_bounds,
    _pow2_bounds,
    _shifted_quotient,
    _sq_chain_floor,
)

from oracles import subset_count_direct


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


def test_sub_refuses_unresolvable_gap():
    tall = tower_exp2(tower_exp2(tower_exp2(tower(10))))
    with pytest.raises(TowerDomainError):
        tower_sub(tower(5), tall)


def test_eval_expression_tree():
    expr = {"op": "add", "args": [{"op": "pow", "args": [2, 10]}, 1]}
    assert tower_cmp(tower_eval(expr), tower(1025)) is Cmp.EQUAL
    expr2 = {"op": "subset_count_bound", "args": [4, 2]}
    assert tower_cmp(tower_eval(expr2), tower(11)) is Cmp.EQUAL


def test_tower_json_roundtrip():
    for t in (tower(17), tower(Fraction(3, 7)),
              tower_exp2(tower_exp2(tower(9)))):
        back = tower_from_json(tower_to_json(t))
        assert back.height == t.height
        assert back.low == t.low and back.high == t.high


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
    # 3 / 2**M: the quotient 3 * 2**(prec - 1) is an exact integer, and the
    # bounds read from the top bits of 2**M straddle it, so the full
    # division decides; 2**M + 1 and 2**M - 1 sit just off such a quotient
    for M in (1000, 5000, 100_003):
        for x in (Fraction(3, 2 ** M), Fraction(5, 2 ** M),
                  Fraction(2 ** M + 1), Fraction(1, 2 ** M + 1),
                  Fraction(2 ** M - 1), Fraction(3, 2 ** M + 1)):
            assert _log2_bounds(x, 96) == _log2_bounds_full_division(x, 96)
    assert _shifted_quotient(1, 5097, 2 ** 5000, 256) == 2 ** 97
    n = 2 ** 5000 + 1
    assert _shifted_quotient(1, 5097, n, 256) == (1 << 5097) // n
    assert _shifted_quotient(n, 100, 3 ** 4000, 64) == (n << 100) // 3 ** 4000


def test_exact_pow_shift_and_limit():
    for x in (1, 2, 3, 4, 7, 8, 1024, -2, -3, 0):
        for y in (0, 1, 2, 5, 33):
            assert _exact_pow(x, y) == x ** y
    assert _exact_pow(4, 256) == 2 ** 512
    # the guard is y * bitlen(x), so base 2 stops at half the limit
    half = EXACT_BIT_LIMIT // 2
    assert _exact_pow(2, half) == 1 << half
    assert _exact_pow(2, half + 1) is None
    assert _exact_pow(3, EXACT_BIT_LIMIT // 2 + 1) is None


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
