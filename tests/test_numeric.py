import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from creaturelab.numeric import (
    EXACT_BIT_LIMIT,
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
    _floor_log2,
    _log2_bounds,
    _shifted_quotient,
    _sq_chain_floor,
)

from oracles import subset_count_direct


@given(st.integers(0, 30), st.integers(0, 30))
def test_subset_count_matches_binomial_sum(m, k):
    assert subset_count(m, k) == subset_count_direct(m, k)
    if m >= 2 and k != 1:
        assert subset_count(m, k, "power-bound") >= subset_count(m, k)


def test_subset_count_frozen_values():
    assert subset_count(4, 2) == 11
    assert subset_count(4, 2, "power-bound") == 16
    assert subset_count(5, 0) == 1
    assert subset_count(3, 7) == 8


def test_subset_count_rejects_bad_mode():
    with pytest.raises(ValueError):
        subset_count(4, 2, "bogus")


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
