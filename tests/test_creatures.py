import itertools
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from creaturelab.creatures import (
    Creature,
    bigness_refine,
    full_creature,
    lognorm_cmp,
    lognorm_value_cmp,
    norm,
    range_refine,
)
from creaturelab.toys import random_coloring, random_creature

from oracles import norm_direct


def test_norm_frozen_values():
    assert norm(Creature.of(4, 2, [[0, 1], [2, 3]])) == 1
    assert norm(full_creature(5, 3)) == 3
    assert norm(Creature.of(3, 1, [[0]])) == 0
    assert norm(Creature.of(2, 2, [[0, 1]])) == 2


def test_norm_matches_direct_definition_exhaustively():
    for arena, cap in ((2, 1), (3, 2), (4, 2)):
        pool = []
        for sz in range(cap + 1):
            pool.extend(itertools.combinations(range(arena), sz))
        for bits in range(1, 1 << len(pool)):
            members = [pool[i] for i in range(len(pool)) if bits >> i & 1]
            M = Creature.of(arena, cap, members)
            assert norm(M) == norm_direct(arena, members)


def test_norm_positive_iff_union_covers_arena():
    rng = Random(20260824)
    for _ in range(500):
        M = random_creature(rng)
        covered = frozenset().union(*M.members)
        assert (norm(M) >= 1) == (len(covered) == M.arena)


def test_membership_validation():
    with pytest.raises(ValueError):
        Creature.of(3, 1, [[0, 1]])     # member larger than the cap
    with pytest.raises(ValueError):
        Creature.of(3, 2, [[0, 3]])     # member leaves the arena
    with pytest.raises(ValueError):
        Creature.of(3, 2, [])           # empty family


def test_lognorm_is_exact_threshold():
    # (norm+1)**w >= d**(d*u) with t = u/w; check both sides of the fence
    assert lognorm_value_cmp(15, 2, Fraction(1)) == "AtLeast"   # 16 >= 4
    assert lognorm_value_cmp(3, 2, Fraction(1)) == "AtLeast"    # 4 >= 4
    assert lognorm_value_cmp(2, 2, Fraction(1)) == "Below"      # 3 < 4
    assert lognorm_value_cmp(0, 3, Fraction(0)) == "AtLeast"
    M = full_creature(4, 3)
    assert lognorm_cmp(M, 2, Fraction(1)) == "AtLeast"


def test_bigness_pigeonhole_inequality():
    rng = Random(7)
    for _ in range(300):
        M = random_creature(rng)
        d = rng.randint(2, 4)
        coloring = random_coloring(rng, M, d)
        color, Ms = bigness_refine(M, coloring, d)
        assert all(coloring(m) == color for m in Ms.members)
        assert Ms.members <= M.members
        assert norm(M) + 1 <= d * (norm(Ms) + 1)


def test_bigness_picks_max_norm_class():
    M = full_creature(4, 2)
    # color 0: everything through point 0; color 1: the rest
    color, Ms = bigness_refine(M, lambda t: 0 if 0 in t else 1, 2)
    best = max(norm(Creature.of(4, 2, [m for m in M.members
                                       if (0 in m) == (c == 0)]))
               for c in (0, 1))
    assert norm(Ms) == best


def test_range_refine_block_bound():
    rng = Random(99)
    for _ in range(300):
        M = random_creature(rng)
        members = M.sorted_members()
        m = rng.randint(2, 9)
        k = rng.randint(1, 3)
        d = max(2, -(-m // k))
        table = {t: rng.randrange(m) for t in members}
        Ms = range_refine(M, lambda t: table[t], k, d, m)
        assert Ms.members <= M.members
        assert len({table[t] for t in Ms.members}) <= k
        assert norm(M) + 1 <= d * (norm(Ms) + 1)


def test_range_refine_rejects_bad_window():
    M = full_creature(3, 1)
    with pytest.raises(ValueError):
        range_refine(M, lambda t: 0, 1, 2, 5)   # m > d*k
    with pytest.raises(ValueError):
        range_refine(M, lambda t: 0, 0, 2, 1)


def test_creature_json_roundtrip():
    M = Creature.of(5, 2, [[0, 1], [3], []])
    assert Creature.from_json(M.to_json()) == M


@st.composite
def shaped_creatures(draw):
    """Creatures on arenas <= 8: all subsets up to the cap, nearly all of
    them, a dense random share, or a few sparse members."""
    arena = draw(st.integers(1, 8))
    cap = draw(st.integers(0, arena))
    pool = [c for sz in range(cap + 1)
            for c in itertools.combinations(range(arena), sz)]
    shape = draw(st.sampled_from(["full", "near-full", "dense", "sparse"]))
    if shape == "full":
        members = pool
    elif shape == "near-full":
        drop = draw(st.sets(st.integers(0, len(pool) - 1), max_size=3))
        members = [m for i, m in enumerate(pool) if i not in drop]
    elif shape == "dense":
        keep = draw(st.lists(st.booleans(), min_size=len(pool),
                             max_size=len(pool)))
        members = [m for m, k in zip(pool, keep) if k]
    else:
        members = draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=5))
    return Creature.of(arena, cap, members or pool[:1])


@settings(max_examples=300, deadline=None)
@given(shaped_creatures())
def test_norm_matches_direct_definition_on_shaped_creatures(M):
    assert norm(M) == norm_direct(M.arena, M.members)


def test_norm_on_large_full_creatures():
    assert norm(full_creature(20, 4)) == 4
    assert norm(full_creature(19, 3)) == 3
    with pytest.raises(ValueError):
        norm(full_creature(21, 1))


def test_lognorm_value_cmp_matches_plain_formula():
    ts = [Fraction(0), Fraction(-1, 2)] + [Fraction(u, w) for u in range(1, 7)
                                           for w in range(1, 7)]
    for n in range(41):
        for d in range(2, 7):
            for t in ts:
                plain = "AtLeast" if t <= 0 or \
                    (n + 1) ** t.denominator >= d ** (d * t.numerator) \
                    else "Below"
                assert lognorm_value_cmp(n, d, t) == plain, (n, d, t)


def test_lognorm_value_cmp_decides_huge_thresholds_by_bit_length():
    start = time.monotonic()
    assert lognorm_value_cmp(5, 2, Fraction(10 ** 9 + 7, 3)) == "Below"
    assert lognorm_value_cmp(5, 3, Fraction(1, 10 ** 9 + 7)) == "AtLeast"
    assert time.monotonic() - start < 0.5
    # between the bit-length bounds and past the exact size limit: refuse
    with pytest.raises(ValueError):
        lognorm_value_cmp(2, 3, Fraction(2 ** 25, 2 ** 26 + 1))


def test_lognorm_value_cmp_rejects_non_integer_d():
    with pytest.raises(TypeError):
        lognorm_value_cmp(3, 3.0, Fraction(1, 2))
    with pytest.raises(TypeError):
        lognorm_value_cmp(3, 2.5, Fraction(0))
