import dataclasses
import itertools
import time
import tracemalloc
from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from creaturelab import creatures
from creaturelab.creatures import (
    ARENA_LIMIT,
    Creature,
    _norm,
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
    # the 15 4-sets through 0 and 1 hold 60 >= C(8, 3) 3-subsets, but miss
    # {2, 3, 4}: the top layer passes the counting bound and fails to cover
    through01 = [[0, 1, *t] for t in itertools.combinations(range(2, 8), 2)]
    M = Creature.of(8, 4, through01 + list(itertools.combinations(range(8), 2)))
    assert norm(M) == norm_direct(8, M.members) == 2


@pytest.mark.parametrize("arena, low, cap", [
    (6, 1, 4), (9, 1, 4), (9, 2, 7), (14, 3, 6), (ARENA_LIMIT, 2, 5),
    (ARENA_LIMIT, 3, ARENA_LIMIT - 5), (ARENA_LIMIT, 0, 3)])
def test_norm_skips_top_layers_too_sparse_to_cover(arena, low, cap):
    # every subset of size <= low, and the first and last cap points: too
    # few members to hold the C(arena, low + 1) subsets of size low + 1
    ends = [range(cap), range(arena - cap, arena)]
    M = Creature.of(arena, cap, list(full_creature(arena, low).members) + ends)
    assert sum(comb(len(m), low + 1) for m in M.members) < comb(arena, low + 1)
    assert norm(M) == low
    if arena <= 9:
        assert norm_direct(arena, M.members) == low


@pytest.mark.parametrize("arena, members", [
    (ARENA_LIMIT, [range(0, 19), range(1, 20)]),
    (ARENA_LIMIT, [Random(7).sample(range(20), 18) for _ in range(6)]),
    (ARENA_LIMIT, [Random(8).sample(range(20), 14) for _ in range(12)]),
    (16, [[v for v in range(16) if v != i] for i in range(0, 16, 3)])])
def test_norm_far_below_the_largest_member_stays_cheap(arena, members, monkeypatch):
    # large members, low norm: no more k-subsets are enumerated than twice
    # what testing k = 1 .. norm+1 from below enumerates at most
    enumerated = []

    def combinations(it, k, real=itertools.combinations):
        for sub in real(it, k):
            enumerated.append(1)
            yield sub
    M = Creature.of(arena, arena, members)
    want = norm_direct(arena, M.members)
    monkeypatch.setattr(itertools, "combinations", combinations)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert norm(M) == want
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    from_below = sum(comb(len(m), k) for m in M.members for k in range(1, want + 2))
    assert len(enumerated) <= 2 * from_below
    assert peak < 20e6 and elapsed < 5.0


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
    assert Creature.of(10**12, 2, [[0, 1]]).arena == 10**12  # no arena-sized set


def test_membership_validation_names_the_first_bad_member():
    rng = Random(20261019)
    for _ in range(300):
        arena, cap = rng.randint(1, 6), rng.randint(0, 4)
        raw = [rng.sample(range(-1, arena + 2), rng.randint(0, min(cap + 1, arena + 3)))
               for _ in range(rng.randint(1, 5))]
        members = frozenset(frozenset(m) for m in raw)
        want = next((msg for m in members for msg, bad in [
            ("member exceeds the size cap", len(m) > cap),
            ("member leaves the arena", any(v < 0 or v >= arena for v in m))] if bad), None)
        if want is None:
            assert Creature(arena, cap, members).members == members
        else:
            with pytest.raises(ValueError, match=f"^{want}$"):
                Creature(arena, cap, members)


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
    with pytest.raises(ValueError, match="block size must be positive"):
        range_refine(M, lambda t: 0, 0, 2, 1)


def test_creature_json_roundtrip():
    M = Creature.of(5, 2, [[0, 1], [3], []])
    assert Creature.from_json(M.to_json()) == M


@st.composite
def shaped_creatures(draw):
    """Creatures on arenas <= 8: all subsets up to the cap, nearly all of
    them, a dense random share, a few sparse members, or a few members
    of nearly the arena's size."""
    arena = draw(st.integers(1, 8))
    cap = draw(st.integers(0, arena))
    pool = [c for sz in range(cap + 1)
            for c in itertools.combinations(range(arena), sz)]
    shape = draw(st.sampled_from(["full", "near-full", "dense", "sparse", "wide"]))
    if shape == "wide":  # a few members near the arena's size, any norm
        cap = arena
        members = draw(st.lists(st.sets(st.integers(0, arena - 1), min_size=max(0, arena - 3)),
                                min_size=1, max_size=6))
    elif shape == "full":
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
    # the canonical order: by size, then by the sorted elements
    assert M.sorted_members() == sorted(M.members, key=lambda m: (len(m), sorted(m)))


@st.composite
def colored_creatures(draw, colors=4):
    """A shaped creature and a value below ``colors`` for each member."""
    M = draw(shaped_creatures())
    order = M.sorted_members()
    values = draw(st.lists(st.integers(0, colors - 1), min_size=len(order),
                           max_size=len(order)))
    return M, dict(zip(order, values))


def _direct_refine(M, block):
    """The class of maximal norm_direct under the member colouring block
    (the smallest colour on ties), and its colour."""
    classes = {}
    for m in M.members:
        classes.setdefault(block[m], []).append(m)
    norms = {c: norm_direct(M.arena, ms) for c, ms in classes.items()}
    best = min(c for c, n in norms.items() if n == max(norms.values()))
    return best, Creature.of(M.arena, M.cap, classes[best])


@settings(max_examples=200, deadline=None)
@given(colored_creatures(), st.integers(2, 4))
def test_bigness_refine_takes_the_first_class_of_maximal_direct_norm(case, d):
    M, values = case
    coloring = {m: v % d for m, v in values.items()}
    assert bigness_refine(M, coloring.__getitem__, d) == _direct_refine(M, coloring)


@settings(max_examples=200, deadline=None)
@given(colored_creatures(colors=9), st.integers(1, 3))
def test_range_refine_takes_the_first_block_of_maximal_direct_norm(case, k):
    M, f = case
    d = max(2, -(-9 // k))
    _, refined = _direct_refine(M, {m: v // k for m, v in f.items()})
    assert range_refine(M, f.__getitem__, k, d, 9) == refined


@settings(max_examples=100, deadline=None)
@given(colored_creatures(), st.data())
def test_bigness_refine_colors_in_canonical_order_up_to_the_first_bad_color(case, data):
    M, values = case
    order = sorted(M.members, key=lambda m: (len(m), sorted(m)))
    bad = data.draw(st.sets(st.integers(0, len(order) - 1), min_size=1))
    calls = []

    def coloring(m):
        calls.append(m)
        i = order.index(m)
        return -1 - i if i in bad else values[m] % 2
    first = min(bad)
    with pytest.raises(ValueError, match=rf"^color {-1 - first} out of range$"):
        bigness_refine(M, coloring, 2)
    assert calls == order[:first + 1]


@settings(max_examples=200, deadline=None)
@given(shaped_creatures())
def test_norm_from_lo_is_exact_at_or_above_lo_and_below_lo_otherwise(M):
    direct = norm_direct(M.arena, M.members)
    for lo in range(1, max(map(len, M.members)) + 2):
        found = _norm(M.arena, M.members, lo)
        assert found == direct if direct >= lo else found < lo, (lo, found, direct)


# colours 0-2 each have a class of norm 1, and colour 2 comes before colour
# 0 in canonical order; colour 3's class is the empty member alone
_TIED = {(): 3, (0,): 2, (1, 2): 2, (0, 1): 0, (2,): 0, (0, 2): 1, (1,): 1}


def test_bigness_refine_keeps_the_smallest_color_on_a_tie():
    M = Creature.of(3, 2, _TIED)
    assert [norm(Creature.of(3, 2, [m for m in _TIED if _TIED[m] == c]))
            for c in range(4)] == [1, 1, 1, 0]
    color, Ms = bigness_refine(M, lambda m: _TIED[tuple(sorted(m))], 4)
    assert color == 0 and Ms == Creature.of(3, 2, [[0, 1], [2]])
    # norms 0, 1 and 2 in colour order: each later class replaces the best
    M = full_creature(3, 2)
    coloring = {(): 0, (0,): 1, (1,): 1, (2,): 1, (0, 1): 2, (0, 2): 2, (1, 2): 2}
    assert bigness_refine(M, lambda m: coloring[tuple(sorted(m))], 3)[0] == 2


def test_bigness_refine_tests_only_the_layers_that_could_beat_the_best(monkeypatch):
    # a test of layer k takes C(arena, k) twice here: as the subsets it
    # needs, and as the arena's term (no member) of its counting bound
    layers = []

    def comb(n, k, real=creatures.comb):
        if n == 3:
            layers.append(k)
        return real(n, k)
    monkeypatch.setattr(creatures, "comb", comb)
    assert bigness_refine(Creature.of(3, 2, _TIED), lambda m: _TIED[tuple(sorted(m))], 4)[0] == 0
    # colour 0's full search tests layers 2 and 1; colours 1 and 2 each test
    # only layer 2 (best + 1), and colour 3's largest member, of 0 elements,
    # rules it out untested
    assert layers == [2, 2, 1, 1, 2, 2, 2, 2]


@pytest.mark.parametrize("M", [Creature.of(3, 2, _TIED), full_creature(ARENA_LIMIT, 2)])
def test_bigness_refine_of_one_class_is_the_creature_itself(monkeypatch, M):
    def no_norm(*args):
        raise AssertionError("a single class takes no norm")
    monkeypatch.setattr(creatures, "_norm", no_norm)
    for d, color in [(2, 1), (4, 3)]:
        got, Ms = bigness_refine(M, lambda m: color, d)
        assert got == color and Ms is M


def test_sorted_members_returns_a_new_list_on_each_call():
    M = Creature.of(4, 2, [[2, 3], [1], [0, 1], []])
    # frozen, so its members cannot change under the cached order
    with pytest.raises(dataclasses.FrozenInstanceError):
        M.members = frozenset()
    first = M.sorted_members()
    first.reverse()
    first.append(frozenset({3}))
    again = M.sorted_members()
    assert again is not first
    assert again == [frozenset(), frozenset({1}), frozenset({0, 1}), frozenset({2, 3})]
    assert M.sorted_members() == again


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
    # each bound decides at equality, where the exact powers are past the
    # limit: 21^(21 2^21) < 2^(105 2^21) with w nb = d u (db - 1), and
    # 9^(22 2^21) >= 2^(66 2^21) with w (nb - 1) = d u db
    assert lognorm_value_cmp(20, 2 ** 21, Fraction(5, 21 * 2 ** 21)) == "Below"
    assert lognorm_value_cmp(8, 2 ** 21, Fraction(3, 22 * 2 ** 21)) == "AtLeast"
    # only one side past the limit, 2^(2^25 + 2), still refuses
    with pytest.raises(ValueError, match="past the exact size limit"):
        lognorm_value_cmp(1, 2, Fraction(2 ** 24 + 1, 2 ** 25 - 1))


def test_lognorm_value_cmp_rejects_non_integer_d():
    with pytest.raises(TypeError):
        lognorm_value_cmp(3, 3.0, Fraction(1, 2))
    with pytest.raises(TypeError):
        lognorm_value_cmp(3, 2.5, Fraction(0))


# every input check of the module that no other test reaches, one input
# that fails it
@pytest.mark.parametrize("call, message", [
    (lambda: Creature(0, 1, frozenset({frozenset()})), "arena must be at least 1"),
    (lambda: Creature.of(3, 1, [[0.5]]), "member element 0.5 is not an integer"),
    (lambda: Creature.of(3, 1, [[True]]), "member element True is not an integer"),
    (lambda: lognorm_value_cmp(0, 1, 1), "d must be at least 2"),
    (lambda: bigness_refine(full_creature(3, 1), lambda m: 0, 1), "d must be at least 2"),
    # every member out of range: one class, refused all the same
    (lambda: bigness_refine(full_creature(3, 1), lambda m: 2, 2), "color 2 out of range"),
    (lambda: bigness_refine(full_creature(3, 1), lambda m: -1, 2), "color -1 out of range"),
    # one class past the arena limit: refused though no norm is taken
    (lambda: bigness_refine(Creature.of(21, 2, [[0, 1], [2, 3]]), lambda t: 0, 2),
     "arena 21 exceeds the exhaustive-cost limit"),
])
def test_each_input_check_names_its_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
