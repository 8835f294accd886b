import itertools
import re
from math import prod
from random import Random

import pytest

from creaturelab.conditions import (
    BRANCH_CAP,
    NameOracle,
    ParamTriple,
    PreconditionError,
    TruncCondition,
    and_restrict,
    branches,
    catch_real,
    check_reading,
    early_read,
    fuse,
    localize,
    order_check,
    poss_count,
    possibilities,
    thin,
    validate,
)
from creaturelab.creatures import Creature, full_creature, norm
from creaturelab.numeric import subset_count
from creaturelab.products import branch_key
from creaturelab.toys import localize_instance, product_instance, reading_instance


def _cond(cells_spec, d=None):
    """Build a condition from [(arena, cap, members), ...]."""
    c = tuple(sp[0] for sp in cells_spec)
    h = tuple(sp[1] for sp in cells_spec)
    if d is None:
        d = tuple(max(2, 2 * len(sp[2])) for sp in cells_spec)
    cells = tuple(Creature.of(sp[0], sp[1], sp[2]) for sp in cells_spec)
    return TruncCondition(ParamTriple(c, h, tuple(d)), cells)


P3 = _cond([(3, 1, [[0], [1]]),          # split
            (4, 2, [[0, 1]]),            # singleton
            (3, 2, [[0], [1, 2], []])])  # split


def test_shape_and_splits():
    assert P3.horizon == 3
    assert P3.split_levels() == [0, 2]
    with pytest.raises(ValueError):
        TruncCondition(P3.params, P3.cells[:2])


def test_possibility_counts():
    assert poss_count(P3, -1) == 1
    assert poss_count(P3, 0) == 2
    assert poss_count(P3, 2) == 6
    assert len(branches(P3)) == 6
    assert len(possibilities(P3, 1)) == 2


def test_and_restrict_prefix():
    eta = (frozenset({1}),)
    q = and_restrict(P3, eta)
    assert q.cells[0].members == frozenset({frozenset({1})})
    assert q.cells[1:] == P3.cells[1:]
    with pytest.raises(ValueError):
        and_restrict(P3, (frozenset({2}),))
    # an eta may cover the whole horizon
    q = and_restrict(P3, (frozenset({1}), frozenset({0, 1}), frozenset({1, 2})))
    assert [cell.sorted_members() for cell in q.cells] == \
        [[frozenset({1})], [frozenset({0, 1})], [frozenset({1, 2})]]


def test_order_check_modes():
    q = and_restrict(P3, (frozenset({1}),))
    assert order_check(q, P3)
    assert not order_check(P3, q)
    # freezing through the 0th split: q changed level 0, p3 kept it
    assert order_check(P3, P3, ("at_n", 0))
    assert not order_check(q, P3, ("at_n", 0))
    # q's 0th split is level 2, so the freeze covers levels 0..2
    r = TruncCondition(q.params, q.cells)
    assert order_check(r, q, ("at_n", 0))
    # the freeze covers q's n-th split level itself: q's 0th split is
    # level 1, where it dropped a member of p's cell
    p = _cond([(3, 1, [[0]]), (3, 1, [[0], [1], [2]])], d=(2, 2))
    q = _cond([(3, 1, [[0]]), (3, 1, [[0], [1]])], d=(2, 2))
    assert order_check(q, p) and not order_check(q, p, ("at_n", 0))
    # with no n-th split in q it covers the whole horizon, the last level too
    p = _cond([(3, 1, [[0]]), (3, 1, [[0], [1]])], d=(2, 2))
    q = _cond([(3, 1, [[0]]), (3, 1, [[0]])], d=(2, 2))
    assert order_check(q, p) and not order_check(q, p, ("at_n", 0))


def test_validate_star_rank():
    rep = validate(P3)
    assert rep.valid
    assert rep.split_levels == [0, 2]
    # norm 0 at level 0 misses d = 4's staircase at rank 1
    assert rep.star_rank == 0
    # norm 3 meets d = 2's staircase at rank 1, (3 + 1)^1 >= 2^(2*1), and
    # misses it at rank 2, 4 < 2^(2*2)
    full = full_creature(4, 3)
    rep = validate(TruncCondition(ParamTriple((4, 4), (3, 3), (2, 2)), (full, full)))
    assert rep.split_levels == [0, 1] and rep.star_rank == 1


def test_fuse_takes_blocks_from_the_chain():
    base = _cond([(3, 1, [[0], [1], [2]]),
                  (3, 1, [[0], [1], [2]]),
                  (3, 1, [[0], [1], [2]])])
    second = TruncCondition(base.params,
                            (base.cells[0],
                             Creature.of(3, 1, [[0], [1]]),
                             Creature.of(3, 1, [[2]])))
    fused = fuse([base, second])
    assert fused.cells[0] == base.cells[0]
    assert fused.cells[1] == second.cells[1]
    assert fused.cells[2] == second.cells[2]
    with pytest.raises(PreconditionError):
        fuse([_cond([(3, 1, [[0]])])])  # no split at all


def test_fuse_result_extends_every_link_under_its_freeze():
    # link n + 1 keeps every level up to its own n-th split, so the blocks
    # agree along the chain and the fusion is its last link
    base = _cond([(3, 1, [[0], [1], [2]])] * 4)
    second = TruncCondition(base.params, base.cells[:3] + (
        Creature.of(3, 1, [[0], [1]]),))
    third = TruncCondition(base.params, second.cells[:2] + (
        Creature.of(3, 1, [[1], [2]]), second.cells[3]))
    chain = [base, second, third]
    fused = fuse(chain)
    assert fused == third
    for n, link in enumerate(chain):
        assert order_check(fused, link, ("at_n", n))
    with pytest.raises(PreconditionError, match="with the stage-1 freeze"):
        fuse([base, second, TruncCondition(base.params, (
            base.cells[0], Creature.of(3, 1, [[1], [2]])) + second.cells[2:])])


def test_and_restrict_rejects_an_eta_beyond_the_horizon():
    eta = (frozenset({1}), frozenset({0, 1}), frozenset({0}), frozenset({0}))
    with pytest.raises(ValueError, match="eta selects 4 levels, beyond the horizon 3"):
        and_restrict(P3, eta)


def test_order_check_rejects_a_negative_split_index():
    with pytest.raises(ValueError, match="at_n = -1 is negative"):
        order_check(P3, P3, ("at_n", -1))


def test_thin_respects_gbound_and_staircase():
    base = _cond([(3, 1, [[0], [1], [2]]),
                  (3, 1, [[0], [1], [2]]),
                  (3, 1, [[0], [1], [2]])], d=(6, 6, 6))
    q = thin(base, [2, 2, 10])
    counts = [len(cell.members) for cell in q.cells]
    # below every retained split the possibility count stayed under gbound
    running = 1
    for level, cnt in enumerate(counts):
        if cnt > 1:
            assert running < [2, 2, 10][level]
        running *= cnt
    assert q.split_levels()  # something was retained
    assert all(q.cells[i].members <= base.cells[i].members for i in range(3))
    # with no split there is nothing to retain or sacrifice
    flat = _cond([(3, 1, [[0]]), (3, 1, [[1]])])
    assert thin(flat, [1, 1]) is flat
    # a split at level 0 may be retained; after its two members the count
    # is 2, which is not below gbound(1) = 2 but is below 3
    p = _cond([(3, 1, _SPLIT), (3, 1, _SPLIT)], d=(2, 2))
    assert thin(p, [2, 2]).split_levels() == [0]
    assert thin(p, [2, 3]) == p
    # a retained split is not a candidate again, however high its gbound
    assert thin(p, [5, 5]) == p


def test_thin_prefers_the_split_that_meets_the_staircase_at_the_next_rank():
    """With d = 2 a norm n meets rank r when n + 1 >= 2^(2r).  Level 0 (norm
    1) misses rank 1, level 1 (norm 3) meets it; at rank 2 level 2 misses
    and level 3 (norm 15) meets it.  So thin keeps levels 1 and 3."""
    top = Creature.of(16, 15, itertools.combinations(range(16), 15))
    p = TruncCondition(ParamTriple((3, 4, 3, 16), (1, 3, 1, 15), (2,) * 4),
                       (Creature.of(3, 1, [[0], [1], [2]]), full_creature(4, 3),
                        Creature.of(3, 1, _SPLIT), top))
    assert [norm(cell) for cell in p.cells] == [1, 3, 0, 15]
    q = thin(p, [10 ** 6] * 4)
    assert q.split_levels() == [1, 3]
    assert q.cells[1:4:2] == p.cells[1:4:2]


def test_catch_real_freezes_a_covering_level():
    p = _cond([(3, 1, [[0], [1], [2]]),    # norm >= 1
               (4, 2, [[0, 1]])])          # not covering
    q, k = catch_real(p, [2, 0])
    assert k == 0
    assert q.cells[0].members == frozenset({frozenset({2})})
    with pytest.raises(PreconditionError):
        catch_real(p, [2, 0], n0=1)


@pytest.mark.parametrize("n0", [-1, -2])
def test_catch_real_rejects_a_negative_start_level(n0):
    p = _cond([(3, 1, [[0], [1], [2]]), (4, 2, [[0, 1]]), (3, 1, [[0], [1], [2]])])
    with pytest.raises(ValueError, match=f"start level n0 = {n0} is negative"):
        catch_real(p, [2, 0, 1], n0)


def test_name_oracle_from_table_and_profile_guard():
    table = {}
    for i, b in enumerate(branches(P3)):
        key = ",".join(str([cell.sorted_members() for cell in
                            P3.cells][n].index(b[n])) for n in range(3))
        table[key] = (i % 2, 0, i % 3)
    nu = NameOracle.from_table(P3, [(0, 1), (0,), (0, 1, 2)], table)
    for b in branches(P3):
        assert len(nu.eval(b)) == 3
    with pytest.raises(ValueError, match="oracle value 9 outside profile at level 0"):
        NameOracle(P3, ((0,), (0,), (0,)), lambda b: (9, 0, 0))
    with pytest.raises(ValueError):  # a branch short of a level
        nu.eval(branches(P3)[0][:2])


_P3_PROFILE = [(0, 1), (0,), (0, 1, 2)]


def _p3_table():
    return {branch_key(P3, b): (0, 0, 0) for b in branches(P3)}


@pytest.mark.parametrize("key", [
    "0,0", "0,0,0,0", "0|0,0", "0,0|0", "0,0,", "a,0,0", "0,0,x", "-1,0,0",
    "2,0,0", "9,0,0", "0,1,0", "01,0,0", " 0,0,0", "+1,0,0", ""])
def test_from_table_rejects_a_key_that_is_not_a_branch_key(key):
    table = dict(_p3_table(), **{key: (0, 0, 0)})
    with pytest.raises(ValueError, match=re.escape(f"table key {key!r} is not a "
                                                   "branch key of the base")):
        NameOracle.from_table(P3, _P3_PROFILE, table)


@pytest.mark.parametrize("value, message", [
    ((0, 0, 3), "oracle value 3 outside profile at level 2"),
    ((0, 0), "one value per level"),
    (([0], 0, 0), re.escape("oracle value [0] outside profile at level 0")),
], ids=["outside-profile", "short", "list"])
def test_from_table_checks_every_value_at_load(value, message):
    table = _p3_table()
    table["1,0,2"] = value
    with pytest.raises(ValueError, match=message):
        NameOracle.from_table(P3, _P3_PROFILE, table)


def test_from_table_names_the_first_bad_entry_in_table_order():
    bad_value, bad_key = ("0,0,1", (0, 0, 7)), ("2,0,0", (0, 0, 0))
    for first, second, message in [(bad_value, bad_key, "oracle value 7"),
                                   (bad_key, bad_value, "table key '2,0,0'")]:
        table = _p3_table()
        del table[bad_value[0]]
        table.update([first, second])
        with pytest.raises(ValueError, match=message):
            NameOracle.from_table(P3, _P3_PROFILE, table)


def test_from_table_names_an_unknown_key_before_the_key_it_replaces():
    """A typo'd key is one unknown key and one missing key: the unknown
    one is named, as a ValueError, though the missing one comes first in
    branches order."""
    table = _p3_table()
    del table["0,0,1"]
    table["0,0,l"] = (0, 0, 0)
    with pytest.raises(ValueError, match="table key '0,0,l' is not a branch key"):
        NameOracle.from_table(P3, _P3_PROFILE, table)


def test_a_function_oracle_calls_its_function_once_per_base_branch():
    for p in (P3, product_instance(Random(3))):
        calls = []
        nu = NameOracle(p, ((0,),) * p.horizon,
                        lambda b: calls.append(b) or (0,) * p.horizon)
        assert calls == branches(p)
        for op in (lambda: check_reading(p, nu, "timely"), lambda: early_read(p, nu),
                   lambda: [nu.eval(b) for b in branches(p)]):
            op()
            assert len(calls) == len(branches(p))


def test_from_table_takes_values_equal_to_unhashable_profile_entries():
    profile = [(0, 1), ([0], [1]), (0, 1, 2)]
    table = {key: (0, [0], 0) for key in _p3_table()}
    nu = NameOracle.from_table(P3, profile, table)
    assert check_reading(P3, nu, "early")
    table["1,0,2"] = (0, [2], 0)
    with pytest.raises(ValueError, match=re.escape("oracle value [2] outside profile at level 1")):
        NameOracle.from_table(P3, profile, table)


def test_from_table_rejects_a_base_above_the_branch_cap():
    full = _cond([(6, 3, [m for m in itertools.combinations(range(6), 3)])] * 4)
    with pytest.raises(ValueError, match="branch enumeration cap exceeded"):
        NameOracle.from_table(full, [(0,)] * 4, {})


def test_reading_enumerates_every_level_within_the_branch_cap():
    # 42^3 = 74088 choices below the last level, twice as many branches
    cells = [full_creature(6, 3)] * 3 + [Creature.of(6, 3, _SPLIT)]
    p = TruncCondition(ParamTriple((6,) * 4, (3,) * 4, (2,) * 4), tuple(cells))
    assert poss_count(p, 2) < BRANCH_CAP < poss_count(p, 3)
    with pytest.raises(ValueError, match="branch enumeration cap exceeded"):
        NameOracle(p, ((0,),) * 4, lambda b: (0,) * 4)


def test_the_branch_cap_admits_exactly_its_count():
    ten = Creature.of(4, 2, [m for k in (1, 2) for m in itertools.combinations(range(4), k)])
    p = TruncCondition(ParamTriple((4,) * 5, (2,) * 5, (2,) * 5), (ten,) * 5)
    assert len(branches(p)) == BRANCH_CAP == 10 ** 5


def test_a_branch_missing_from_the_table_raises_its_key():
    table = _p3_table()
    del table["1,0,2"]
    with pytest.raises(KeyError, match="'1,0,2'"):
        NameOracle.from_table(P3, _P3_PROFILE, table)


Q3 = _cond([(3, 1, [[0]]),
            (3, 1, [[0], [1]]),
            (3, 1, [[0], [1]])], d=(4, 4, 4))


def test_check_reading_timely_vs_early():
    # x(0) copies the level-1 choice: decided at the split, not before it
    prof = ((0, 1), (0,), (0,))
    nu = NameOracle(Q3, prof, lambda b: (min(b[1]), 0, 0))
    assert check_reading(Q3, nu, "timely")
    assert not check_reading(Q3, nu, "early")
    const = NameOracle(Q3, prof, lambda b: (0, 0, 0))
    assert check_reading(Q3, const, "early")
    with pytest.raises(ValueError):
        check_reading(Q3, const, "late")


def test_early_read_decides_strictly_below_each_level():
    rng = Random(1234)
    for _ in range(60):
        p, nu = reading_instance(rng)
        q = early_read(p, nu)
        assert check_reading(q, nu, "early")
        assert all(q.cells[i].members <= p.cells[i].members
                   for i in range(p.horizon))
        for k in p.split_levels():
            m = poss_count(q, k - 1)
            lhs = norm(p.cells[k]) + 1
            rhs = (p.params.d[k] ** m) * (norm(q.cells[k]) + 1)
            assert lhs <= rhs


def test_early_read_checks_its_bounds_at_the_splits_of_the_refined_condition():
    """With every d halved, the value space below level 2 (four prefixes)
    exceeds d = 2 there, but level 2 is not a split: the bounds hold at the
    one split, level 1, so early_read returns a q, which reads early."""
    p, nu = reading_instance(Random(2))
    p = TruncCondition(ParamTriple(p.params.c, p.params.h,
                                   tuple(max(2, d // 2) for d in p.params.d)),
                       p.cells)
    nu = NameOracle(p, nu.profile, nu.fn)
    assert p.split_levels() == [1] and p.params.d == (2, 2, 2)
    q = early_read(p, nu)
    assert check_reading(q, nu, "early")
    assert all(q.cells[i].members <= p.cells[i].members
               for i in range(p.horizon))


def test_early_read_rejects_untimely_names():
    # x(0) reads the level-2 choice, above the level-1 split
    prof = ((0, 1), (0,), (0,))
    nu = NameOracle(Q3, prof, lambda b: (min(b[2]), 0, 0))
    with pytest.raises(PreconditionError):
        early_read(Q3, nu)


def test_localize_slalom_width_and_membership():
    rng = Random(77)
    for _ in range(60):
        p, nu, a, e = localize_instance(rng)
        q, phi = localize(p, nu, a, e)
        assert all(len(phi.cells[k]) <= e[k] for k in range(p.horizon))
        assert all(q.cells[i].members <= p.cells[i].members
                   for i in range(p.horizon))
        for b in branches(q):
            v = nu.eval(b)
            assert all(v[k] in phi.cells[k] for k in range(p.horizon))


@pytest.mark.parametrize("k0", [0, 1, 2])
def test_localize_cells_are_the_values_of_the_branches_of_q(k0):
    """Each slalom cell holds exactly the values the name takes on q's
    branches: no value of a member a later refinement removed."""
    for seed in range(300):
        p, nu, a, e = localize_instance(Random(seed))
        q, phi = localize(p, nu, a, e, k0)
        vals = [nu.eval(b) for b in branches(q)]
        assert [set(cell) for cell in phi.cells] == \
            [{v[k] for v in vals} for k in range(p.horizon)], seed


def test_a_condition_outside_its_oracle_base_is_rejected():
    base = and_restrict(P3, (frozenset({1}),))
    nu = NameOracle(base, ((0,), (0,), (0,)), lambda b: (0, 0, 0))
    for op in (lambda: check_reading(P3, nu, "early"),
               lambda: early_read(P3, nu),
               lambda: localize(P3, nu, (1, 1, 1), (4, 4, 4))):
        with pytest.raises(PreconditionError, match="extension of the oracle base"):
            op()
    other = _cond([(3, 1, [[0], [1]]), (4, 2, [[0, 1]]), (4, 2, [[0]])])
    with pytest.raises(PreconditionError, match="parameters differ"):
        check_reading(other, NameOracle(P3, nu.profile, nu.fn), "early")


@pytest.mark.parametrize("k0", [-1, -3])
def test_localize_rejects_a_negative_start_level(k0):
    p, nu, a, e = localize_instance(Random(5))
    with pytest.raises(ValueError, match=f"start level k0 = {k0} is negative"):
        localize(p, nu, a, e, k0)


def test_localize_rejects_window_violations():
    rng = Random(78)
    p, nu, a, e = localize_instance(rng)
    with pytest.raises(PreconditionError):
        localize(p, nu, a, tuple(0 for _ in e))


def test_localize_keeps_a_split_wide_at_twice_m_times_its_subset_count():
    """One split of c = 3, h = 1 (subset count 4) with m = 1 possibility
    below it: e = 8 keeps it wide, e = 7 takes the narrow path, whose
    clause ii holds with equality at 2 m a = d and fails above it."""
    p = _over(ParamTriple((3,), (1,), (2,)), [[0], [1], [2]])
    nu = _const(p)
    assert localize(p, nu, (5,), (8,))[0] == p
    assert localize(p, nu, (1,), (7,))[0] == p
    with pytest.raises(PreconditionError, match="clause ii fails at split level 0"):
        localize(p, nu, (5,), (7,))


def test_localize_leaves_the_splits_below_k0_alone():
    refined = 0
    for seed in range(40):
        p, nu, a, e = localize_instance(Random(seed))
        for k0 in (1, 2):
            q, _ = localize(p, nu, a, e, k0)
            assert q.cells[:k0] == p.cells[:k0], (seed, k0)
        refined += localize(p, nu, a, e)[0].cells[:2] != p.cells[:2]
    assert refined  # the same splits are refined from level 0


def test_condition_json_roundtrip():
    assert TruncCondition.from_json(P3.to_json()) == P3


def test_localize_l1_bounds_the_possibilities_below_each_level():
    """A cell has at most subset_count(c, h) members, the full creature
    exactly that many, so localize's L1 bound prod c-count(<n) <= e(n)
    bounds the possibilities below n as well (clause iii)."""
    full = TruncCondition(ParamTriple((3, 4), (1, 2), (2, 2)),
                          (full_creature(3, 1), full_creature(4, 2)))
    assert poss_count(full, 1) == subset_count(3, 1) * subset_count(4, 2)
    rng = Random(7)
    for _ in range(50):
        for p in (reading_instance(rng)[0], localize_instance(rng)[0]):
            cdh = [subset_count(c, h) for c, h in zip(p.params.c, p.params.h)]
            for n in range(p.horizon):
                assert poss_count(p, n - 1) <= prod(cdh[:n])


def _over(params, *levels):
    """The condition over params with the given member lists per level."""
    return TruncCondition(params, tuple(Creature.of(c, h, m) for c, h, m
                                        in zip(params.c, params.h, levels)))


def _const(p):
    """A name over p that is 0 at every level, read early by any p."""
    return NameOracle(p, ((0,),) * p.horizon, lambda b: (0,) * p.horizon)


_P2 = ParamTriple((3, 3), (2, 2), (2, 2))
_P8 = ParamTriple((3, 3), (2, 2), (8, 8))
_SPLIT = [[0], [1]]


# the entry checks of the module, one input that fails each
@pytest.mark.parametrize("call, message", [
    (lambda: ParamTriple((3,), (1, 1), (2,)), "parameter sequences must share a length"),
    (lambda: ParamTriple((2,), (2,), (2,)), "need c > h >= 1 at level 0"),
    (lambda: ParamTriple((3, 3), (1, 0), (2, 2)), "need c > h >= 1 at level 1"),
    (lambda: ParamTriple((3,), (1,), (1,)), "need d >= 2 at level 0"),
    (lambda: poss_count(P3, 3), "k = 3 is not a level in [-1, 2]"),
    (lambda: TruncCondition(ParamTriple((3,), (1,), (2,)), (Creature.of(4, 1, [[0]]),)),
     "cell 0 does not match its parameters"),
    (lambda: order_check(_over(_P2, [[0]], [[0]]), _over(_P2, [[0]], [[0]]), ("at_m", 0)),
     "unknown mode ('at_m', 0)"),
    (lambda: order_check(_over(_P8, [[0]], [[0]]), _over(_P2, [[0]], [[0]])),
     "parameter mismatch"),
    (lambda: order_check(P3, P3, ("at_n", 0, (0,), (0,))),
     "unknown mode ('at_n', 0, (0,), (0,))"),
    (lambda: fuse([]), "empty chain"),
    (lambda: fuse([_over(_P2, [[0]], [[0]])]), "chain element 0 has fewer than 1 splits"),
    (lambda: fuse([_over(_P2, _SPLIT, [[0]])] * 2), "chain element 1 has fewer than 2 splits"),
    (lambda: fuse([_over(_P2, _SPLIT, _SPLIT), _over(_P2, _SPLIT, _SPLIT),
                   _over(_P2, [[0]], _SPLIT)]),
     "chain link 2 does not extend link 1 with the stage-1 freeze"),
    (lambda: thin(_over(_P2, _SPLIT, _SPLIT), [5]), "gbound has no entry for split level 1"),
    (lambda: thin(_over(_P2, _SPLIT, [[0]]), [1, 1]),
     "horizon exhausted before any split was retained"),
    (lambda: NameOracle(_over(_P2, [[0]], [[0]]), ((0,),), None),
     "the profile needs one entry per level"),
    # early_read: a second split with as many possibilities below it as d,
    # and a value space below a split larger than d
    (lambda: early_read(_over(_P2, _SPLIT, _SPLIT), _const(_over(_P2, _SPLIT, _SPLIT))),
     "|poss| >= d at split level 1"),
    (lambda: early_read(_over(_P2, [[0]], _SPLIT), NameOracle(
        _over(_P2, [[0]], _SPLIT), ((0, 1, 2), (0,)), lambda b: (0, 0))),
     "value-space product exceeds d at level 1"),
    # the localisation's entry: early reading, a and e per level, the
    # profile inside range(a), then L1 and clause ii
    (lambda: localize(_over(_P8, [[0]], _SPLIT), NameOracle(
        _over(_P8, [[0]], _SPLIT), ((0, 1), (0,)), lambda b: (min(b[1]), 0)),
        (2, 2), (7, 50)), "condition does not read the name early"),
    (lambda: localize(_over(_P8, [[0]], _SPLIT), _const(_over(_P8, [[0]], _SPLIT)),
                      (2,), (7, 50)), "a and e need an entry per level"),
    (lambda: localize(_over(_P8, [[0]], _SPLIT), NameOracle(
        _over(_P8, [[0]], _SPLIT), ((0, 1), (0,)), lambda b: (0, 0)),
        (1, 1), (7, 50)), "profile leaves range(a) at level 0"),
    (lambda: localize(_over(_P2, [[0]], [[0]]), _const(_over(_P2, [[0]], [[0]])),
                      (3, 1), (7, 7)), "clause L1 fails at level 1: prod a > d"),
    (lambda: localize(_over(_P8, _SPLIT, [[0]]), _const(_over(_P8, _SPLIT, [[0]])),
                      (8, 1), (1, 7)), "clause ii fails at split level 0"),
])
def test_each_entry_check_names_its_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
