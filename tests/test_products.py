import re
from random import Random

import pytest

from creaturelab.conditions import (NameOracle, ParamTriple, PreconditionError,
                                    TruncCondition, _singleton, and_restrict,
                                    branches, check_reading, early_read, fuse,
                                    localize, order_check, poss_count,
                                    possibilities)
from creaturelab.creatures import Creature, norm
from creaturelab.products import (
    CoordinateSpace,
    ProductCondition,
    bounding_extract,
    branch_key,
    modest_refine,
    product_catch,
    restricted_localize,
    schedule_plan,
)
from creaturelab.toys import (
    localize_instance,
    product_catch_instance,
    product_instance,
    reading_instance,
    restricted_instance,
)

from toy_instances import product_reading_instance


def test_product_poss_count_checks_its_level():
    p = product_instance(Random(0), 6)
    for k in range(-1, 6):
        assert poss_count(p, k) == len(possibilities(p, k))
    for k in (-5, -2, 6, 7):
        with pytest.raises(ValueError, match=f"k = {k} is not a level"):
            poss_count(p, k)


def test_product_shape_and_modesty():
    rng = Random(3)
    for _ in range(50):
        p = product_instance(rng)
        assert p.support == ("x", "y")
        assert p.is_modest()
        for level, coord in p.split_levels():
            assert p.splitters(level) == [coord]


def test_modest_refine_enforces_single_splitter():
    rng = Random(4)
    for _ in range(50):
        p = product_instance(rng)
        # force a second splitter somewhere
        part = p.parts["y"]
        cells = list(part.cells)
        cells[0] = Creature.of(cells[0].arena, cells[0].cap,
                               [[0], [1] if cells[0].arena > 1 else [0]])
        busy = p.with_part("y", TruncCondition(part.params, tuple(cells)))
        q = modest_refine(busy)
        assert q.is_modest()
        for xi in q.support:
            assert all(q.parts[xi].cells[i].members
                       <= busy.parts[xi].cells[i].members
                       for i in range(q.horizon))


def test_product_order_check_at_n():
    rng = Random(5)
    p = product_instance(rng)
    assert order_check(p, p)
    level, coord = p.split_levels()[0]
    part = p.parts[coord]
    cells = list(part.cells)
    cells[level] = Creature(cells[level].arena, cells[level].cap,
                            frozenset({cells[level].sorted_members()[0]}))
    q = p.with_part(coord, TruncCondition(part.params, tuple(cells)))
    assert order_check(q, p)
    assert not order_check(p, q)


def test_schedule_plan_frozen_values():
    plan = schedule_plan(10)
    assert plan["m"][:4] == [0, 3, 8, 15]
    assert all(plan["sizes"][j] == (j + 1) ** 2 for j in range(11))
    with pytest.raises(ValueError):
        schedule_plan(11)


def test_product_early_read_and_norm_bookkeeping():
    rng = Random(6)
    done = 0
    while done < 30:
        p, nu = product_reading_instance(rng)
        q = early_read(p, nu)
        assert check_reading(q, nu, "early")
        for level, coord in p.split_levels():
            pc, qc = p.parts[coord].cells[level], q.parts[coord].cells[level]
            assert qc.members <= pc.members
            m = poss_count(q, level - 1)
            d = p.space.triple_of(coord).d[level]
            assert norm(pc) + 1 <= d ** m * (norm(qc) + 1)
        done += 1


def test_product_early_read_rejects_a_product_that_is_not_modest():
    p, _ = product_reading_instance(Random(6))
    level, coord = p.split_levels()[0]
    other = next(xi for xi in p.support if xi != coord)
    part = p.parts[other]
    cells = list(part.cells)
    cells[level] = Creature.of(cells[level].arena, cells[level].cap, [[0], [1]])
    busy = p.with_part(other, TruncCondition(part.params, tuple(cells)))
    assert not busy.is_modest()
    N = busy.horizon
    nu = NameOracle(busy, ((0,),) * N, lambda b: (0,) * N)
    with pytest.raises(PreconditionError, match="not modest"):
        early_read(busy, nu)


def test_bounding_extract_dominates_every_branch():
    rng = Random(8)
    for _ in range(30):
        p, nu = product_reading_instance(rng)
        q = early_read(p, nu)
        f = bounding_extract(q, nu)
        for b in branches(q):
            v = nu.eval(b)
            assert all(v[k] <= f[k] for k in range(q.horizon))


def test_product_catch_freezes_the_value():
    rng = Random(9)
    for _ in range(50):
        p, nu, B, xi = product_catch_instance(rng)
        q, k = product_catch(p, nu, B, xi)
        pos = q.support.index(xi)
        assert len(q.parts[xi].cells[k].members) == 1
        for b in branches(q):
            assert nu.eval(b)[k] in b[pos][k]


@pytest.mark.parametrize("n0", [-1, -2, -3])
def test_product_catch_rejects_a_negative_start_level(n0):
    for seed in range(20):
        p, nu, B, xi = product_catch_instance(Random(seed))
        with pytest.raises(ValueError, match=f"start level n0 = {n0} is negative"):
            product_catch(p, nu, B, xi, n0)


def test_product_catch_rejects_dependence_leak():
    rng = Random(10)
    p, nu, B, xi = product_catch_instance(rng)
    pos = p.support.index(xi)
    horizon = p.horizon

    def leaky(branch):
        base = nu.eval(branch)
        lvl = next(k for k in range(horizon)
                   if len(p.parts[xi].cells[k].members) > 1)
        flip = min(branch[pos][lvl], default=0) % 2
        return tuple((base[k] + flip) % len(nu.profile[k]) if k == 0
                     else base[k] for k in range(horizon))

    bad = NameOracle(p, nu.profile, leaky)
    with pytest.raises(PreconditionError):
        product_catch(p, bad, B, xi)


def test_restricted_localize_invariance_and_membership():
    rng = Random(11)
    for _ in range(50):
        p, nu, C, a, e = restricted_instance(rng)
        q, name = restricted_localize(p, nu, C, a, e)
        cidx = [i for i, xi in enumerate(q.support) if xi in name.coords]
        seen = {}
        for b in branches(q):
            key = tuple(b[i] for i in cidx)
            v = nu.eval(b)
            for k in range(q.horizon):
                cell = name.cells[k][key]
                assert v[k] in cell
                assert len(cell) <= e[k]
                # the cell is a function of the restricted branch alone
                assert seen.setdefault((k, key), cell) == cell


def test_restricted_localize_leaves_the_coordinates_of_C_alone():
    refined = 0
    for seed in range(40):
        p, nu, C, a, e = restricted_instance(Random(seed))
        q, _ = restricted_localize(p, nu, C, a, e)
        assert all(q.parts[xi] == p.parts[xi] for xi in C), seed
        refined += q != p
    assert refined  # the splits outside C are refined


def test_restricted_cells_are_the_values_of_the_branches_of_q():
    """Each cell of phi holds exactly the values the name takes on the
    branches of q through its restricted branch."""
    for seed in range(300):
        p, nu, C, a, e = restricted_instance(Random(seed))
        q, name = restricted_localize(p, nu, C, a, e)
        cidx = [i for i, xi in enumerate(q.support) if xi in name.coords]
        want = [{} for _ in range(q.horizon)]
        for b in branches(q):
            for cell, v in zip(want, nu.eval(b)):
                cell.setdefault(tuple(b[i] for i in cidx), set()).add(v)
        assert [{key: set(vals) for key, vals in cell.items()}
                for cell in name.cells] == want, seed


def test_a_product_outside_its_oracle_base_is_rejected():
    p, nu, B, xi = product_catch_instance(Random(9))
    level, coord = p.split_levels()[0]
    part = p.parts[coord]
    cells = list(part.cells)
    cells[level] = _singleton(cells[level])
    narrow = NameOracle(
        p.with_part(coord, TruncCondition(part.params, tuple(cells))),
        nu.profile, nu.eval)
    for op in (lambda: check_reading(p, narrow, "early"),
               lambda: early_read(p, narrow),
               lambda: bounding_extract(p, narrow),
               lambda: product_catch(p, narrow, B, xi),
               lambda: restricted_localize(p, narrow, B, (9,) * 3, (9,) * 3)):
        with pytest.raises(PreconditionError, match="extension of the oracle base"):
            op()
    smaller = ProductCondition(p.space, {xi: p.parts[xi]})
    with pytest.raises(PreconditionError, match="support differs"):
        check_reading(p, NameOracle(smaller, nu.profile, nu.fn), "early")
    with pytest.raises(PreconditionError, match="support differs"):
        check_reading(p.parts[xi], nu, "early")


def test_branch_key_is_canonical_and_distinct():
    rng = Random(12)
    p = product_instance(rng)
    keys = {branch_key(p, b) for b in branches(p)}
    assert len(keys) == len(branches(p))


def test_branch_key_of_a_restricted_branch():
    """With coords, branch_key keys a branch over just those coordinates,
    as the cells of a RestrictedName are keyed."""
    p = product_instance(Random(12))
    for b in branches(p):
        assert branch_key(p, b, p.support) == branch_key(p, b)
        for j, xi in enumerate(p.support):
            single = ProductCondition(p.space, {xi: p.parts[xi]})
            assert branch_key(p, (b[j],), (xi,)) == branch_key(single, (b[j],))


def _outcome(op, *args):
    try:
        return op(*args)
    except PreconditionError as ex:
        return str(ex)


def test_a_table_oracle_reads_as_its_function():
    """Each seeded instance's name, turned into a table keyed by
    branch_key, gives every reading operation the results (and errors) of
    the function it came from, on the instance and on its early read."""
    for seed in range(12):
        rng = Random(seed)
        p, nu = reading_instance(rng)
        q, mu, a, e = localize_instance(rng)
        s, sig = product_reading_instance(rng)
        t, tau, B, xi = product_catch_instance(rng)
        u, ups, C, a3, e3 = restricted_instance(rng)
        cases = [(check_reading, p, nu, "timely"), (early_read, p, nu),
                 (check_reading, q, mu, "early"), (localize, q, mu, a, e),
                 (localize, q, mu, a, e, 1), (early_read, s, sig),
                 (bounding_extract, s, sig), (product_catch, t, tau, B, xi),
                 (product_catch, t, tau, B, xi, 1), (bounding_extract, t, tau), (restricted_localize, u, ups, C, a3, e3),
                 (early_read, u, ups)]
        for op, cond, fn, *args in cases:
            table = NameOracle.from_table(cond, fn.profile, {
                branch_key(cond, b): fn.eval(b) for b in branches(cond)})
            got = _outcome(op, cond, table, *args)
            assert got == _outcome(op, cond, fn, *args), (seed, op.__name__)
            if op is early_read and not isinstance(got, str):
                assert check_reading(got, table, "early") is True
                assert check_reading(got, fn, "early") is True


def test_product_json_roundtrip():
    rng = Random(13)
    p = product_instance(rng)
    assert ProductCondition.from_json(p.to_json()) == p


def test_product_fuse_preserves_frozen_blocks():
    rng = Random(14)
    # build a trivially descending chain: each element equals the last
    for _ in range(20):
        p = product_instance(rng, horizon=4)
        if len(p.split_levels()) < 2:
            continue
        fused = fuse([(p, tuple(p.support))])
        assert order_check(fused, p)
        return
    pytest.skip("no instance with two product splits")


_T5 = ParamTriple((3,) * 5, (1,) * 5, (3,) * 5)
_XY = CoordinateSpace.of({"x": "A", "y": "B"}, {"A": _T5, "B": _T5})
_A, _S, _S1 = [[0], [1]], [[0]], [[1]]  # a split cell and two singletons


def _prod(**parts):
    """A product over _XY from per-coordinate lists of member lists."""
    return ProductCondition(_XY, {xi: TruncCondition(_T5, tuple(
        Creature.of(3, 1, members) for members in cells))
        for xi, cells in parts.items()})


def test_product_fuse_of_a_chain_with_growing_support_and_frozen_sets():
    # y enters the support at link 1 and the frozen sets at link 2, so it
    # takes every level from link 2; x, frozen from link 0, takes level 0
    # (block 0) from link 0; link 1 shrinks x's level 4, link 2 y's level 3
    chain = [(_prod(x=[_A, _S, _A, _S, _A]), ("x",)),
             (_prod(x=[_A, _S, _A, _S, _S1], y=[_S, _A, _S, _A, _S]), ("x",)),
             (_prod(x=[_A, _S, _A, _S, _S1], y=[_S, _A, _S, _S, _S]), ("x", "y"))]
    q = fuse(chain)
    assert q == chain[2][0]
    for n, (pn, Fn) in enumerate(chain):
        assert order_check(q, pn, ("at_n", n, Fn))
    assert fuse(chain[:2]) == chain[1][0]
    with pytest.raises(PreconditionError, match="frozen sets shrink at stage 2"):
        fuse(chain[:2] + [(chain[2][0], ("y",))])


def test_product_fuse_takes_a_coordinate_frozen_before_it_enters_from_its_first_link():
    # y is in the frozen set from link 0 but enters the support at link 1,
    # so its block-0 level comes from link 1, the first link that has y
    chain = [(_prod(x=[_A, _S, _A, _S, _A]), ("x", "y")),
             (_prod(x=[_A, _S, _A, _S, _S1], y=[_S, _A, _S, _A, _S]), ("x", "y"))]
    q = fuse(chain)
    assert q == chain[1][0]
    for n, (pn, Fn) in enumerate(chain):
        assert order_check(q, pn, ("at_n", n, Fn))


def test_product_fuse_takes_a_never_frozen_coordinate_from_the_last_link():
    # y is in no frozen set, so every level of it, level 0 in block 0
    # too, comes from the last link, which shrank it there
    chain = [(_prod(x=[_A, _S, _A, _S, _A], y=[_A, _S, _S, _S, _S]), ("x",)),
             (_prod(x=[_A, _S, _A, _S, _A], y=[_S, _S, _S, _S, _S]), ("x",))]
    q = fuse(chain)
    assert q == chain[1][0]
    for n, (pn, Fn) in enumerate(chain):
        assert order_check(q, pn, ("at_n", n, Fn))


def test_product_fuse_of_links_whose_space_gains_a_coordinate():
    # link 0's space has x alone and link 1's adds y: the fusion is built
    # over the last link's space, which has every coordinate of the chain
    x_only = CoordinateSpace.of({"x": "A"}, {"A": _T5})
    xy = CoordinateSpace.of({"x": "A", "y": "A"}, {"A": _T5})
    cells = lambda *cs: TruncCondition(_T5, tuple(Creature.of(3, 1, c) for c in cs))
    chain = [(ProductCondition(x_only, {"x": cells(_A, _S, _A, _S, _A)}), ("x",)),
             (ProductCondition(xy, {"x": cells(_A, _S, _A, _S, _S1),
                                    "y": cells(_S, _A, _S, _A, _S)}), ("x",))]
    q = fuse(chain)
    assert q == chain[1][0] and q.space == xy
    for n, (pn, Fn) in enumerate(chain):
        assert order_check(q, pn, ("at_n", n, Fn))


def test_product_order_check_needs_every_coordinate_of_p():
    p = _prod(x=[_A, _S, _A, _S, _A], y=[_S] * 5)
    q = _prod(x=[_A, _S, _A, _S, _A])
    assert order_check(p, q)
    assert not order_check(q, p)


def test_modest_refine_leaves_a_one_coordinate_product_as_it_is():
    p = _prod(x=[_A, _A, _S, _A, _S])
    assert modest_refine(p) is p


def test_fuse_names_a_product_link_without_its_frozen_set():
    p = _prod(x=[_A, _S, _A, _S, _A])
    with pytest.raises(ValueError, match=r"chain link 0 is not a condition or a \("):
        fuse([p])
    with pytest.raises(ValueError, match="chain link 1 "):
        fuse([(p, ("x",)), p])


def test_product_fuse_rejects_a_fusion_that_does_not_extend_a_link():
    # link 1's 0th split is y's level 0, so its freeze covers only level 0,
    # and it shrinks x at level 1; the fusion takes x's level 1 (block 0)
    # from link 0, which is not below link 1
    chain = [(_prod(x=[_S, _A, _A, _S, _S]), ("x",)),
             (_prod(x=[_S, _S1, _A, _S, _S], y=[_A, _S, _S, _S, _S]), ("x", "y"))]
    assert order_check(chain[1][0], chain[0][0], ("at_n", 0, ("x",)))
    with pytest.raises(PreconditionError, match="fusion does not honour stage 1"):
        fuse(chain)


def test_product_order_check_with_the_two_tuple_freezes_every_coordinate():
    for seed in range(20):
        p = product_instance(Random(seed), horizon=4)
        (level, coord), *_ = p.split_levels()
        part = p.parts[coord]
        cells = list(part.cells)
        cells[level] = _singleton(cells[level])
        q = p.with_part(coord, TruncCondition(part.params, tuple(cells)))
        for n in range(4):
            assert order_check(q, p, ("at_n", n)) == \
                order_check(q, p, ("at_n", n, p.support))
        # q's n-th split lies above the frozen level once q has any
        assert not order_check(q, p, ("at_n", 0))
        assert order_check(q, p, ("at_n", 0, ()))


def test_product_restrict_rejects_an_eta_beyond_the_horizon():
    p = product_instance(Random(0))
    eta = possibilities(p, p.horizon - 1)[0]
    too_long = (eta[0] + (eta[0][0],), eta[1])
    with pytest.raises(ValueError, match="eta selects 4 levels, beyond the horizon 3"):
        and_restrict(p, too_long)


@pytest.mark.parametrize("eta_len", [1, 3])
def test_product_restrict_wants_one_eta_entry_per_support_coordinate(eta_len):
    p = product_instance(Random(0))
    eta = possibilities(p, p.horizon - 1)[0]
    with pytest.raises(ValueError, match=f"eta has {eta_len} entries for the 2 "
                                         "coordinates of the support"):
        and_restrict(p, (eta + eta)[:eta_len])


_T2 = ParamTriple((3, 3), (1, 1), (8, 8))


def _over(space, **parts):
    """A product over a space of _T2 families from per-coordinate member
    lists, and the name over it that is 0 at every level."""
    p = ProductCondition(space, {xi: TruncCondition(_T2, tuple(
        Creature.of(3, 1, members) for members in cells)) for xi, cells in parts.items()})
    return p, NameOracle(p, ((0,), (0,)), lambda b: (0, 0))


_XY2 = CoordinateSpace.of({"x": "A", "y": "A"}, {"A": _T2})


def _late_name():
    """A one-coordinate product splitting at levels 1 and 2, and a name
    whose level-0 value its level-2 member decides: not read timely."""
    t3 = ParamTriple((3,) * 3, (1,) * 3, (8,) * 3)
    p = ProductCondition(CoordinateSpace.of({"x": "A"}, {"A": t3}), {"x": TruncCondition(
        t3, tuple(Creature.of(3, 1, members) for members in (_S, _A, _A)))})
    return p, NameOracle(p, ((0, 1), (0,), (0,)), lambda b: (min(b[0][2]), 0, 0))


def _y_name():
    """x frozen and y split at level 0, and a name whose level-1 value y's
    level-0 member decides."""
    p, _ = _over(_XY2, x=[_S, _S], y=[_A, _S])
    return p, NameOracle(p, ((0,), (0, 1)), lambda b: (0, min(b[1][0])))


def test_product_catch_collapses_B_where_the_value_reads_another_level():
    # x(1) is y's level-0 member, and y splits only at level 0: the member
    # caught at level 1 holds x(1) on every branch only once y is collapsed
    p, _ = _over(_XY2, x=[_S, [[], [0], [1], [2]]], y=[_A, _S])
    nu = NameOracle(p, ((0,), (0, 1, 2)), lambda b: (0, min(b[1][0])))
    q, k = product_catch(p, nu, {"y"}, "x")
    assert k == 1 and len(branches(q)) == 1
    for b in branches(q):
        assert nu.eval(b)[1] in b[0][1]


# the entry checks of the module, one input that fails each
@pytest.mark.parametrize("call, message", [
    (lambda: CoordinateSpace.of({"x": "B"}, {"A": _T2}), "owner targets an unknown family"),
    (lambda: CoordinateSpace.of({"x": "A", "y": "B"}, {"A": _T2, "B": _T5}),
     "need one or more families, sharing a horizon"),
    (lambda: CoordinateSpace.of({}, {}), "need one or more families, sharing a horizon"),
    (lambda: ProductCondition(_XY2, {"z": _over(_XY2, x=[_S, _S])[0].parts["x"]}),
     "coordinate 'z' outside the space"),
    (lambda: ProductCondition(_XY, {"x": _over(_XY2, x=[_S, _S])[0].parts["x"]}),
     "part 'x' disagrees with its family"),
    (lambda: bounding_extract(*_late_name()),
     "condition reads the name neither early nor timely"),
    (lambda: product_catch(*_over(_XY2, x=[_A, _S], y=[_S, _S]), {"x"}, "x"),
     "target coordinate cannot carry the name"),
    (lambda: product_catch(*_over(_XY2, x=[_A, _S], y=[_S, _S]), {"y"}, "z"),
     "coordinate 'z' outside the support"),
    (lambda: restricted_localize(*_over(_XY2, x=[_A, _S], y=[_A, _S]), {"x"}, (1, 1), (7, 7)),
     "condition is not modest"),
    # y's split at level 1 has 2 possibilities below it but e(1) = 1, so
    # its range refinement may keep no value
    (lambda: restricted_localize(*_over(_XY2, x=[_A, _S], y=[_S, _A]), {"x"}, (1, 1), (7, 1)),
     "block bound fails at level 1"),
    # y's split at level 0, outside C, is range-refined on level 0's one
    # value, so both members stay and level 1 keeps two values where e(1) = 1
    (lambda: restricted_localize(*_y_name(), {"x"}, (1, 2), (7, 1)),
     "clause i fails at level 1: 2 values"),
])
def test_each_entry_check_names_its_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
