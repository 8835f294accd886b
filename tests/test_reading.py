"""check_reading and early_read against the reading oracle, which works from
the definition over pairs of branches, on conditions and on products of one
to three coordinates; the name oracle's values and the block test against
their definitions."""

import gc
import itertools
from collections import Counter
from math import prod
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from creaturelab import conditions
from creaturelab.conditions import (BranchSpace, NameOracle, ParamTriple,
                                    PreconditionError, TruncCondition, _localization_space,
                                    _localize, branches, check_reading, early_read)
from creaturelab.creatures import Creature
from creaturelab.products import CoordinateSpace, ProductCondition, branch_key

from oracles import branches_direct, reads_direct

_SUBSETS = [frozenset(s) for k in range(3) for s in itertools.combinations(range(3), k)]


def _built(coords, single: bool):
    """The condition (single, one coordinate) or the product over "abc" with
    the given cells, per coordinate as per-level member lists."""
    N = len(coords[0])
    params = ParamTriple((3,) * N, (2,) * N, (64,) * N)
    parts = [TruncCondition(params, tuple(Creature(3, 2, frozenset(m)) for m in levels))
             for levels in coords]
    if single:
        return parts[0]
    names = "abc"[:len(coords)]
    space = CoordinateSpace.of({xi: "F" for xi in names}, {"F": params})
    return ProductCondition(space, dict(zip(names, parts)))


@st.composite
def named_conditions(draw):
    """(p, coords, name): a condition (one coordinate) or a product of one
    to three coordinates, of at most 48 branches, often modest; its cells
    per coordinate as member lists; and a name whose level-k value is drawn
    from a random table over the members at a random set of splits (a
    key's value is drawn when the name first meets it, and stays)."""
    W, N = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    # a modest one splits at most one coordinate per level
    owners = [draw(st.integers(0, W - 1)) if draw(st.booleans()) else None
              for _ in range(N)]
    coords, total = [[] for _ in range(W)], 1
    for k in range(N):
        for j in range(W):
            top = min(3, 48 // total) if owners[k] in (None, j) else 1
            size = draw(st.integers(1, max(1, top)))
            total *= size
            coords[j].append(draw(st.lists(st.sampled_from(_SUBSETS), min_size=size,
                                           max_size=size, unique=True)))
    p = _built(coords, W == 1 and draw(st.booleans()))
    positions = [(j, k) for j in range(W) for k in range(N) if len(coords[j][k]) > 1]
    deps = [draw(st.lists(st.sampled_from(positions), max_size=3, unique=True))
            if positions else [] for _ in range(N)]
    rng, tables = Random(draw(st.integers(0, 2 ** 16))), [{} for _ in range(N)]

    def name(b):
        return tuple(table.setdefault(tuple(b[j][k] for j, k in dep), rng.randrange(3))
                     for table, dep in zip(tables, deps))
    return p, coords, name


def test_reading_agrees_with_the_definition():
    """check_reading agrees with the definition, and every result of
    early_read reads the name early by the definition: early_read does not
    check its result, so this is the check, on at least 20 results."""
    results = []

    @settings(max_examples=120, derandomize=True, deadline=None, database=None)
    @given(named_conditions())
    def check(case):
        p, coords, name = case
        single = isinstance(p, TruncCondition)
        profile = ((0, 1, 2),) * p.horizon
        nu = NameOracle(p, profile, (lambda b: name((b,))) if single else name)
        table = NameOracle.from_table(p, profile, {
            branch_key(p, b[0] if single else b): name(b) for b in branches_direct(coords)})
        for mode in ("timely", "early"):
            expected = reads_direct(coords, name, mode)
            assert check_reading(p, nu, mode) is expected
            assert check_reading(p, table, mode) is expected
        try:
            q = early_read(p, nu)
        except PreconditionError:
            return
        qcoords = [[cell.sorted_members() for cell in part.cells]
                   for part in ([q] if single else [q.parts[xi] for xi in q.support])]
        assert all(set(m) <= set(n) for qc, pc in zip(qcoords, coords)
                   for m, n in zip(qc, pc))
        assert reads_direct(qcoords, name, "early")
        results.append(q)

    check()
    assert len(results) >= 20, len(results)


def _refine_splits(checked, seen):
    """Run early_read and the localisation on 150 named conditions with
    ``checked`` in place of ``_refine_split``; count in ``seen`` the names
    read early."""
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(named_conditions(), st.data())
    def check(case, data):
        p, _, name = case
        nu = NameOracle(p, ((0, 1, 2),) * p.horizon,
                        (lambda b: name((b,))) if isinstance(p, TruncCondition) else name)
        early = check_reading(p, nu, "early")
        assert check_reading(p, nu, "timely") or not early
        seen["early"] += early
        e = data.draw(st.lists(st.integers(1, 30), min_size=p.horizon, max_size=p.horizon))
        runs = [lambda: early_read(p, nu)]
        if isinstance(p, TruncCondition) or p.is_modest():   # as restricted_localize checks
            runs.append(lambda: _localize(_localization_space(p, nu, (3,) * p.horizon, e),
                                          (3,) * p.horizon, e, 0, ()))
        for run in runs:
            try:
                run()
            except PreconditionError:
                pass

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditions, "_refine_split", checked)
        check()


def test_each_split_refinement_keeps_the_reading_its_caller_checked():
    """early_read refines a split at level k once it has checked timely
    reading, and the localisation once it has checked early reading: the
    levels <= k fix the values below k, or up to k.  That holds before each
    refinement and after it, which only drops branches, at every split.
    Early reading implies timely reading."""
    seen, refine = Counter(), conditions._refine_split

    def checked(space, k, j, n, fn):
        def holds():   # n - k is 0 after timely reading, 1 after early
            return all(space.decides(space.order[:(s + 1) * space.W], slice(s + n - k))
                       for s, _ in space.splits())
        assert holds()
        refine(space, k, j, n, fn)
        assert holds()
        seen["early_read" if n == k else "localize"] += 1

    _refine_splits(checked, seen)
    assert min(seen["early"], seen["early_read"], seen["localize"]) >= 20, seen


def test_each_refinement_sees_the_prefixes_of_the_cell_so_far():
    """Every refine(M, pre) call is given a prefix for exactly M's members,
    also once an earlier possibility's refinement has shrunk the cell (the
    classes of early_read are numbered by first appearance in pre); early
    reading at split 0 gives every member the empty prefix."""
    seen, refine = Counter(), conditions._refine_split

    def checked(space, k, j, n, fn):
        kind, start = "early_read" if n == k else "localize", space.cells[j * space.N + k]

        def keyed(M, pre):
            assert set(pre) == M.members
            assert all(len(v) == n for v in pre.values())
            seen[kind, "shrunk" if M is not start else "whole", n > 0] += 1
            return fn(M, pre)
        refine(space, k, j, n, keyed)

    _refine_splits(checked, seen)
    assert min(seen[kind, "shrunk", True] for kind in ("early_read", "localize")) >= 5, seen
    assert seen["early_read", "whole", False] >= 20, seen
    # two possibilities below split 1, whose member there sets value 0 (read
    # timely) or value 1 (read early): the first one's refinement shrinks it
    p, profile = _built([[_SUBSETS[1:3], _SUBSETS[1:4]]], True), ((0, 1, 2),) * 2
    shrunk = {kind: seen[kind, "shrunk", True] for kind in ("early_read", "localize")}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditions, "_refine_split", checked)
        early_read(p, NameOracle(p, profile, lambda b: (_SUBSETS.index(b[1]) % 2, 0)))
        nu = NameOracle(p, profile, lambda b: (0, _SUBSETS.index(b[1]) % 3))
        _localize(_localization_space(p, nu, (3, 3), (30, 2)), (3, 3), (30, 2), 0, ())
    assert {kind: seen[kind, "shrunk", True] - n for kind, n in shrunk.items()} == \
        {"early_read": 1, "localize": 1}, seen


@settings(max_examples=80, deadline=None)
@given(named_conditions(), st.data())
def test_eval_on_a_sub_condition_agrees_with_fn_and_table(case, data):
    p, coords, name = case
    single = isinstance(p, TruncCondition)
    sub = [[data.draw(st.lists(st.sampled_from(cell), min_size=1, unique=True))
            for cell in levels] for levels in coords]
    q = _built(sub, single)
    profile = ((0, 1, 2),) * p.horizon
    fn = (lambda b: name((b,))) if single else name
    table = {branch_key(p, b[0] if single else b): name(b) for b in branches_direct(coords)}
    nu, tnu = NameOracle(p, profile, fn), NameOracle.from_table(p, profile, table)
    for b in branches(q):
        assert nu.eval(b) == tuple(fn(b))
        assert tnu.eval(b) == table[branch_key(p, b)]
    for mode in ("timely", "early"):
        expected = reads_direct(sub, name, mode)
        assert check_reading(q, nu, mode) is expected
        assert check_reading(q, tnu, mode) is expected


def _level_major(p) -> list[tuple]:
    """p's branches, in its caller's shape, in level-major order: level 0
    of every coordinate slowest, then level 1, and so on, coordinates in
    support order within a level and each cell's members in canonical
    order."""
    cells = [p] if isinstance(p, TruncCondition) else [p.parts[xi] for xi in p.support]
    W, N = len(cells), p.horizon
    out = []
    for picks in itertools.product(*[cells[j].cells[k].sorted_members()
                                     for k in range(N) for j in range(W)]):
        per = tuple(tuple(picks[k * W + j] for k in range(N)) for j in range(W))
        out.append(per[0] if isinstance(p, TruncCondition) else per)
    return out


@settings(max_examples=100, deadline=None)
@given(named_conditions(), st.data())
def test_a_read_gives_each_branch_its_oracle_values(case, data):
    """_read's value columns hold, branch by branch in level-major order,
    the name's values: against the condition's own base (whose columns a
    one-coordinate read shares) and against a base with one more member in
    one cell (gathered at each branch's index, a sum of digits), with a
    function oracle, some evals made before the read, and with a table."""
    p, coords, name = case
    single = isinstance(p, TruncCondition)
    fn = (lambda b: name((b,))) if single else name
    j, k = data.draw(st.integers(0, len(coords) - 1)), data.draw(st.integers(0, p.horizon - 1))
    wider = [list(map(list, levels)) for levels in coords]
    wider[j][k].append(data.draw(st.sampled_from(
        [t for t in _SUBSETS if t not in coords[j][k]])))
    profile = ((0, 1, 2),) * p.horizon
    for base, bcoords in [(p, coords), (_built(wider, single), wider)]:
        table = {branch_key(base, b[0] if single else b): name(b)
                 for b in branches_direct(bcoords)}
        nu = NameOracle(base, profile, fn)
        for b in data.draw(st.lists(st.sampled_from(branches(p)), max_size=4)):
            nu.eval(b)
        for oracle in (nu, NameOracle.from_table(base, profile, table)):
            values = conditions._read(p, oracle).values
            assert list(zip(*values)) == [tuple(fn(b)) for b in _level_major(p)]
            assert (values is oracle.columns) == (len(coords) == 1 and base is p)


@settings(max_examples=40, deadline=None)
@given(named_conditions(), st.data())
def test_a_table_lacking_a_key_raises_that_key_when_built(case, data):
    """Building the oracle raises the first missing key in branches order."""
    p, coords, name = case
    single = isinstance(p, TruncCondition)
    table = {branch_key(p, b[0] if single else b): name(b) for b in branches_direct(coords)}
    missing = data.draw(st.sets(st.sampled_from(sorted(table)), min_size=1))
    for key in missing:
        del table[key]
    with pytest.raises(KeyError) as info:
        NameOracle.from_table(p, ((0, 1, 2),) * p.horizon, table)
    keys = [branch_key(p, b) for b in branches(p)]
    assert info.value.args == (next(key for key in keys if key in missing),)


def _strides(space) -> dict:
    """Each position's place value in the level-major mixed-radix rank."""
    stride, s = {}, 1
    for x in reversed(space.order):
        stride[x], s = s, s * len(space.pools[x])
    return stride


@st.composite
def valued_spaces(draw):
    """A branch space of one or two coordinates with 1-4 members per cell,
    at most 100 branches, and value columns each constant on blocks of a
    random block size of the space, except at a few random entries."""
    W, N = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    sizes, total = [[] for _ in range(W)], 1
    for j, _ in itertools.product(range(W), range(N)):
        sizes[j].append(draw(st.integers(1, max(1, min(4, 100 // total)))))
        total *= sizes[j][-1]
    space = BranchSpace.of(_built([[_SUBSETS[:m] for m in row] for row in sizes], W == 1))
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.sampled_from(sorted(set(_strides(space).values()) | {total})))
        col = [v for v in draw(st.lists(st.integers(0, 2), min_size=total // m,
                                        max_size=total // m)) for _ in range(m)]
        for i in draw(st.lists(st.integers(0, total - 1), max_size=2)):
            col[i] = 3
        space.values.append(col)
    return space


def _decides_direct(space, positions, cols=slice(None)) -> bool:
    """Branches whose members agree at the positions agree on the value
    columns ``cols``: the definition, from each branch's digits."""
    stride, seen = _strides(space), {}
    for r in range(len(space.values[0])):
        key = tuple(r // stride[x] % len(space.pools[x]) for x in positions)
        row = [col[r] for col in space.values[cols]]
        if seen.setdefault(key, row) != row:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(valued_spaces(), st.data())
def test_decides_agrees_with_the_definition(space, data):
    """At every cut of the level-major order (block sizes from the whole
    column down to 1), and at a random set of positions in random order."""
    cuts = [space.order[:k] for k in range(len(space.order) + 1)]
    shuffled = data.draw(st.permutations(space.order))
    for positions in cuts + [shuffled[:data.draw(st.integers(0, len(shuffled)))]]:
        assert space.decides(positions) is _decides_direct(space, positions)


def test_decides_on_both_sides_of_the_switch_to_counting():
    # blocks of 24, 12, 4, 2 and 1 over 24 branches: counted per block while
    # size^2 > 24, compared by strided slices from size 4 down
    space = BranchSpace.of(_built([[_SUBSETS[:m] for m in (2, 3, 2, 2)]], True))
    space.values = [[5] * 24, [r // 12 for r in range(24)], [r // 4 for r in range(24)],
                    [r // 2 % 3 for r in range(24)], [0] * 23 + [1]]
    # column c is decided from the cut at level c on
    for c in range(5):
        for k in range(5):
            got = space.decides(space.order[:k], slice(c, c + 1))
            assert got is (k >= c) is _decides_direct(space, space.order[:k], slice(c, c + 1))


def test_a_loaded_table_and_a_read_leave_no_per_branch_objects():
    p = _built([[_SUBSETS[1:6]] * 5], True)   # 5^5 = 3125 branches
    table = {",".join(map(str, idx)): (idx[0] % 2, idx[1] % 2, 0, 0, idx[4] % 3)
             for idx in itertools.product(range(5), repeat=5)}
    profile = [(0, 1), (0, 1), (0,), (0,), (0, 1, 2)]
    gc.collect()
    before = len(gc.get_objects())
    nu = NameOracle.from_table(p, profile, table)
    check_reading(p, nu, "timely")
    gc.collect()
    assert len(gc.get_objects()) - before < 100
    assert nu.eval(branches(p)[-1]) == (0, 0, 0, 0, 1)
