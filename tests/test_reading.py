"""check_reading and early_read against the reading oracle, which works from
the definition over pairs of branches, on conditions and on products of one
to three coordinates."""

import itertools
from random import Random

from hypothesis import given, settings, strategies as st

from creaturelab.conditions import (NameOracle, ParamTriple, PreconditionError,
                                    TruncCondition, check_reading, early_read)
from creaturelab.creatures import Creature
from creaturelab.products import CoordinateSpace, ProductCondition, branch_key

from oracles import branches_direct, reads_direct

_SUBSETS = [frozenset(s) for k in range(3) for s in itertools.combinations(range(3), k)]


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
    params = ParamTriple((3,) * N, (2,) * N, (64,) * N)
    parts = [TruncCondition(params, tuple(Creature(3, 2, frozenset(m)) for m in levels))
             for levels in coords]
    if W == 1 and draw(st.booleans()):
        p = parts[0]
    else:
        names = "abc"[:W]
        space = CoordinateSpace.of({xi: "F" for xi in names}, {"F": params})
        p = ProductCondition(space, dict(zip(names, parts)))
    positions = [(j, k) for j in range(W) for k in range(N) if len(coords[j][k]) > 1]
    deps = [draw(st.lists(st.sampled_from(positions), max_size=3, unique=True))
            if positions else [] for _ in range(N)]
    rng, tables = Random(draw(st.integers(0, 2 ** 16))), [{} for _ in range(N)]

    def name(b):
        return tuple(table.setdefault(tuple(b[j][k] for j, k in dep), rng.randrange(3))
                     for table, dep in zip(tables, deps))
    return p, coords, name


@settings(max_examples=120, deadline=None)
@given(named_conditions())
def test_reading_agrees_with_the_definition(case):
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
    assert all(set(m) <= set(n) for qc, pc in zip(qcoords, coords) for m, n in zip(qc, pc))
    assert reads_direct(qcoords, name, "early")
