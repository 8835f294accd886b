"""Seeded desk-scale instance generators.

The genuine growth sequences are astronomically large, so every
branch-exhaustive property is exercised on small instances whose parameters
are built to satisfy the same entry conditions (possibility-count windows,
refinement preconditions, profile bounds).  All randomness flows from the
caller's ``random.Random``.
"""

from __future__ import annotations

import itertools
from math import prod
from random import Random

from .creatures import Creature, full_creature
from .relational import FinRelSystem, TukeyPair


# ---------------------------------------------------------------------------
# creatures and relational systems


def _subsets(arena: int, cap: int) -> list[tuple]:
    """The subsets of size <= cap of the arena, by size."""
    return [m for k in range(cap + 1)
            for m in itertools.combinations(range(arena), k)]


def random_creature(rng: Random) -> Creature:
    arena = rng.randint(2, 8)
    cap = rng.randint(1, 3)
    pool = _subsets(arena, cap)
    count = rng.randint(1, min(len(pool), 8))
    return Creature.of(arena, cap, rng.sample(pool, count))


def random_coloring(rng: Random, M: Creature, d: int):
    table = {m: rng.randrange(d) for m in M.sorted_members()}
    return lambda t: table[t]


def random_system(rng: Random, max_side: int = 6) -> FinRelSystem:
    nx, ny = rng.randint(1, max_side), rng.randint(1, max_side)
    rel = [[rng.random() < 0.5 for _ in range(ny)] for _ in range(nx)]
    return FinRelSystem.of(rel)


def tukey_instance(rng: Random):
    """(R, R', pair) where rel' is defined so the pair is a connection:
    x' rel' y' iff every F-preimage of x' relates G(y')."""
    R = random_system(rng)
    nxp, nyp = rng.randint(1, 6), rng.randint(1, 6)
    F = tuple(rng.randrange(nxp) for _ in range(R.x_size))
    G = tuple(rng.randrange(R.y_size) for _ in range(nyp))
    rel = [[all(R.rel[x][G[yp]] for x in range(R.x_size) if F[x] == xp)
            for yp in range(nyp)] for xp in range(nxp)]
    return R, FinRelSystem.of(rel), TukeyPair(F, G)


# ---------------------------------------------------------------------------
# single-poset condition instances


def _random_cell(rng: Random, split) -> Creature:
    """A level on an arena of 3-5 with cap 1-2: two or three members when
    split(), asked once the arena is drawn, says so, else one."""
    c, h = rng.randint(3, 5), rng.randint(1, 2)
    pool = _subsets(c, h)
    if split():
        return Creature.of(c, h, rng.sample(pool, rng.randint(2, min(3, len(pool)))))
    return Creature.of(c, h, [rng.choice(pool)])


def _random_cells(rng: Random, horizon: int, max_branches: int):
    """Per-level (arena, cap, creature); at least one split, branch count
    bounded."""
    cells = []
    count = 1
    split_budget = rng.randint(1, 3)
    for k in range(horizon):
        cells.append(_random_cell(rng, lambda: split_budget > 0 and rng.random() < 0.7
                                  and count * 3 <= max_branches))
        split_budget -= len(cells[-1].members) > 1
        count *= len(cells[-1].members)
    cs, hs = [cell.arena for cell in cells], [cell.cap for cell in cells]
    if all(len(cell.members) == 1 for cell in cells):
        k = rng.randrange(horizon)
        cells[k] = Creature.of(cs[k], hs[k], rng.sample(_subsets(cs[k], hs[k]), 2))
    return cells, cs, hs


def _table_oracle(rng: Random, p, profile, dep_cut):
    """x(k) drawn from a random table over the members of the levels below
    dep_cut(k) in every coordinate of p (a condition or a product)."""
    from .conditions import BranchSpace, NameOracle
    space = BranchSpace.of(p)
    cuts = [space.below(dep_cut(k)) for k in range(p.horizon)]
    tables = [{key: rng.choice(profile[k]) for key in itertools.product(
                   *(space.pools[x] for x in xs))}
              for k, xs in enumerate(cuts)]

    def fn(branch):
        flat = space.flat(branch)
        return tuple(table[tuple(flat[x] for x in xs)]
                     for table, xs in zip(tables, cuts))
    return NameOracle(p, profile, fn)


def reading_instance(rng: Random):
    """(p, nu) with nu read timely: x(k) may depend on levels up to the
    first split strictly above k.  d is sized for the refinement loop."""
    from .conditions import ParamTriple, TruncCondition
    N = rng.randint(3, 5)
    cells, cs, hs = _random_cells(rng, N, 10 ** 4)
    splits = [k for k, cell in enumerate(cells) if len(cell.members) > 1]
    profile = tuple(tuple(range(rng.randint(1, 2))) for _ in range(N))
    count = [prod(len(cell.members) for cell in cells[:k]) for k in range(N)]
    ds = [max(count[k] + 1 if k in splits else 2,
              prod(len(x) for x in profile[:k]), 2) for k in range(N)]
    p = TruncCondition(ParamTriple(tuple(cs), tuple(hs), tuple(ds)), tuple(cells))

    def dep_cut(k):
        later = [n for n in splits if n > k]
        return (later[0] + 1) if later else N
    return p, _table_oracle(rng, p, profile, dep_cut)


def localize_instance(rng: Random):
    """(p, nu, a, e) meeting the localisation windows; nu is read early
    (x(k) depends on levels <= k)."""
    from .conditions import ParamTriple, TruncCondition
    from .numeric import subset_count
    N = 3
    cells, cs, hs = _random_cells(rng, N, max_branches=200)
    splits = [k for k, cell in enumerate(cells) if len(cell.members) > 1]
    profile = tuple(tuple(range(rng.randint(1, 3))) for _ in range(N))
    a = tuple(len(profile[k]) + rng.randint(0, 1) for k in range(N))
    cdh = [subset_count(cs[k], hs[k]) for k in range(N)]
    e, ds = [], []
    count = 1
    for k in range(N):
        ek = max(prod(cdh[:k]), count, 1)
        dk = max(2, prod(a[:k]))
        if k in splits:
            if rng.random() < 0.5:
                ek = max(ek, 2 * count * cdh[k])       # wide subcase
            else:
                dk = max(dk, 2 * count * a[k])         # narrow subcase
                ek = max(ek, count)                    # kcap >= 1
        e.append(ek)
        ds.append(dk)
        count *= len(cells[k].members)
    p = TruncCondition(ParamTriple(tuple(cs), tuple(hs), tuple(ds)), tuple(cells))
    nu = _table_oracle(rng, p, profile, lambda k: k + 1)
    return p, nu, a, tuple(e)


# ---------------------------------------------------------------------------
# product instances


def product_instance(rng: Random, horizon: int = 3):
    """A modest two-coordinate condition with at most one split per level
    and small branch counts."""
    from .conditions import ParamTriple, TruncCondition
    from .products import CoordinateSpace, ProductCondition
    N = horizon
    owners = [rng.choice(["x", "y", None]) for _ in range(N)]
    if all(o is None for o in owners):
        owners[rng.randrange(N)] = rng.choice(["x", "y"])
    cells = {"x": [], "y": []}
    count = 1
    for k in range(N):
        for xi in ("x", "y"):
            cells[xi].append(_random_cell(
                rng, lambda: owners[k] == xi and count * 3 <= 300))
            count *= len(cells[xi][-1].members)
    # d(k) = 2 * (possibilities below k) + 1 in both families
    d = tuple(max(2, 2 * prod(len(cell.members) for xi in "xy"
                              for cell in cells[xi][:k]) + 1) for k in range(N))
    triples = {xi: ParamTriple(tuple(cell.arena for cell in cells[xi]),
                               tuple(cell.cap for cell in cells[xi]), d)
               for xi in "xy"}
    space = CoordinateSpace.of({"x": "A", "y": "B"},
                               {"A": triples["x"], "B": triples["y"]})
    return ProductCondition(space, {xi: TruncCondition(triples[xi], tuple(cells[xi]))
                                    for xi in "xy"})


def _widen_d(p: ProductCondition, floors) -> ProductCondition:
    """Raise every family's d(k) to at least floors[k]."""
    from .conditions import ParamTriple, TruncCondition
    from .products import CoordinateSpace, ProductCondition
    fams = {}
    for fam, triple in p.space.params.items():
        fams[fam] = ParamTriple(triple.c, triple.h,
                                tuple(max(dv, floors[k])
                                      for k, dv in enumerate(triple.d)))
    space = CoordinateSpace.of(p.space.owner, fams)
    parts = {xi: TruncCondition(fams[space.owner[xi]], p.parts[xi].cells)
             for xi in p.support}
    return ProductCondition(space, parts)


def product_catch_instance(rng: Random):
    """(p, nu_x, B, xi): nu_x reads only the B coordinate, and xi has a
    norm->=1 level (full union) to catch at."""
    from .conditions import NameOracle, TruncCondition, _singleton
    p = product_instance(rng)
    xi, beta = ("x", "y") if rng.random() < 0.5 else ("y", "x")
    # guarantee a catchable level on xi: replace one level by a full creature
    k0 = rng.randrange(p.horizon)
    bpart = p.parts[beta]
    bcells = list(bpart.cells)
    bcells[k0] = _singleton(bcells[k0])
    p = p.with_part(beta, TruncCondition(bpart.params, tuple(bcells)))
    part = p.parts[xi]
    cells = list(part.cells)
    cells[k0] = full_creature(part.params.c[k0], part.params.h[k0])
    p = p.with_part(xi, TruncCondition(part.params, tuple(cells)))
    c_xi = p.parts[xi].params.c
    profile = tuple(tuple(range(c_xi[k])) for k in range(p.horizon))
    pos_b = p.support.index(beta)
    tables = [{t: rng.randrange(c_xi[k]) for t in cell.sorted_members()}
              for k, cell in enumerate(p.parts[beta].cells)]

    def fn(branch):
        return tuple(tables[k][t] for k, t in enumerate(branch[pos_b]))
    return p, NameOracle(p, profile, fn), {beta}, xi


def restricted_instance(rng: Random):
    """(p, nu, C, a, e) for the restricted localisation: C holds one of the
    two coordinates; windows sized from the live possibility counts."""
    from .conditions import poss_count
    p = product_instance(rng)
    C = {rng.choice(p.support)}
    N = p.horizon
    profile = tuple(tuple(range(rng.randint(1, 3))) for _ in range(N))
    a = tuple(len(profile[k]) + rng.randint(0, 1) for k in range(N))
    counts = [poss_count(p, k) for k in range(-1, N)]
    e = tuple(max(counts[k + 1], 1) for k in range(N))
    # room for the narrow refinement at splits owned outside C
    floors = [max(2 * counts[k] * a[k], counts[k]) for k in range(N)]
    p = _widen_d(p, floors)
    nu = _table_oracle(rng, p, profile, lambda k: k + 1)
    return p, nu, C, a, e
