"""Seeded instance generators that only tests use, built like those of
``creaturelab.toys`` and drawing from the caller's ``random.Random`` in the
same order as when they lived there."""

from math import prod
from random import Random

from creaturelab.conditions import NameOracle, ParamTriple, TruncCondition
from creaturelab.creatures import Creature, full_creature
from creaturelab.family import _toy_windows, toy_arenas
from creaturelab.toys import _table_oracle, _widen_d, product_instance


def antiloc_instance(rng: Random):
    """(p, nu, a, e) with width-1 levels: a(k) counts the <=1-cells of the
    arena, e(k) = c(k) - 1, and nu encodes the branch's own chosen cell
    (empty cell -> 0, {j} -> j + 1)."""
    N = 3
    cs = toy_arenas(rng, N)
    hs = [1] * N
    cells = []
    count = 1
    split_budget = 2
    for k in range(N):
        if (split_budget > 0 and count * (cs[k] + 1) <= 60 and cs[k] <= 20
                and rng.random() < 0.8):
            cells.append(full_creature(cs[k], 1))
            split_budget -= 1
        else:
            j = rng.randrange(cs[k])
            cells.append(Creature.of(cs[k], 1, [[j]]))
        count *= len(cells[k].members)
    a, e, ds = _toy_windows(cs, [prod(len(c.members) for c in cells[:k])
                                 for k in range(N)])
    p = TruncCondition(ParamTriple(tuple(cs), tuple(hs), tuple(ds)), tuple(cells))
    profile = tuple(tuple(range(a[k])) for k in range(N))

    def fn(branch):
        return tuple(0 if not cell else min(cell) + 1 for cell in branch)
    return p, NameOracle(p, profile, fn), tuple(a), tuple(e)


def decode_cell(index: int):
    """Inverse of the width-1 encoding: 0 -> empty, j + 1 -> {j}."""
    return frozenset() if index == 0 else frozenset({index - 1})


def product_reading_instance(rng: Random):
    """(p, nu) on two coordinates, nu read early across the product."""
    p = product_instance(rng)
    profile = tuple(tuple(range(rng.randint(1, 3))) for _ in range(p.horizon))
    p = _widen_d(p, [prod(len(x) for x in profile[:k]) for k in range(p.horizon)])
    nu = _table_oracle(rng, p, profile, lambda k: k + 1)
    return p, nu
