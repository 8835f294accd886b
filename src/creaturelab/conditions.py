"""Finite-horizon conditions: one creature per level, with the refinement,
fusion, reading and localisation algorithms.

Names are modelled as deterministic functions of full branches (one member
chosen per level), so "the condition decides a prefix of the name" becomes an
agreement predicate over branches, checkable exhaustively.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
from math import prod

from .creatures import (Creature, bigness_refine, lognorm_value_cmp, norm,
                        range_refine)
from .numeric import subset_count

BRANCH_CAP = 10 ** 5


class PreconditionError(ValueError):
    """An operation's entry contract failed; carries level/clause details."""


def _splits(columns) -> list[tuple[int, int]]:
    """(level, column) of every split, a cell with more than one member, in
    columns of per-level cells: levels ascending, columns in order within a
    level."""
    return sorted([(k, j) for j, cells in enumerate(columns)
                   for k, cell in enumerate(cells) if len(cell.members) > 1])


def _modest(splits) -> bool:
    """At most one split per level, in a list of (level, owner) splits."""
    return len({k for k, _ in splits}) == len(splits)


@dataclass(frozen=True)
class ParamTriple:
    c: tuple[int, ...]
    h: tuple[int, ...]
    d: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.c) == len(self.h) == len(self.d)):
            raise ValueError("parameter sequences must share a length")
        for n in range(len(self.c)):
            if not self.c[n] > self.h[n] >= 1:
                raise ValueError(f"need c > h >= 1 at level {n}")
            if self.d[n] < 2:
                raise ValueError(f"need d >= 2 at level {n}")

    @property
    def horizon(self) -> int:
        return len(self.c)

    @staticmethod
    def from_json(obj) -> "ParamTriple":
        return ParamTriple(*(tuple(obj[k]) for k in "chd"))


@dataclass(frozen=True)
class TruncCondition:
    params: ParamTriple
    cells: tuple[Creature, ...]

    def __post_init__(self):
        if len(self.cells) != self.params.horizon:
            raise ValueError("one creature per level required")
        for n, cell in enumerate(self.cells):
            if cell.arena != self.params.c[n] or cell.cap != self.params.h[n]:
                raise ValueError(f"cell {n} does not match its parameters")

    @property
    def horizon(self) -> int:
        return self.params.horizon

    def split_levels(self) -> list[int]:
        return [k for k, _ in _splits([self.cells])]

    def to_json(self) -> dict:
        return {"c": list(self.params.c), "h": list(self.params.h),
                "d": list(self.params.d),
                "cells": [[sorted(m) for m in cell.sorted_members()]
                          for cell in self.cells]}

    @staticmethod
    def from_json(obj) -> "TruncCondition":
        params = ParamTriple.from_json(obj)
        # a short or long cells list fails the one-per-level check
        cells = tuple(Creature.of(c, h, members) for c, h, members
                      in zip(params.c, params.h, obj["cells"]))
        return TruncCondition(params, cells)


@dataclass
class ValidationReport:
    valid: bool
    split_levels: list[int]
    star_rank: int


def _meets_staircase(p: TruncCondition, level: int, rank: int) -> bool:
    """Does the norm of the cell at the level reach d's staircase at the rank?"""
    return lognorm_value_cmp(norm(p.cells[level]), p.params.d[level], rank) == "AtLeast"


def validate(p: TruncCondition) -> ValidationReport:
    splits = p.split_levels()
    rank = 0
    for n, level in enumerate(splits):
        if not _meets_staircase(p, level, n + 1):
            break
        rank = n + 1
    return ValidationReport(True, splits, rank)


# ---------------------------------------------------------------------------
# the branch space


def _sums(digits: list) -> list[int]:
    """The sums of one digit from each list, the first list slowest."""
    out = [0]
    for ds in digits:
        out = [r + d for r in out for d in ds]
    return out


class BranchSpace:
    """The branches of one condition, or of a product's coordinates in
    support order, over a common horizon N.

    A branch is one flat tuple of members in coordinate-major order:
    coordinate j's member at level k sits at position j*N + k, so a single
    condition is the one-coordinate case and its branches are plain
    per-level tuples.  Each position holds its cell and the cell's members
    in canonical order (``pools``).  A space with ``coords``, the product
    coordinates its parts stand for, shows selections to callers as
    per-coordinate tuples (``shape``); a single condition's space has none.
    ``values``, per level, holds the name's value on every branch (``_read``
    fills it) by the branch's mixed-radix rank: one digit per position, its
    member's index in the pool, in level-major ``order``.  So the branches
    that agree below a level are contiguous blocks of one size.
    """

    def __init__(self, parts, horizon: int, coords=None):
        self.parts = list(parts)
        self.N = horizon
        self.W = len(self.parts)
        self.coords = coords
        self.cells = [cell for part in self.parts for cell in part.cells]
        self.pools = [cell.sorted_members() for cell in self.cells]
        self.order = [j * horizon + k for k in range(horizon) for j in range(self.W)]
        self.values = []

    @classmethod
    def of(cls, p) -> "BranchSpace":
        """A condition's space, or a product's over its support."""
        if isinstance(p, TruncCondition):
            return cls([p], p.horizon)
        return cls([p.parts[xi] for xi in p.support], p.horizon, p.support)

    def set_cell(self, x: int, cell: Creature) -> None:
        """Put cell, whose members are among those at x, at position x,
        dropping the branches through the other members."""
        stride = self.strides()[x]
        keep = [t in cell.members for t in self.pools[x] for _ in range(stride)]
        self.values = [list(itertools.compress(col, keep * (len(col) // len(keep))))
                       for col in self.values]
        self.cells[x] = cell
        self.pools[x] = cell.sorted_members()

    def rebuild(self, p):
        """p's kind over the current cells: the condition, or p's product
        with each support coordinate's condition replaced."""
        return _assemble(p, dict(zip(self.coords or (0,),
                                     self.nest(self.cells, self.N))))

    def below(self, k: int) -> list[int]:
        """Positions of the levels < k of every coordinate, in branch order."""
        return [j * self.N + i for j in range(self.W) for i in range(k)]

    def splits(self) -> list[tuple[int, int]]:
        """(level, coordinate) of every split of the current cells."""
        return _splits(self.nest(self.cells, self.N))

    def count(self, k: int) -> int:
        """The number of selections of one member per level <= k of every
        coordinate."""
        if not -1 <= k < self.N:
            raise ValueError(f"k = {k} is not a level in [-1, {self.N - 1}]")
        return prod(len(self.pools[x]) for x in self.below(k + 1))

    def poss(self, k: int) -> list[tuple]:
        """Flat selections of one member per level <= k of every
        coordinate, levels ascending within each coordinate."""
        pools = [self.pools[x] for x in self.capped(k).below(k + 1)]
        return list(itertools.product(*pools))

    def capped(self, k: int) -> "BranchSpace":  # itself, once count(k) is within the cap
        if self.count(k) > BRANCH_CAP:
            raise ValueError("branch enumeration cap exceeded")
        return self

    def strides(self) -> list[int]:
        """Each position's place value in the level-major rank."""
        stride, s = [0] * len(self.pools), 1
        for x in reversed(self.order):
            stride[x], s = s, s * len(self.pools[x])
        return stride

    def ranks(self, positions) -> list[int]:
        """The ranks of the selections of a member at each of the positions
        (the first slowest), every other position at its first member."""
        stride = self.strides()
        return _sums([range(0, len(self.pools[x]) * stride[x], stride[x])
                      for x in positions])

    def grouped(self, positions: list) -> tuple[list, int]:
        """The value columns enumerated with the positions first, in order,
        and the size of the blocks of branches that agree there."""
        rest = [x for x in self.order if x not in positions]
        size = prod(len(self.pools[x]) for x in rest)
        if positions == self.order[:len(positions)]:
            return self.values, size
        perm = self.ranks(positions + rest)
        return [list(map(col.__getitem__, perm)) for col in self.values], size

    def decides(self, positions: list, cols=slice(None)) -> bool:
        """Do the members at the positions fix the value columns ``cols``:
        does every block of branches that agree there repeat its head?  Many
        short blocks match each offset's strided slice, few long ones count."""
        values, n = self.grouped(positions)
        for col in values[cols]:
            heads, starts = col[::n], range(0, len(col), n)
            if not (all(col[i::n] == heads for i in range(1, n)) if n * n <= len(col)
                    else all(col[b:b + n].count(h) == n for h, b in zip(heads, starts))):
                return False
        return True

    def nest(self, flat, w: int) -> tuple:
        """Per-coordinate slices of a flat selection (or of the cells) of w
        levels per coordinate."""
        return tuple(flat[j * w:(j + 1) * w] for j in range(self.W))

    def shape(self, flat: tuple, w: int) -> tuple:
        """The caller's shape of a flat selection of w levels per
        coordinate: itself for a condition, per-coordinate tuples for a
        product."""
        return flat if self.coords is None else self.nest(flat, w)

    def flat(self, branch: tuple) -> tuple:
        return branch if self.coords is None else \
            tuple(itertools.chain.from_iterable(branch))

    def labels(self) -> list[list[str]]:
        """Per position, each pooled member's part of a table key: its index
        in the pool, then ',' within a coordinate or '|' between two."""
        ends = (([","] * (self.N - 1) + ["|"]) * self.W)[:-1] + [""]
        return [[f"{i}{e}" for i in range(len(m))] for m, e in zip(self.pools, ends)]

    def key(self, flat: tuple) -> str:
        """The table key of a flat branch, as ``NameOracle.from_table`` reads it."""
        return "".join(map(list.__getitem__, self.labels(),
                           map(list.index, self.pools, flat)))


# The branch and reading operations below take a condition or a product; a
# product's selections and branches are tuples aligned with its sorted
# support, one per coordinate.


def possibilities(p, k: int) -> list[tuple]:
    """All selections of one member per level up to and including k.

    k = -1 yields the single empty selection.
    """
    space = BranchSpace.of(p)
    return [space.shape(sel, k + 1) for sel in space.poss(k)]


def poss_count(p, k: int) -> int:
    """|possibilities(p, k)| without enumerating."""
    return BranchSpace.of(p).count(k)


def branches(p) -> list[tuple]:
    space = BranchSpace.of(p)
    return [space.shape(b, space.N) for b in space.poss(space.N - 1)]


def _parts(p) -> dict:
    """p's conditions by coordinate, in support order; a condition is its
    own single coordinate, 0."""
    if isinstance(p, TruncCondition):
        return {0: p}
    return {xi: p.parts[xi] for xi in p.support}


def _assemble(p, cells: dict):
    """p's kind over a coordinate -> cells map: the condition, or p's
    product with those coordinates' conditions as its parts."""
    if isinstance(p, TruncCondition):
        return TruncCondition(p.params, tuple(cells[0]))
    return replace(p, parts={xi: TruncCondition(p.space.triple_of(xi), tuple(cs))
                             for xi, cs in cells.items()})


def and_restrict(p, eta: tuple):
    """Freeze the levels covered by eta to its selections (for a product,
    per coordinate of the support)."""
    cells = {xi: list(part.cells) for xi, part in _parts(p).items()}
    etas = (eta,) if isinstance(p, TruncCondition) else eta
    if len(etas) != len(cells):
        raise ValueError(f"eta has {len(etas)} entries for the {len(cells)} "
                         f"coordinates of the support")
    for xi, sels in zip(cells, etas):
        if len(sels) > p.horizon:
            raise ValueError(f"eta selects {len(sels)} levels, beyond the "
                             f"horizon {p.horizon}")
        for level, sel in enumerate(sels):
            sel, cell = frozenset(sel), cells[xi][level]
            if sel not in cell.members:
                raise ValueError(f"selection at level {level} is not a member")
            cells[xi][level] = _singleton(cell, sel)
    return _assemble(p, cells)


def order_check(q, p, mode="plain") -> bool:
    """q extends p: q has p's coordinates, and on each of them the cells
    shrink pointwise.  Mode ("at_n", n, F) additionally freezes, on each
    coordinate of F that p has, every level up to and including q's n-th
    split (the whole horizon if q has none); ("at_n", n) freezes all of
    p's coordinates."""
    qs, ps = _parts(q), _parts(p)
    if not set(ps) <= set(qs):
        return False
    for xi, part in ps.items():
        if qs[xi].params != part.params:
            raise ValueError("parameter mismatch")
        if not all(a.members <= b.members for a, b in zip(qs[xi].cells, part.cells)):
            return False
    if mode == "plain":
        return True
    tag, n, *F = mode
    if tag != "at_n" or len(F) > 1:
        raise ValueError(f"unknown mode {mode!r}")
    if n < 0:
        raise ValueError(f"the split index at_n = {n} is negative")
    splits = _splits([part.cells for part in qs.values()])
    top = splits[n][0] if n < len(splits) else q.horizon - 1
    return all(qs[xi].cells[i].members == ps[xi].cells[i].members
               for xi in (F[0] if F else ps) if xi in ps for i in range(top + 1))


def fuse(chain):
    """Assemble one condition from a descending chain of conditions, or of
    pairs (p_n, F_n) of a product and its frozen coordinates: levels in
    (f(n-1), f(n)] come from link n, f(n) being its n-th split, and a
    coordinate first frozen at link n takes nothing from earlier links.  A
    condition's link freezes its one coordinate.  Frozen sets must not
    shrink, each link must extend the previous one under its freeze, and
    so must the fusion extend every link."""
    if not chain:
        raise ValueError("empty chain")
    links = [(p, (0,)) if isinstance(p, TruncCondition) else p for p in chain]
    for n, link in enumerate(links):
        if not isinstance(link, tuple):
            raise ValueError(f"chain link {n} is not a condition or a (product, F) pair")
    for n in range(len(links) - 1):
        (pn, Fn), (pm, Fm) = links[n], links[n + 1]
        if not set(Fn) <= set(Fm):
            raise PreconditionError(f"frozen sets shrink at stage {n + 1}")
        if not order_check(pm, pn, ("at_n", n, Fn)):
            raise PreconditionError(f"chain link {n + 1} does not extend link {n} "
                                    f"with the stage-{n} freeze")
    parts = [_parts(pn) for pn, _ in links]
    L, N = len(links), links[0][0].horizon
    f = [-1]
    for n, pn in enumerate(parts):
        splits = _splits([part.cells for part in pn.values()])
        if len(splits) <= n:
            raise PreconditionError(f"chain element {n} has fewer than {n + 1} splits")
        f.append(splits[n][0])
    # the link owning each level's block; the tail above the last block
    # comes from the last link
    block = [next((n for n in range(L) if f[n] < k <= f[n + 1]), L - 1)
             for k in range(N)]
    entry = {}
    for n, (_, Fn) in enumerate(links):
        for xi in Fn:
            entry.setdefault(xi, n)

    def cell(xi, k):
        stage = max(block[k], entry.get(xi, L - 1))
        while xi not in parts[stage]:
            stage += 1
        return parts[stage][xi].cells[k]
    q = _assemble(links[-1][0], {xi: [cell(xi, k) for k in range(N)]
                                for xi in sorted(set().union(*parts))})
    for n, (pn, Fn) in enumerate(links):
        if not order_check(q, pn, ("at_n", n, Fn)):
            raise PreconditionError(f"fusion does not honour stage {n}")
    return q


def _singleton(cell: Creature, member=None) -> Creature:
    """The cell frozen to one member, which may be empty; by default its first."""
    member = cell.sorted_members()[0] if member is None else member
    return Creature(cell.arena, cell.cap, frozenset({member}))


def thin(p: TruncCondition, gbound) -> TruncCondition:
    """Shrink the possibility counts below retained splits under gbound,
    sacrificing the other splits to singletons.

    Retained splits are chosen greedily in level order; among admissible
    levels the earliest one meeting the norm staircase is preferred.
    """
    splits = p.split_levels()
    if not splits:
        return p
    if splits[-1] >= len(gbound):
        raise ValueError(f"gbound has no entry for split level {splits[-1]}")
    cells = list(p.cells)
    prev = -1
    count = 1
    rank = 0
    while True:
        cands = [l for l in splits if l > prev and count < gbound[l]]
        if not cands:
            break
        chosen = next((l for l in cands if _meets_staircase(p, l, rank + 1)), cands[0])
        for l in splits:
            if prev < l < chosen:
                cells[l] = _singleton(cells[l])
        count *= len(cells[chosen].members)
        prev = chosen
        rank += 1
    for l in splits:
        if l > prev:
            cells[l] = _singleton(cells[l])
    if rank == 0:  # rank counts the retained splits
        raise PreconditionError("horizon exhausted before any split was retained")
    return TruncCondition(p.params, tuple(cells))


def catch_real(p: TruncCondition, x, n0: int = 0):
    """Freeze some level k >= n0 of norm >= 1 to a member containing x(k)."""
    if n0 < 0:
        raise ValueError(f"the start level n0 = {n0} is negative")
    for k in range(n0, p.horizon):
        covered = frozenset().union(*p.cells[k].members)
        if len(covered) == p.cells[k].arena:  # norm >= 1
            if k >= len(x):
                raise ValueError(f"x has no entry for level {k}")
            for t in p.cells[k].sorted_members():
                if x[k] in t:
                    cells = list(p.cells)
                    cells[k] = _singleton(p.cells[k], t)
                    return TruncCondition(p.params, tuple(cells)), k
    raise PreconditionError(f"no level >= {n0} has norm >= 1 within the horizon")


# ---------------------------------------------------------------------------
# names


@dataclass
class NameOracle:
    """Deterministic total map from full branches of ``base`` to value
    tuples, one value per level, drawn from ``profile``.  A product's
    branches are, per coordinate of its support, a tuple of members.  The
    oracle is the name's value columns, one tuple per level over the base's
    branches in ``branches`` order, filled and checked once when built."""

    base: TruncCondition | ProductCondition
    profile: tuple[tuple, ...]
    fn: object            # None for a table, whose columns from_table fills

    def __post_init__(self):
        space = self._space = BranchSpace.of(self.base)
        if len(self.profile) != space.N:
            raise ValueError("the profile needs one entry per level")
        # a branch's index in the columns sums one digit per position: its
        # member's index in the pool times the sizes of the later pools
        sizes = list(map(len, space.pools))
        self._digits = [{t: i * prod(sizes[x + 1:]) for i, t in enumerate(pool)}
                        for x, pool in enumerate(space.pools)]
        if self.fn is not None:
            rows = [self._checked(tuple(self.fn(space.shape(b, space.N))))
                    for b in space.poss(space.N - 1)]
            self.columns = tuple(zip(*rows))

    def eval(self, branch: tuple) -> tuple:
        flat = self._space.flat(branch)
        i = sum(d[t] for d, t in zip(self._digits, flat, strict=True))
        return tuple(col[i] for col in self.columns)

    def _checked(self, out: tuple) -> tuple:
        if len(out) != self._space.N:
            raise ValueError("oracle must return one value per level")
        if not all(map(operator.contains, self.profile, out)):
            n = next(n for n, v in enumerate(out) if v not in self.profile[n])
            raise ValueError(f"oracle value {out[n]!r} outside profile at level {n}")
        return out

    @classmethod
    def from_table(cls, base, profile, table: dict) -> "NameOracle":
        """Table keyed by ``BranchSpace.key``, looked up at each of the base's
        keys in ``branches`` order; each distinct value is checked once."""
        nu = cls(base, tuple(tuple(a) for a in profile), None)
        space = nu._space
        keys = list(map("".join, itertools.product(*space.capped(space.N - 1).labels())))
        try:
            rows = [tuple(table[key]) for key in keys]
            if len(table) != len(rows):
                raise KeyError("a key that is not the base's")
            for out in set(rows):
                nu._checked(out)
        except (KeyError, TypeError, ValueError):
            # name the first bad entry in table order, its key first (an
            # unhashable value may pass), and only then a missing key
            known = set(keys)
            for key, out in table.items():
                if key not in known:
                    raise ValueError(f"table key {key!r} is not a branch key of the base")
                nu._checked(tuple(out))
            rows = [tuple(table[key]) for key in keys]
        nu.columns = tuple(zip(*rows))
        return nu


def _read(p, nu: NameOracle) -> BranchSpace:
    """p's branch space with the name's value columns, once p (a condition
    or a product) is checked to extend the oracle's base: the same
    coordinates and parameters, and cells that shrink pointwise, so within
    the branch cap that the base met when the oracle was built."""
    space, base = BranchSpace.of(p), nu._space
    if space.coords != base.coords:
        raise PreconditionError("oracle base support differs")
    if [t.params for t in space.parts] != [t.params for t in base.parts]:
        raise PreconditionError("oracle base parameters differ")
    if not all(c.members <= b.members for c, b in zip(space.cells, base.cells)):
        raise PreconditionError("condition is not an extension of the oracle base")
    # one coordinate's level-major order is branches order: with the base's
    # pools the space shares the oracle's columns, which are tuples
    if space.W == 1 and space.pools == base.pools:
        space.values = nu.columns
    else:  # gather at p's branches, level-major, by their indices in the base
        at = _sums([list(map(nu._digits[x].__getitem__, space.pools[x]))
                    for x in space.order])
        space.values = [list(map(col.__getitem__, at)) for col in nu.columns]
    return space


def check_reading(p, nu: NameOracle, mode: str) -> bool:
    """Does p decide the name's prefix at (timely) or before (early) each cut?

    timely: selections up to each split level n fix the first n values;
    early: selections strictly below every level n fix the first n values.
    """
    return _reads(_read(p, nu), mode)


def _reads(space: BranchSpace, mode: str) -> bool:
    if mode == "timely":
        cuts = [(n, n + 1) for n, _ in space.splits()]
    elif mode == "early":
        cuts = [(n, n) for n in range(1, space.N + 1)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # each cut only splits the blocks of the one before: check a column at its first
    done = itertools.accumulate([0] + [n for n, _ in cuts], max)
    return all(space.decides(space.order[:cut * space.W], slice(lo, n))
               for (n, cut), lo in zip(cuts, done))


def _refine_split(space: BranchSpace, k: int, j: int, n: int, refine) -> None:
    """Refine coordinate j's cell at level k once per possibility below k,
    in enumeration order: refine(M, pre) takes the cell so far and each of
    its members' first n values through that possibility.  The space is
    modest and, as its caller checked, its levels <= k fix the first n
    values: one possibility and one member make a block, read at its head.
    A cell every refinement keeps whole stays in place, its branches all kept."""
    x, cols = j * space.N + k, space.values[:n]
    pool, heads = space.pools[x], space.ranks(space.below(k) + [x])
    M = cell = space.cells[x]
    for e in range(0, len(heads), len(pool)):
        hs = heads[e:e + len(pool)]
        pre = zip(pool, zip(*[map(col.__getitem__, hs) for col in cols]) if cols
                  else itertools.repeat(()))
        M = refine(M, dict(pre) if M is cell else {t: v for t, v in pre if t in M.members})
    if M is not cell:
        space.set_cell(x, M)


def early_read(p, nu: NameOracle):
    """Shrink every split cell by bigness, one application per possibility
    below it, so that the name's prefix is decided strictly below every
    level; other cells are untouched.

    p must be modest and read the name timely, and at each split k of the
    partly refined space there must be fewer than d(k) possibilities below
    k and at most d(k) value prefixes of length k.  The result reads the
    name early: at split k the levels <= k fix the first k values and one
    prefix class per possibility below k is kept, so the levels < k fix
    them, and a level without a split has one member.
    """
    space = _read(p, nu)
    splits = space.splits()
    if not _modest(splits):
        raise PreconditionError("condition is not modest")
    if not _reads(space, "timely"):
        raise PreconditionError("condition does not read the name timely")
    for k, j in splits:
        d = space.parts[j].params.d[k]
        if space.count(k - 1) >= d:
            raise PreconditionError(f"|poss| >= d at split level {k}")
        if prod(len(a) for a in nu.profile[:k]) > d:
            raise PreconditionError(f"value-space product exceeds d at level {k}")

        # at most d classes: the prefixes lie in the value space checked above
        def by_class(M, pre):
            classes = list(dict.fromkeys(pre.values()))
            return bigness_refine(M, lambda t: classes.index(pre[t]), d)[1]
        _refine_split(space, k, j, k, by_class)
    return space.rebuild(p)


def _localization_space(p, nu: NameOracle, a, e) -> BranchSpace:
    """p's branch space read by the name, once the entry clauses both
    localisations share hold: p extends the oracle's base and reads the
    name early, and a and e have an entry per level, with the profile
    inside range(a)."""
    space = _read(p, nu)
    if not _reads(space, "early"):
        raise PreconditionError("condition does not read the name early")
    if min(len(a), len(e)) < space.N:
        raise PreconditionError("a and e need an entry per level")
    for k in range(space.N):
        if any(v not in range(a[k]) for v in nu.profile[k]):
            raise PreconditionError(f"profile leaves range(a) at level {k}")
    return space


def _localize(space: BranchSpace, a, e, k0: int, coords) -> list[dict]:
    """Localise the name to width e at every level >= k0, as read from the
    coordinates at the indices ``coords`` of the space.

    Every split at a level k >= k0 owned outside those coordinates is
    refined in level order (m possibilities below k; d and the subset count
    cdh of its cell): kept if 2m * cdh <= e (wide), else range-refined per
    possibility to at most e // m values if 2m * a <= d (narrow).  Returns
    phi: per level, a map from each restricted branch (the member tuples of
    those coordinates) to the set of values the name takes through it.
    """
    for k, j in space.splits():
        if k < k0 or j in coords:
            continue
        params = space.parts[j].params
        d, m = params.d[k], space.count(k - 1)
        if 2 * m * subset_count(params.c[k], params.h[k]) <= e[k]:
            continue
        if 2 * m * a[k] > d:
            raise PreconditionError(f"clause ii fails at split level {k}")
        kcap = e[k] // m
        if a[k] > d * kcap:
            raise PreconditionError(f"block bound fails at level {k}")
        _refine_split(space, k, j, k + 1, lambda M, pre: range_refine(
            M, lambda t: pre[t][k], kcap, d, a[k]))
    N = space.N
    at = [j * N + i for j in coords for i in range(N)]
    cols, size = space.grouped(at)
    keys = list(itertools.product(*[itertools.product(*space.pools[j * N:(j + 1) * N])
                                    for j in coords]))
    phi = [{key: frozenset(col[b * size:(b + 1) * size]) for b, key in enumerate(keys)}
           for col in cols]
    for k in range(k0, N):
        widest = max(map(len, phi[k].values()))
        if widest > e[k]:
            raise PreconditionError(f"clause i fails at level {k}: {widest} values")
    return phi


def localize(p: TruncCondition, nu: NameOracle, a, e, k0: int = 0):
    """Build q <= p and a slalom phi over (a, e) catching the name at every
    level >= k0: each cell of phi is the set of values the name takes on
    q's branches, split cells having been range-refined where needed.

    Returns (q, phi) with phi a Slalom whose width bound is e (widened below
    k0 if the threshold is positive).
    """
    from .connections import Slalom
    if k0 < 0:
        raise ValueError(f"the start level k0 = {k0} is negative")
    space = _localization_space(p, nu, a, e)
    N, d = p.horizon, p.params.d
    cdh = [subset_count(c, h) for c, h in zip(p.params.c, p.params.h)]
    for n in range(k0, N):
        if prod(a[:n]) > d[n]:
            raise PreconditionError(f"clause L1 fails at level {n}: prod a > d")
        # a cell has at most cdh members: this bounds count(n - 1) too (clause iii)
        if prod(cdh[:n]) > e[n]:
            raise PreconditionError(f"clause L1 fails at level {n}: prod c-count > e")
    phi = [cell[()] for cell in _localize(space, a, e, k0, ())]
    widths = tuple(max(e[k], len(phi[k])) if k < k0 else e[k] for k in range(N))
    return space.rebuild(p), Slalom(tuple(a), widths, tuple(phi))
