"""Finite-horizon conditions: one creature per level, with the refinement,
fusion, reading and localisation algorithms.

Names are modelled as deterministic functions of full branches (one member
chosen per level), so "the condition decides a prefix of the name" becomes an
agreement predicate over branches, checkable exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod

from .connections import Slalom
from .creatures import (Creature, bigness_refine, lognorm_value_cmp, norm,
                        range_refine)
from .numeric import subset_count

POSS_CAP = 10 ** 6
BRANCH_CAP = 10 ** 5


class PreconditionError(ValueError):
    """An operation's entry contract failed; carries level/clause details."""


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
        return [n for n, cell in enumerate(self.cells) if len(cell.members) > 1]

    def s(self, n: int) -> int:
        """Level of the n-th split."""
        return self.split_levels()[n]

    def to_json(self) -> dict:
        return {"c": list(self.params.c), "h": list(self.params.h),
                "d": list(self.params.d),
                "cells": [[sorted(m) for m in cell.sorted_members()]
                          for cell in self.cells]}

    @staticmethod
    def from_json(obj) -> "TruncCondition":
        params = ParamTriple(tuple(obj["c"]), tuple(obj["h"]), tuple(obj["d"]))
        cells = tuple(Creature.of(params.c[n], params.h[n], obj["cells"][n])
                      for n in range(params.horizon))
        return TruncCondition(params, cells)


@dataclass
class ValidationReport:
    valid: bool
    split_levels: list[int]
    star_rank: int
    problems: list[str] = field(default_factory=list)


def validate(p: TruncCondition) -> ValidationReport:
    problems = []
    splits = p.split_levels()
    rank = 0
    for n, level in enumerate(splits):
        ok = lognorm_value_cmp(norm(p.cells[level]), p.params.d[level], n + 1)
        if ok == "AtLeast":
            rank = n + 1
        else:
            break
    return ValidationReport(not problems, splits, rank, problems)


def possibilities(p: TruncCondition, k: int) -> list[tuple]:
    """All selections of one member per level up to and including k.

    k = -1 yields the single empty selection.
    """
    _check_level(p, k)
    pools = [cell.sorted_members() for cell in p.cells[:k + 1]]
    if prod(len(pool) for pool in pools) > POSS_CAP:
        raise ValueError("possibility enumeration cap exceeded")
    return [tuple(sel) for sel in itertools.product(*pools)]


def poss_count(p: TruncCondition, k: int) -> int:
    """|possibilities(p, k)| without enumerating."""
    _check_level(p, k)
    return prod(len(cell.members) for cell in p.cells[:k + 1])


def _check_level(p: TruncCondition, k: int) -> None:
    if not -1 <= k < p.horizon:
        raise ValueError(f"k = {k} is not a level in [-1, {p.horizon - 1}]")


def branches(p: TruncCondition) -> list[tuple]:
    if poss_count(p, p.horizon - 1) > BRANCH_CAP:
        raise ValueError("branch enumeration cap exceeded")
    return possibilities(p, p.horizon - 1)


def and_restrict(p: TruncCondition, eta: tuple) -> TruncCondition:
    """Freeze the levels covered by eta to its selections."""
    cells = list(p.cells)
    for level, sel in enumerate(eta):
        sel = frozenset(sel)
        if sel not in p.cells[level].members:
            raise ValueError(f"selection at level {level} is not a member")
        cells[level] = Creature(p.cells[level].arena, p.cells[level].cap,
                                frozenset({sel}))
    return TruncCondition(p.params, tuple(cells))


def order_check(q: TruncCondition, p: TruncCondition, mode="plain") -> bool:
    """q extends p: cells shrink pointwise.  Mode ("at_n", n) additionally
    freezes everything up to and including q's n-th split (the whole horizon
    if q has no n-th split)."""
    if q.params != p.params:
        raise ValueError("parameter mismatch")
    if not all(q.cells[i].members <= p.cells[i].members
               for i in range(q.horizon)):
        return False
    if mode == "plain":
        return True
    tag, n = mode
    if tag != "at_n":
        raise ValueError(f"unknown mode {mode!r}")
    splits = q.split_levels()
    frozen_top = splits[n] if n < len(splits) else q.horizon - 1
    return all(q.cells[i].members == p.cells[i].members
               for i in range(frozen_top + 1))


def fuse(chain) -> TruncCondition:
    """Assemble one condition from a descending chain, taking levels in
    (f(n-1), f(n)] from the n-th element, f(n) = its n-th split level."""
    if not chain:
        raise ValueError("empty chain")
    L = len(chain)
    for n in range(L - 1):
        if not order_check(chain[n + 1], chain[n], ("at_n", n)):
            raise PreconditionError(f"chain link {n + 1} does not extend link {n} "
                                    f"with the level-{n} freeze")
    f = [-1]
    for n, p in enumerate(chain):
        splits = p.split_levels()
        if len(splits) <= n:
            raise PreconditionError(f"chain element {n} has fewer than {n + 1} splits")
        f.append(splits[n])
    N = chain[0].horizon
    cells = []
    for k in range(N):
        for n in range(L):
            if f[n] < k <= f[n + 1]:
                src = chain[n]
                break
        else:
            src = chain[-1]  # tail above the last block
        cells.append(src.cells[k])
    return TruncCondition(chain[0].params, tuple(cells))


def _singleton(cell: Creature) -> Creature:
    return Creature(cell.arena, cell.cap, frozenset({cell.sorted_members()[0]}))


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
    retained = []
    prev = -1
    count = 1
    rank = 0
    while True:
        cands = [l for l in splits if l > prev and count < gbound[l]]
        if not cands:
            break
        chosen = None
        for l in cands:
            if lognorm_value_cmp(norm(p.cells[l]), p.params.d[l], rank + 1) == "AtLeast":
                chosen = l
                break
        if chosen is None:
            chosen = cands[0]
        for l in splits:
            if prev < l < chosen:
                cells[l] = _singleton(cells[l])
        retained.append(chosen)
        count *= len(cells[chosen].members)
        prev = chosen
        rank += 1
    for l in splits:
        if l > prev:
            cells[l] = _singleton(cells[l])
    if not retained:
        raise PreconditionError("horizon exhausted before any split was retained")
    return TruncCondition(p.params, tuple(cells))


def catch_real(p: TruncCondition, x, n0: int = 0):
    """Freeze some level k >= n0 of norm >= 1 to a member containing x(k)."""
    for k in range(n0, p.horizon):
        covered = frozenset().union(*p.cells[k].members)
        if len(covered) == p.cells[k].arena:  # norm >= 1
            if k >= len(x):
                raise ValueError(f"x has no entry for level {k}")
            for t in p.cells[k].sorted_members():
                if x[k] in t:
                    cells = list(p.cells)
                    cells[k] = Creature(p.cells[k].arena, p.cells[k].cap,
                                        frozenset({t}))
                    return TruncCondition(p.params, tuple(cells)), k
    raise PreconditionError(f"no level >= {n0} has norm >= 1 within the horizon")


# ---------------------------------------------------------------------------
# names


@dataclass
class NameOracle:
    """Deterministic total map from full branches of ``base`` to value
    tuples, one value per level, drawn from ``profile``."""

    base: TruncCondition
    profile: tuple[tuple, ...]
    fn: object

    def __post_init__(self):
        self._cache = {}

    def eval(self, branch: tuple) -> tuple:
        if branch in self._cache:
            return self._cache[branch]
        out = tuple(self.fn(branch))
        if len(out) != self.base.horizon:
            raise ValueError("oracle must return one value per level")
        for n, v in enumerate(out):
            if v not in self.profile[n]:
                raise ValueError(f"oracle value {v!r} outside profile at level {n}")
        self._cache[branch] = out
        return out

    @staticmethod
    def from_table(base: TruncCondition, profile, table: dict) -> "NameOracle":
        """Table keyed by comma-joined member indices (canonical order)."""
        ordered = [cell.sorted_members() for cell in base.cells]

        def fn(branch):
            key = ",".join(str(ordered[n].index(branch[n]))
                           for n in range(len(branch)))
            return table[key]
        return NameOracle(base, tuple(tuple(a) for a in profile), fn)


def branch_slalom(p: TruncCondition, branch: tuple) -> Slalom:
    """The per-level chosen members of a branch, as a slalom over (c, h)."""
    return Slalom(p.params.c, p.params.h, tuple(branch))


def _check_compat(p: TruncCondition, nu: NameOracle):
    base = nu.base
    if p.params != base.params:
        raise PreconditionError("oracle base parameters differ")
    if not all(p.cells[n].members <= base.cells[n].members
               for n in range(p.horizon)):
        raise PreconditionError("condition is not an extension of the oracle base")


def check_reading(p: TruncCondition, nu: NameOracle, mode: str) -> bool:
    """Does p decide the name's prefix at (timely) or before (early) each cut?

    timely: selections up to each split level n fix the first n values;
    early: selections strictly below every level n fix the first n values.
    """
    _check_compat(p, nu)
    brs = branches(p)
    vals = {b: nu.eval(b) for b in brs}
    if mode == "timely":
        cuts = [(n, n + 1) for n in p.split_levels()]
    elif mode == "early":
        cuts = [(n, n) for n in range(1, p.horizon + 1)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for n, cut in cuts:
        seen = {}
        for b in brs:
            pre = vals[b][:n]
            if seen.setdefault(b[:cut], pre) != pre:
                return False
    return True


def _decided_prefix(p: TruncCondition, eta: tuple, n: int, nu: NameOracle) -> tuple:
    """The common first-n values over all branches extending eta; raises if
    the branches disagree (the reading precondition was violated)."""
    pools = [[frozenset(sel)] for sel in eta]
    pools += [cell.sorted_members() for cell in p.cells[len(eta):]]
    out = None
    for branch in itertools.product(*pools):
        pre = nu.eval(tuple(branch))[:n]
        if out is None:
            out = pre
        elif out != pre:
            raise PreconditionError(f"branches disagree on the first {n} values")
    return out


def _decided_value(p: TruncCondition, eta: tuple, k: int, nu: NameOracle):
    return _decided_prefix(p, eta, k + 1, nu)[k]


def early_read(p: TruncCondition, nu: NameOracle) -> TruncCondition:
    """Shrink split cells so that the name's prefix is decided strictly
    below every level, one bigness application per prior possibility."""
    _check_compat(p, nu)
    if not check_reading(p, nu, "timely"):
        raise PreconditionError("condition does not read the name timely")
    d = p.params.d
    for n in p.split_levels():
        if poss_count(p, n - 1) >= d[n]:
            raise PreconditionError(f"|poss| >= d at split level {n}")
    for n in range(p.horizon):
        if prod(len(a) for a in nu.profile[:n]) > d[n]:
            raise PreconditionError(f"value-space product exceeds d at level {n}")

    cells = list(p.cells)
    for k in p.split_levels():
        pk = TruncCondition(p.params, tuple(cells[:k]) + p.cells[k:])
        M = p.cells[k]
        for eta in possibilities(pk, k - 1):
            prefix_of = {t: _decided_prefix(pk, eta + (t,), k, nu)
                         for t in M.sorted_members()}
            index = {}
            for t in M.sorted_members():
                index.setdefault(prefix_of[t], len(index))
            if len(index) > d[k]:
                raise PreconditionError(f"more decision classes than d at level {k}")
            _, M = bigness_refine(M, lambda t: index[prefix_of[t]], d[k])
        cells[k] = M
    return TruncCondition(p.params, tuple(cells))


def localize(p: TruncCondition, nu: NameOracle, a, e, k0: int = 0,
             count_mode: str = "exact"):
    """Build q <= p and a slalom phi over (a, e) catching the name at every
    level >= k0, per-level by decided-value collection or range refinement.

    Returns (q, phi) with phi a Slalom whose width bound is e (widened below
    k0 if the threshold is positive).
    """
    _check_compat(p, nu)
    if not check_reading(p, nu, "early"):
        raise PreconditionError("condition does not read the name early")
    N = p.horizon
    c, h, d = p.params.c, p.params.h, p.params.d
    for k in range(N):
        if any(v not in range(a[k]) for v in nu.profile[k]):
            raise PreconditionError(f"profile leaves range(a) at level {k}")
    cdh = [subset_count(c[k], h[k], count_mode) for k in range(N)]
    for n in range(k0, N):
        if prod(a[:n]) > d[n]:
            raise PreconditionError(f"clause L1 fails at level {n}: prod a > d")
        if prod(cdh[:n]) > e[n]:
            raise PreconditionError(f"clause L1 fails at level {n}: prod c-count > e")
        if poss_count(p, n - 1) > e[n]:
            raise PreconditionError(f"clause iii fails at level {n}")
    split_set = set(p.split_levels())

    cells = list(p.cells)
    phi = []
    for k in range(N):
        pk = TruncCondition(p.params, tuple(cells[:k]) + p.cells[k:])
        etas = possibilities(pk, k - 1)
        m = len(etas)
        if k < k0:
            phi.append(frozenset(nu.eval(b)[k] for b in branches(pk)))
            continue
        if k not in split_set:
            phi.append(frozenset(_decided_value(pk, eta, k, nu) for eta in etas))
            continue
        if 2 * m * cdh[k] <= e[k]:
            # wide subcase: collect every decided value, keep the cell
            vals = {_decided_value(pk, eta1, k, nu)
                    for eta1 in possibilities(pk, k)}
            phi.append(frozenset(vals))
        elif 2 * m * a[k] <= d[k]:
            # narrow subcase: shrink the cell so each prior possibility
            # contributes at most floor(e/m) values
            kcap = e[k] // m
            if a[k] > d[k] * kcap:
                raise PreconditionError(f"block bound fails at level {k}")
            M = p.cells[k]
            parts = []
            for eta in etas:
                valmap = {t: _decided_value(pk, eta + (t,), k, nu)
                          for t in M.sorted_members()}
                M = range_refine(M, lambda t: valmap[t], kcap, d[k], a[k])
                parts.append({valmap[t] for t in M.members})
            cells[k] = M
            phi.append(frozenset().union(*parts))
        else:
            raise PreconditionError(f"clause ii fails at split level {k}")
    q = TruncCondition(p.params, tuple(cells))
    widths = tuple(max(e[k], len(phi[k])) if k < k0 else e[k] for k in range(N))
    return q, Slalom(tuple(a), widths, tuple(phi))
