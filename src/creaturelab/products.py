"""Finite-support products of the level-creature posets.

A product condition carries one truncated condition per coordinate over a
shared horizon.  Modesty (at most one coordinate splitting per level) makes
product splits linearly ordered, so the single-poset fusion, reading and
localisation algorithms lift coordinate-wise.  Names over products are again
total functions of full product branches, checked exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .conditions import (BranchSpace, NameOracle, ParamTriple,
                         PreconditionError, TruncCondition,
                         _assemble, _localization_space, _localize, _modest,
                         _read, _reads, _singleton, _splits, catch_real,
                         check_reading, early_read)


@dataclass(frozen=True)
class CoordinateSpace:
    """Coordinates, the owner map's keys, each owned by a parameter family."""

    owner: dict[str, str]            # coord -> family label
    params: dict[str, ParamTriple]   # family label -> parameters

    def __post_init__(self):
        for xi, fam in self.owner.items():
            if fam not in self.params:
                raise ValueError(f"owner targets an unknown family: coordinate {xi!r} "
                                 f"is owned by {fam!r}")
        if len({t.horizon for t in self.params.values()}) != 1:
            raise ValueError("need one or more families, sharing a horizon")

    @staticmethod
    def of(owner: dict, params: dict) -> "CoordinateSpace":
        return CoordinateSpace(dict(sorted(owner.items())), dict(sorted(params.items())))

    def triple_of(self, coord: str) -> ParamTriple:
        return self.params[self.owner[coord]]

    @property
    def horizon(self) -> int:
        return next(iter(self.params.values())).horizon


@dataclass
class ProductCondition:
    space: CoordinateSpace
    parts: dict[str, TruncCondition]

    def __post_init__(self):
        for xi, part in self.parts.items():
            if xi not in self.space.owner:
                raise ValueError(f"coordinate {xi!r} outside the space")
            if part.params != self.space.triple_of(xi):
                raise ValueError(f"part {xi!r} disagrees with its family")

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(sorted(self.parts))

    @property
    def horizon(self) -> int:
        return self.space.horizon

    def splitters(self, level: int) -> list[str]:
        return [xi for k, xi in self.split_levels() if k == level]

    def is_modest(self) -> bool:
        return _modest(self.split_levels())

    def split_levels(self) -> list[tuple[int, str]]:
        """(level, owning coordinate) per product split, ascending; only
        meaningful on modest conditions."""
        support = self.support
        return [(k, support[j]) for k, j in
                _splits([self.parts[xi].cells for xi in support])]

    def with_part(self, xi: str, part: TruncCondition) -> "ProductCondition":
        parts = dict(self.parts)
        parts[xi] = part
        return ProductCondition(self.space, parts)

    def to_json(self) -> dict:
        return {"coords": {xi: {"owner": self.space.owner[xi]}
                           for xi in sorted(self.space.owner)},
                "families": {fam: {"c": list(t.c), "h": list(t.h),
                                   "d": list(t.d)}
                             for fam, t in self.space.params.items()},
                "parts": {xi: self.parts[xi].to_json()
                          for xi in self.support}}

    @staticmethod
    def from_json(obj) -> "ProductCondition":
        owner = {xi: v["owner"] for xi, v in obj["coords"].items()}
        space = CoordinateSpace.of(owner, {fam: ParamTriple.from_json(v)
                                           for fam, v in obj["families"].items()})
        return ProductCondition(space, {xi: TruncCondition.from_json(v)
                                        for xi, v in obj["parts"].items()})


# ---------------------------------------------------------------------------
# modesty


def modest_refine(p: ProductCondition) -> ProductCondition:
    """Resolve split collisions: at each level with several splitting
    coordinates, keep the round-robin-preferred one, collapse the rest to
    their first canonical member.  Support is unchanged."""
    support = p.support
    if len(support) <= 1:
        return p
    parts = {xi: list(p.parts[xi].cells) for xi in support}
    pointer = 0
    for level in range(p.horizon):
        splitters = p.splitters(level)
        if not splitters:
            continue
        keep = min(splitters,
                   key=lambda xi: (support.index(xi) - pointer) % len(support))
        pointer = (support.index(keep) + 1) % len(support)
        for xi in splitters:
            if xi != keep:
                parts[xi][level] = _singleton(p.parts[xi].cells[level])
    return _assemble(p, parts)


# ---------------------------------------------------------------------------
# scheduling


def schedule_plan(n: int) -> dict:
    """Stage-by-stage split ownership: stage j+1 preserves the old splits,
    revisits coordinates 0..j once each, then gives coordinate j+1 its first
    split and j+1 further ones, 2j + 3 owners in all: |L_j| = (j+1)^2."""
    if not 0 <= n <= 10:
        raise ValueError(f"n = {n} is outside the bookkeeping scale [0, 10]")
    owners = [0]
    m = [0]
    sizes = [1]
    for j in range(n):
        owners.extend(range(j + 1))        # one revisit of each old coord
        owners.append(j + 1)               # the new coordinate's first split
        owners.extend([j + 1] * (j + 1))   # and its further splits
        m.append(len(owners) - 1)
        sizes.append(len(owners))
    return {"n": n, "m": m, "sizes": sizes, "owners": owners}


# ---------------------------------------------------------------------------
# names over products


# a name over a product is a NameOracle whose base is the product, and the
# branch, reading, restriction, order and fusion operations of conditions
# take a product as well; these three names stay while perfbench calls them
ProductNameOracle = NameOracle
product_check_reading = check_reading
product_early_read = early_read


def branch_key(p, branch: tuple, coords=None) -> str:
    """Canonical table key of a branch of a condition or a product (the
    key ``NameOracle.from_table`` reads), or with ``coords`` of a branch
    over the support's coordinates in ``coords`` alone (a RestrictedName
    cell key)."""
    if coords is not None:
        p = replace(p, parts={xi: p.parts[xi] for xi in p.support if xi in coords})
    space = BranchSpace.of(p)
    return space.key(space.flat(tuple(branch)))


def bounding_extract(q: ProductCondition, nu: ProductNameOracle) -> tuple:
    """f(k) = max of the values the name can take at level k."""
    space = _read(q, nu)
    # early implies timely: levels <= k that fix the values up to k fix those below k
    if not _reads(space, "timely"):
        raise PreconditionError("condition reads the name neither early nor timely")
    return tuple(map(max, space.values))


# ---------------------------------------------------------------------------
# catching and restricted localisation


def product_catch(p: ProductCondition, nu_x: ProductNameOracle, B, xi: str,
                  n0: int = 0):
    """Freeze coordinate xi at some level k >= n0 of norm >= 1 to a member
    containing the (B-decided) value x(k); the B coordinates collapse to
    their first canonical branch so x is fully decided."""
    B, N = set(B), p.horizon
    if xi in B:
        raise PreconditionError("target coordinate cannot carry the name")
    if xi not in p.support:
        raise PreconditionError(f"coordinate {xi!r} outside the support")
    outside = sorted(map(repr, B - set(p.support)))
    if outside:
        raise ValueError(f"the B coordinate {outside[0]} is outside the support")
    space = _read(p, nu_x)
    fixed = [j * N + k for j, xj in enumerate(p.support) if xj in B for k in range(N)]
    if not space.decides(fixed):
        raise PreconditionError("dependence leak: the name reads coordinates outside B")
    for x in fixed:
        space.set_cell(x, _singleton(space.cells[x]))
    caught, k = catch_real(p.parts[xi], [col[0] for col in space.values], n0)
    space.set_cell(p.support.index(xi) * N + k, caught.cells[k])
    return space.rebuild(p), k


@dataclass
class RestrictedName:
    """phi as an extensional map: per level, a dict from restricted branches
    (the C-coordinates' member choices) to finite value sets."""

    coords: tuple[str, ...]
    widths: tuple[int, ...]
    cells: tuple[dict, ...]


def restricted_localize(p: ProductCondition, nu_x: ProductNameOracle,
                        C, a, e):
    """Build q <= p and a name phi for a slalom over (a, e), read only from
    the C coordinates, catching x at every level.

    Splits owned inside C keep their cells (the value just varies with the
    restricted branch); splits owned outside C shrink so that at most e(k)
    values survive, by the same wide/narrow refinement as the single-poset
    localisation with colors d_beta(k) and range a(k).
    """
    if not p.is_modest():
        raise PreconditionError("condition is not modest")
    space = _localization_space(p, nu_x, a, e)
    C = tuple(sorted(set(C) & set(p.support)))
    phi = _localize(space, a, e, 0, [j for j, xi in enumerate(p.support) if xi in C])
    return space.rebuild(p), RestrictedName(C, tuple(e), tuple(phi))
