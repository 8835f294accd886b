"""Single-level creatures and their covering norms.

A creature is a nonempty family of small subsets of a finite arena.  Its norm
is the largest k such that every k-subset of the arena sits inside some
member; the log-norm rescales it and is only ever *compared* against rational
thresholds, via exact integer inequalities.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from math import comb

ARENA_LIMIT = 20


@dataclass(frozen=True)
class Creature:
    arena: int
    cap: int
    members: frozenset[frozenset[int]]

    def __post_init__(self):
        if self.arena < 1:
            raise ValueError("arena must be at least 1")
        if not self.members:
            raise ValueError("creature must have at least one member")
        if not max(map(len, self.members)) > self.cap:  # all members at once
            elements = frozenset().union(*self.members)
            if ({*map(type, elements)} <= {int} and min(elements, default=0) >= 0
                    and max(elements, default=0) < self.arena):
                return
        for m in self.members:  # find the first bad member, for its message
            if len(m) > self.cap:
                raise ValueError("member exceeds the size cap")
            for v in m:
                if type(v) is not int:  # a bool is not an element either
                    raise ValueError(f"member element {v!r} is not an integer")
            if any(v < 0 or v >= self.arena for v in m):
                raise ValueError("member leaves the arena")

    @staticmethod
    def of(arena: int, cap: int, members) -> "Creature":
        return Creature(arena, cap, frozenset(frozenset(m) for m in members))

    @cached_property
    def _order(self) -> tuple[frozenset[int], ...]:
        """Members by size, then by sorted elements: the one integer key
        len(m) * 2^arena - sum of 2^(arena-1-v) over m gives that order.
        Sorted once per creature, which is frozen."""
        a = self.arena
        w = [-(1 << (a - 1 - v)) for v in range(a)]
        return tuple(sorted(self.members, key=lambda m: sum(map(w.__getitem__, m), len(m) << a)))

    def sorted_members(self) -> list[frozenset[int]]:
        """The members in canonical order, as a new list on each call."""
        return list(self._order)

    def to_json(self) -> dict:
        return {"arena": self.arena, "cap": self.cap,
                "members": [sorted(m) for m in self._order]}

    @staticmethod
    def from_json(obj: dict) -> "Creature":
        return Creature.of(obj["arena"], obj["cap"], obj["members"])


def full_creature(arena: int, cap: int) -> Creature:
    """All subsets of size <= cap; the maximal creature, of norm cap."""
    members = []
    for k in range(min(cap, arena) + 1):
        members.extend(itertools.combinations(range(arena), k))
    return Creature.of(arena, cap, members)


def norm(M: Creature) -> int:
    """Largest k such that every subset of the arena of size <= k is
    contained in some member.

    Coverage is monotone in k, so the layers k = top, 1, top-1, 2, ... (top:
    the largest member size) are tested in turn from both ends until they
    meet: neither end tests more layers than the other, so a low norm among
    large members never enumerates their large layers, nor a high norm its
    small ones.  A layer fails at once when the members hold fewer k-subsets,
    counted with repeats, than C(arena, k); otherwise their k-subsets, as
    bitmasks, are collected until they number C(arena, k).
    """
    return _norm(M.arena, M.members)


def _check_arena(arena: int) -> None:
    if arena > ARENA_LIMIT:
        raise ValueError(f"arena {arena} exceeds the exhaustive-cost limit")


def _norm(arena: int, members, lo: int = 1) -> int:
    """norm of the creature on range(arena) with these (checked) members
    when it is at least lo, and some value below lo when it is not: the
    search starts its low end at lo, so no layer below lo is tested."""
    _check_arena(arena)
    bit = [1 << v for v in range(arena)]
    by_size = [[] for _ in range(arena + 1)]
    for m in members:
        by_size[len(m)].append(m)

    def covered(k):
        need = comb(arena, k)
        if len(by_size[k]) == need:  # distinct k-subsets already
            return True
        if sum(comb(s, k) * len(ms) for s, ms in enumerate(by_size)) < need:
            return False
        seen = {sum(map(bit.__getitem__, m)) for m in by_size[k]}
        for m in itertools.chain(*by_size[:k:-1]):
            if len(seen) == need:
                break
            seen.update(map(sum, itertools.combinations(map(bit.__getitem__, m), k)))
        return len(seen) == need

    hi = len(max(members, key=len))
    while lo <= hi:  # no k > hi is covered; if the norm is >= lo, every k < lo is
        if covered(hi):
            return hi
        hi -= 1
        if lo <= hi and not covered(lo):
            return lo - 1
        lo += 1
    return hi


def lognorm_cmp(M: Creature, d: int, t) -> str:
    """Decide whether (1/d) log_d(norm(M)+1) >= t, exactly.

    For t = u/w in lowest terms this is the integer inequality
    (norm(M)+1)**w >= d**(d*u).  Returns "AtLeast" or "Below".
    """
    return lognorm_value_cmp(norm(M), d, t)


def lognorm_value_cmp(norm_value: int, d: int, t) -> str:
    """Decide (norm_value+1)**w >= d**(d*u) for t = u/w: by bit lengths
    where they separate the sides, exactly otherwise.  Raises ValueError
    when the exact powers would pass numeric's exact size limit, TypeError
    when d is not an integer."""
    from fractions import Fraction

    from .numeric import _exact_pow
    d = operator.index(d)
    if d < 2:
        raise ValueError("d must be at least 2")
    t = Fraction(t)
    if t <= 0:
        return "AtLeast"
    u, w = t.numerator, t.denominator
    nb, db = (norm_value + 1).bit_length(), d.bit_length()
    if w * nb <= d * u * (db - 1):
        return "Below"
    if w * (nb - 1) >= d * u * db:
        return "AtLeast"
    lhs, rhs = _exact_pow(norm_value + 1, w), _exact_pow(d, d * u)
    if lhs is None or rhs is None:
        raise ValueError(f"lognorm comparison at t = {t}, d = {d} is past "
                         "the exact size limit")
    return "AtLeast" if lhs >= rhs else "Below"


def bigness_refine(M: Creature, coloring, d: int):
    """Pick the color class of maximal norm (ties: smallest color).

    ``coloring`` maps each member to a color below d; it is called on the
    members in canonical order.  The returned class M* satisfies
    norm(M)+1 <= d*(norm(M*)+1) by pigeonhole; a single class is M itself.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    classes: dict[int, list] = {}
    for m in M._order:
        color = coloring(m)
        if not 0 <= color < d:
            raise ValueError(f"color {color} out of range")
        classes.setdefault(color, []).append(m)
    if len(classes) == 1:  # every member has this color: M* = M, no norm to take
        _check_arena(M.arena)
        return color, M
    colors = sorted(classes)
    best, top = colors[0], _norm(M.arena, classes[colors[0]])
    for color in colors[1:]:
        value = _norm(M.arena, classes[color], top + 1)
        if value > top:  # strictly: ties keep the smaller color
            best, top = color, value
    return best, Creature(M.arena, M.cap, frozenset(classes[best]))


def range_refine(M: Creature, f, k: int, d: int, m: int) -> Creature:
    """Shrink M so the member statistic f takes at most k values.

    f maps members into range(m).  Requires m <= d*k; the range is cut into
    ceil(m/k) consecutive blocks of size <= k and bigness is applied to the
    induced block coloring, so the usual norm inequality carries over.
    """
    if k < 1:
        raise ValueError("block size must be positive")
    if m > d * k:
        raise ValueError(f"precondition m/k <= d fails: {m}/{k} > {d}")
    _, refined = bigness_refine(M, lambda t: f(t) // k, d)
    return refined
