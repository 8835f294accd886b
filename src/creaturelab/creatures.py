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
from fractions import Fraction
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
        for m in self.members:
            if len(m) > self.cap:
                raise ValueError("member exceeds the size cap")
            if any(v < 0 or v >= self.arena for v in m):
                raise ValueError("member leaves the arena")

    @staticmethod
    def of(arena: int, cap: int, members) -> "Creature":
        return Creature(arena, cap, frozenset(frozenset(m) for m in members))

    def sorted_members(self) -> list[frozenset[int]]:
        """Members in a canonical deterministic order."""
        return sorted(self.members, key=lambda m: (len(m), sorted(m)))

    def to_json(self) -> dict:
        return {"arena": self.arena, "cap": self.cap,
                "members": [sorted(m) for m in self.sorted_members()]}

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

    For k = 1, 2, ... the k-subsets of the members (as bitmasks) are
    collected until they number C(arena, k); the first k that falls short
    gives k - 1.
    """
    if M.arena > ARENA_LIMIT:
        raise ValueError(f"arena {M.arena} exceeds the exhaustive-cost limit")
    members = sorted(([1 << v for v in m] for m in M.members),
                     key=len, reverse=True)
    top = min(M.arena, len(members[0]))
    for k in range(1, top + 1):
        need = comb(M.arena, k)
        seen = set()
        for bits in members:
            if len(bits) < k:
                break
            seen.update(map(sum, itertools.combinations(bits, k)))
            if len(seen) == need:
                break
        if len(seen) < need:
            return k - 1
    return top


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

    ``coloring`` maps each member to a color below d.  The returned class
    M* satisfies norm(M)+1 <= d*(norm(M*)+1) by pigeonhole.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    classes: dict[int, list] = {}
    for m in M.sorted_members():
        color = coloring(m)
        if not 0 <= color < d:
            raise ValueError(f"color {color} out of range")
        classes.setdefault(color, []).append(m)
    best_color, best_norm, best = None, -1, None
    for color in sorted(classes):
        cl = Creature.of(M.arena, M.cap, classes[color])
        n = norm(cl)
        if n > best_norm:
            best_color, best_norm, best = color, n, cl
    return best_color, best


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
