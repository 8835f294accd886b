"""Finite relational systems, their two covering characteristics, and
connection-pair checking.

For a system <X, Y, rel>, b is the least size of a subset of X that no single
y bounds, and d the least size of a subset of Y that bounds every x; b is d
of the dual system.  d is found by exhaustive subset search, so sizes are
capped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

SIZE_CAP = 20
INF = None  # sentinel: compares above every natural


@dataclass(frozen=True)
class FinRelSystem:
    x_size: int
    y_size: int
    rel: tuple[tuple[bool, ...], ...]  # rel[x][y]

    def __post_init__(self):
        if len(self.rel) != self.x_size or any(len(r) != self.y_size for r in self.rel):
            raise ValueError("relation matrix dimensions do not match")

    @staticmethod
    def of(rows) -> "FinRelSystem":
        rel = tuple(tuple(bool(v) for v in row) for row in rows)
        return FinRelSystem(len(rel), len(rel[0]) if rel else 0, rel)

    def to_json(self) -> dict:
        return {"x_size": self.x_size, "y_size": self.y_size,
                "rel": [list(r) for r in self.rel]}

    @staticmethod
    def from_json(obj: dict) -> "FinRelSystem":
        rel = tuple(tuple(bool(v) for v in row) for row in obj["rel"])
        return FinRelSystem(obj["x_size"], obj["y_size"], rel)


@dataclass(frozen=True)
class TukeyPair:
    F: tuple[int, ...]  # X -> X'
    G: tuple[int, ...]  # Y' -> Y


def brute_characteristics(R: FinRelSystem):
    """(b, d) by exhaustive search over subsets, smallest first.

    b = least |B|, B subset of X, such that no y relates every member of B;
    INF if one y relates all of X.  d = least |D|, D subset of Y, such that
    every x relates some member of D; INF if some x relates nothing.  b is
    d of the dual: D subset of X dominates there exactly when no y relates
    every member of D.
    """
    if R.x_size > SIZE_CAP or R.y_size > SIZE_CAP:
        raise ValueError("system exceeds the exhaustive size cap")
    return _dominating_number(dual(R)), _dominating_number(R)


def _dominating_number(R: FinRelSystem):
    xs, ys = range(R.x_size), range(R.y_size)
    for size in range(1, R.y_size + 1):
        if any(all(any(R.rel[x][y] for y in D) for x in xs)
               for D in itertools.combinations(ys, size)):
            return size
    return INF


def leq_card(u, v) -> bool:
    """u <= v where INF compares above every natural."""
    if v is INF:
        return True
    if u is INF:
        return False
    return u <= v


def dual(R: FinRelSystem) -> FinRelSystem:
    """Swap the two sides and negate-transpose the relation."""
    rel = tuple(tuple(not R.rel[x][y] for x in range(R.x_size))
                for y in range(R.y_size))
    return FinRelSystem(R.y_size, R.x_size, rel)


def check_tukey(R: FinRelSystem, Rp: FinRelSystem, P: TukeyPair):
    """Check F(x) rel' y' => x rel G(y') for all pairs.

    Returns "ok" or ("counterexample", x, y'), first by x then by y'.
    """
    if len(P.F) != R.x_size or len(P.G) != Rp.y_size:
        raise ValueError("pair domains do not match the systems")
    if any(not 0 <= v < Rp.x_size for v in P.F) or any(not 0 <= v < R.y_size for v in P.G):
        raise ValueError("pair maps leave their codomains")
    for x in range(R.x_size):
        for yp in range(Rp.y_size):
            if Rp.rel[P.F[x]][yp] and not R.rel[x][P.G[yp]]:
                return ("counterexample", x, yp)
    return "ok"
