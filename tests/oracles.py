"""Independent re-implementations used as test oracles.

Everything here is written directly from the defining property, with no code
shared with the package, so agreement is meaningful evidence.
"""

import itertools
import math
from fractions import Fraction


def norm_direct(arena, members):
    """Largest k such that every k-subset of range(arena) lies inside some
    member; descending scan over all subset sizes."""
    members = [set(m) for m in members]
    best = 0
    for k in range(1, arena + 1):
        if all(any(set(sub) <= m for m in members)
               for sub in itertools.combinations(range(arena), k)):
            best = k
        else:
            break
    return best


def subset_count_direct(m, k):
    return sum(math.comb(m, j) for j in range(min(m, k) + 1))


def escape_measure_direct(c, h, cells, window):
    """Product over the window of (c(k) - |cell(k)|) / c(k)."""
    out = Fraction(1)
    for k in range(window[0], window[1]):
        out *= Fraction(c[k] - len(set(cells[k])), c[k])
    return out


def dominating_number_direct(x_size, y_size, rel):
    """Smallest D <= Y with every x related to some y in D; None if some x
    relates to nothing (the characteristic is infinite)."""
    for x in range(x_size):
        if not any(rel[x][y] for y in range(y_size)):
            return None
    for size in range(y_size + 1):
        for D in itertools.combinations(range(y_size), size):
            if all(any(rel[x][y] for y in D) for x in range(x_size)):
                return size
    return None


def unbounded_number_direct(x_size, y_size, rel):
    """Smallest U <= X with no single y relating to all of U; None if one y
    bounds everything (the characteristic is infinite)."""
    for size in range(x_size + 1):
        for U in itertools.combinations(range(x_size), size):
            if not any(all(rel[x][y] for x in U) for y in range(y_size)):
                return size
    return None


def single_family_level0(d0):
    """Level-0 values of the growth recursion, recomputed from scratch.
    Interval offsets start at zero, so min I = min J = 0 here."""
    d = d0
    h = d ** d
    g = h ** 2                    # (0 + h)^2 - 0
    b = 2 ** (g + d)
    c = 2 ** (2 * g + d)          # exponent g + (g + d)
    a = c ** h + 1
    return {"d": d, "h": h, "g": g, "b": b, "c": c, "a": a}


def branches_direct(coords):
    """Every branch of a condition given per coordinate as per-level member
    lists: per coordinate, a tuple of one member per level."""
    return list(itertools.product(*[itertools.product(*levels) for levels in coords]))


def reads_direct(coords, name, mode):
    """Does the condition read the name (a function of branches) timely or
    early?  From the definition, over pairs of branches: at every cut, two
    branches equal below the cut in every coordinate have the same first n
    values.  Early reading cuts below every level n (n = 1..N); timely
    reading cuts just above every split level n (a level where some
    coordinate has more than one member) and compares n values."""
    N = len(coords[0])
    if mode == "early":
        cuts = [(n, n) for n in range(1, N + 1)]
    else:
        cuts = [(n, n + 1) for n in range(N) if any(len(c[n]) > 1 for c in coords)]
    rows = [(b, tuple(name(b))) for b in branches_direct(coords)]
    return all(u[:n] == v[:n]
               for (a, u), (b, v) in itertools.combinations(rows, 2)
               for n, cut in cuts
               if all(x[:cut] == y[:cut] for x, y in zip(a, b)))
