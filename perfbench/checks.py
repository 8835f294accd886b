"""Independent oracles and post-conditions for the benchmark's outputs.

None of these calls the library function whose output they check; they
recompute the answer another way (a different algorithm over the plain
generated data) or test a property the answer must have.  They run outside
the timed region.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import comb, prod


def cover_norm(arena: int, members) -> int:
    """Norm by covering counts: the largest k such that the members' own
    k-subsets make up all C(arena, k) of them (every smaller size then
    follows)."""
    members = [tuple(sorted(m)) for m in members]
    top = min(arena, max(len(m) for m in members))
    for k in range(1, top + 1):
        seen = set()
        for m in members:
            if len(m) >= k:
                seen.update(itertools.combinations(m, k))
        if len(seen) != comb(arena, k):
            return k - 1
    return top


def lognorm_answer(norm_value: int, d: int, t: str) -> str:
    t = Fraction(t)
    if t <= 0:
        return "AtLeast"
    big = (norm_value + 1) ** t.denominator >= d ** (d * t.numerator)
    return "AtLeast" if big else "Below"


def best_class(arena: int, members, colors):
    """The color class of maximal cover norm, smallest color on ties."""
    classes = {}
    for m, col in zip(members, colors):
        classes.setdefault(col, []).append(frozenset(m))
    best = None
    for col in sorted(classes):
        n = cover_norm(arena, classes[col])
        if best is None or n > best[1]:
            best = (col, n, frozenset(classes[col]))
    return best


def refine_ok(arena, members, colors, d, out_members, out_color=None) -> bool:
    """Pigeonhole refinement: the kept class is the best one and satisfies
    norm(M) + 1 <= d * (norm(M*) + 1)."""
    col, n_star, cls = best_class(arena, members, colors)
    if out_members != cls or (out_color is not None and out_color != col):
        return False
    return cover_norm(arena, members) + 1 <= d * (n_star + 1)


def brute_answer(rel):
    """(b, d) of a relation matrix with subsets as bitmasks; None = INF."""
    nx, ny = len(rel), len(rel[0])
    cols = [sum(1 << x for x in range(nx) if rel[x][y]) for y in range(ny)]
    rows = [sum(1 << y for y in range(ny) if rel[x][y]) for x in range(nx)]
    b = d = None
    for size in range(1, nx + 1):
        if any(all(mask & ~col for col in cols)
               for mask in _masks(nx, size)):
            b = size
            break
    for size in range(1, ny + 1):
        if any(all(row & mask for row in rows) for mask in _masks(ny, size)):
            d = size
            break
    return b, d


def _masks(n, size):
    for combo in itertools.combinations(range(n), size):
        yield sum(1 << i for i in combo)


# ---------------------------------------------------------------------------
# conditions and products, from their JSON forms


def index_maps(cond_json) -> list[dict]:
    """Per level: member (as a sorted tuple) -> index in the canonical
    order, which is how the name tables are keyed."""
    return [{tuple(m): i for i, m in enumerate(cell)}
            for cell in cond_json["cells"]]


def cells_within(q_json, p_json) -> bool:
    return all({tuple(m) for m in qc} <= {tuple(m) for m in pc}
               for qc, pc in zip(q_json["cells"], p_json["cells"]))


def branch_values(q_json, base_json, table):
    """(branch, values) for every full branch of q, values looked up in the
    base's name table; a branch is a tuple of member tuples."""
    maps = index_maps(base_json)
    for br in itertools.product(*(map(tuple, cell) for cell in q_json["cells"])):
        key = ",".join(str(maps[k][m]) for k, m in enumerate(br))
        yield br, table[key]


def product_branch_values(q_json, base_json, table):
    """Same for a two-coordinate product; branches are (x-branch, y-branch)."""
    maps = {xi: index_maps(base_json["parts"][xi]) for xi in "xy"}
    per = {xi: list(itertools.product(*(map(tuple, cell) for cell in
                                        q_json["parts"][xi]["cells"])))
           for xi in "xy"}
    for bx in per["x"]:
        kx = ",".join(str(maps["x"][k][m]) for k, m in enumerate(bx))
        for by in per["y"]:
            ky = ",".join(str(maps["y"][k][m]) for k, m in enumerate(by))
            yield (bx, by), table[kx + "|" + ky]


def products_within(q_json, p_json) -> bool:
    return all(cells_within(q_json["parts"][xi], p_json["parts"][xi])
               for xi in "xy")


def split_levels(cond_json) -> list[int]:
    return [k for k, cell in enumerate(cond_json["cells"]) if len(cell) > 1]


def thin_ok(q_json, p_json, gbound) -> bool:
    """Every cell kept or collapsed to p's first member; at least one split
    survives, and the possibilities below each surviving split stay under
    gbound there."""
    for qc, pc in zip(q_json["cells"], p_json["cells"]):
        if qc != pc and qc != pc[:1]:
            return False
    splits = split_levels(q_json)
    if not splits:
        return False
    sizes = [len(cell) for cell in q_json["cells"]]
    return all(prod(sizes[:lvl]) < gbound[lvl] for lvl in splits)


def fuse_ok(q_json, chain_json) -> bool:
    """The fusion extends every link n, frozen up to its own n-th split."""
    qs = split_levels(q_json)
    for n, link in enumerate(chain_json):
        if not cells_within(q_json, link):
            return False
        top = qs[n] if n < len(qs) else len(q_json["cells"]) - 1
        if q_json["cells"][:top + 1] != link["cells"][:top + 1]:
            return False
    return True


def name_max(table, horizon: int) -> tuple:
    return tuple(max(v[k] for v in table.values()) for k in range(horizon))


# ---------------------------------------------------------------------------
# towers


def log2_interval(t):
    """Float interval holding log2 of the value a LogTower encloses."""
    def lg(x):
        x = Fraction(x)
        return math.log2(x.numerator) - math.log2(x.denominator)
    if t.height == 0:
        return lg(t.low), lg(t.high)
    if t.height == 1:
        return float(t.low), float(t.high)
    if t.height == 2:
        return _exp2(t.low), _exp2(t.high)
    return 0.0, math.inf


def _exp2(x):
    try:
        return 2.0 ** float(x)
    except OverflowError:
        return math.inf


def encloses_log2(t, L: float, rel: float = 1e-9) -> bool:
    lo, hi = log2_interval(t)
    return lo * (1 - rel) - rel <= L <= hi * (1 + rel) + rel


def expr_log2(expr) -> float:
    """log2 of an add/mul/pow expression's value, in floating point."""
    if isinstance(expr, (int, str)):
        return math.log2(int(expr))
    if expr["op"] == "const":
        return math.log2(int(expr["value"]))
    args = [expr_log2(a) for a in expr["args"]]
    if expr["op"] == "mul":
        return sum(args)
    if expr["op"] == "pow":
        return 2.0 ** args[1] * args[0]
    top = max(args)
    return top + math.log2(sum(2.0 ** (a - top) for a in args))


def level0_single(n0: int, d0: int) -> dict:
    """Exponents of the level-0 growth values by the recurrence:
    h = d^d, g = h^2, b = 2^(g+d), c = 2^(2g+d), a = c^h + 1."""
    h = d0 ** d0
    g = h * h
    return {"h": h, "g": g, "log_b": g + d0, "log_c": 2 * g + d0,
            "log_ch": h * (2 * g + d0), "log_bg": g * (g + d0)}
