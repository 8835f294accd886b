"""Seeded input generators for the benchmark workloads.

Each generator takes a ``random.Random`` and returns plain JSON-able data
(dicts, lists, ints, strings).  The library only ever sees these inputs
through its public constructors, in ``workloads.py``.  Nothing here uses
``creaturelab.toys``, so a refactor of the toy generators cannot silently
change what the benchmark measures.

The shapes of every workload (which arena/cap slots, how many instances of
each kind, which branch-count targets) are fixed; the seed only picks the
contents.  That keeps the cost of one round nearly the same from seed to
seed, which the run-to-run spread of the end-to-end metrics depends on.
"""

from __future__ import annotations

import itertools
from math import comb, prod
from random import Random


# ---------------------------------------------------------------------------
# shared helpers


def canon(members) -> list[list[int]]:
    """Members in the library's canonical order: by size, then elements."""
    return sorted((sorted(m) for m in members), key=lambda m: (len(m), m))


def all_subsets(arena: int, cap: int) -> list[list[int]]:
    return [list(c) for k in range(min(cap, arena) + 1)
            for c in itertools.combinations(range(arena), k)]


def creature(arena: int, cap: int, members) -> dict:
    return {"arena": arena, "cap": cap, "members": canon(members)}


def condition(c, h, d, cells) -> dict:
    """A truncated condition in ``TruncCondition.from_json`` form."""
    return {"c": list(c), "h": list(h), "d": list(d),
            "cells": [canon(cell) for cell in cells]}


def branch_keys(cells) -> list[tuple[int, ...]]:
    """Index tuples of every full branch, in lexicographic order."""
    return list(itertools.product(*(range(len(cell)) for cell in cells)))


def _name_table(rng, branches, profile, cut) -> dict:
    """Branch key -> value list.  A branch is a tuple of per-coordinate
    index tuples; x(k) is a random function of its first ``cut(k)`` levels
    on every coordinate."""
    cuts = [cut(k) for k in range(len(profile))]
    tables = [{} for _ in profile]
    out = {}
    for br in branches:
        vals = []
        for k, choices in enumerate(profile):
            pre = tuple(part[:cuts[k]] for part in br)
            if pre not in tables[k]:
                tables[k][pre] = rng.choice(choices)
            vals.append(tables[k][pre])
        out[_key(br)] = vals
    return out


def _key(br) -> str:
    """The library's table key: member indices joined by ",", coordinates
    by "|"."""
    return "|".join(",".join(map(str, part)) for part in br)


def _profile(rng, N: int) -> list[list[int]]:
    """Per level, the values a name may take: range(1..3)."""
    return [list(range(rng.randint(1, 3))) for _ in range(N)]


# ---------------------------------------------------------------------------
# exhaustive: wide creatures, conditions built from them, relational
# systems and the transfer maps

# (arena, cap, shape).  "full" has norm cap, "near" drops a few top-size
# members (norm cap - 1), "dense" keeps a random 85% of all small subsets.
EXHAUSTIVE_SLOTS = [
    (16, 4, "full"), (14, 4, "near"), (12, 4, "full"), (19, 3, "full"),
    (18, 3, "near"), (17, 3, "dense"), (15, 3, "full"), (13, 4, "dense"),
    (19, 2, "full"), (16, 2, "near"), (12, 3, "near"), (18, 2, "dense"),
    # cheaper slots: many operations of graded cost keep the median
    # latency away from a gap between cost clusters
    (12, 2, "full"), (13, 2, "near"), (14, 2, "dense"), (15, 2, "full"),
    (17, 2, "near"), (12, 3, "full"), (13, 3, "near"), (14, 3, "dense"),
    (13, 3, "full"), (16, 3, "near"), (15, 2, "dense"), (14, 3, "full"),
]
TINY_SLOTS = [(6, 2, "full"), (7, 2, "near"), (6, 3, "dense")]
# conditions over three pool slots each, with their d per level
EXHAUSTIVE_CONDITIONS = [((0, 3, 6), (2, 3, 2)), ((1, 4, 7), (3, 2, 2)),
                         ((2, 5, 8), (2, 2, 3)), ((9, 10, 11), (2, 3, 3))]


def _slot_creature(rng, arena, cap, shape) -> dict:
    pool = all_subsets(arena, cap)
    if shape == "full":
        members = pool
    elif shape == "near":
        # dropping ~3% of the top members makes the first uncovered top
        # subset turn up early, so the cost barely depends on the seed
        top = [m for m in pool if len(m) == cap]
        drop = {tuple(m) for m in rng.sample(top, max(1, len(top) // 32))}
        members = [m for m in pool if tuple(m) not in drop]
    else:
        members = [m for m in pool if len(m) <= 1 or rng.random() < 0.85]
    out = creature(arena, cap, members)
    out["shape"] = shape
    return out


def _relational_system(rng, nx: int, ny: int, density: float):
    """A random relation with every column missing some x (so b is finite)
    and every row hitting some y (so d is finite)."""
    rel = [[rng.random() < density for _ in range(ny)] for _ in range(nx)]
    for y in range(ny):
        rel[rng.randrange(nx)][y] = False
    for x in range(nx):
        if not any(rel[x]):
            rel[x][rng.randrange(ny)] = True
    return [[int(v) for v in row] for row in rel]


def _tukey_case(rng, lo: int, hi: int) -> dict:
    """(R, R', F, G) where R' is defined so that (F, G) is a connection:
    x' rel' y' iff every F-preimage of x' relates G(y')."""
    nx, ny = rng.randint(lo, hi), rng.randint(lo, hi)
    R = _relational_system(rng, nx, ny, rng.uniform(0.6, 0.7))
    nxp, nyp = rng.randint(lo, hi), rng.randint(lo, hi)
    F = [rng.randrange(nxp) for _ in range(nx)]
    G = [rng.randrange(ny) for _ in range(nyp)]
    Rp = [[int(all(R[x][G[yp]] for x in range(nx) if F[x] == xp))
           for yp in range(nyp)] for xp in range(nxp)]
    return {"R": R, "Rp": Rp, "F": F, "G": G}


def _maps_cases(rng, n: int) -> dict:
    """Valid inputs for the five transfer-map checks over n indices."""
    c = [rng.randint(4, 12) for _ in range(n)]
    h = [rng.randint(1, 3) for _ in range(n)]
    widths = [ck.bit_length() - 1 for ck in c]
    y_bits = "".join(rng.choice("01") for _ in range(max(widths)))
    S = [sorted(rng.sample(range(ck), rng.randint(0, hk)))
         for ck, hk in zip(c, h)]
    l24 = {"c": c, "h": h, "y": y_bits, "S": S}

    b = [rng.randint(2, 9) for _ in range(n)]
    g = [rng.randint(1, 3) for _ in range(n)]
    yb = [rng.randrange(bn) for bn in b]
    total_bits = sum((bn - 1).bit_length() for bn in b)
    entries = ["".join(rng.choice("01") for _ in range(total_bits))
               for _ in range(sum(g))]
    l25 = {"b": b, "g": g, "y": yb, "X": entries}

    hp = [(ck - 1) // hk for ck, hk in zip(c, h)]  # h * h' < c
    phi = [[sorted(rng.sample(range(ck), rng.randint(1, hk)))
            for _ in range(rng.randint(0, v))] for ck, hk, v in zip(c, h, hp)]
    l26 = {"c": c, "h": h, "hprime": hp, "S": S, "phi": phi}

    S27 = [sorted(rng.sample(range(ck), rng.randint(1, hk)))
           for ck, hk in zip(c, h)]
    l27 = {"c": c, "h": h, "S": S27, "y": [rng.randrange(ck) for ck in c]}

    x_ed = [rng.randrange((ck + hk - 1) // hk) for ck, hk in zip(c, h)]
    ed = {"c": c, "h": h, "x": x_ed, "y": [rng.randrange(ck) for ck in c]}
    return {"l24": l24, "l25": l25, "l26": l26, "l27": l27, "ed": ed}


def exhaustive(rng, tiny: bool = False) -> dict:
    slots = TINY_SLOTS if tiny else EXHAUSTIVE_SLOTS
    creatures = []
    for arena, cap, shape in slots:
        M = _slot_creature(rng, arena, cap, shape)
        n = len(M["members"])
        d = rng.randint(2, 4)
        k = rng.randint(1, 3)
        M["lognorm"] = {"d": rng.randint(2, 3),
                        "t": f"{rng.randint(1, 3)}/{rng.randint(1, 6)}"}
        M["bigness"] = {"d": d, "colors": [rng.randrange(d) for _ in range(n)]}
        m = d * k
        M["range"] = {"d": d, "k": k, "m": m,
                      "f": [rng.randrange(m) for _ in range(n)]}
        creatures.append(M)
    # conditions whose cells are the pool's creatures (same objects at run
    # time, so norm is asked again about creatures it has seen)
    conds = []
    for picks, d in ([((0, 1, 2), (2, 2, 2))] if tiny else EXHAUSTIVE_CONDITIONS):
        gbound = [rng.randint(2, 10 ** 4) for _ in picks]
        conds.append({"cells": list(picks), "d": list(d), "gbound": gbound})
    lo, hi = (4, 6) if tiny else (10, 16)
    tukey = [_tukey_case(rng, lo, hi) for _ in range(3)]
    maps = [_maps_cases(rng, rng.randint(3, 6)) for _ in range(2)]
    return {"creatures": creatures, "conditions": conds, "tukey": tukey,
            "maps": maps}


# ---------------------------------------------------------------------------
# reading: conditions and modest two-coordinate products with name tables


def _pool_size(arena: int, cap: int) -> int:
    return sum(comb(arena, i) for i in range(cap + 1))


def _shape(srng, rng, N: int, target: int, coords="x", nsplit: int = 3,
           catch: bool = False):
    """Per-coordinate cells over N levels: ``nsplit`` split levels, each
    owned by one coordinate (modest: one splitter per level) and, with
    ``catch``, one more level where a coordinate holds all small subsets of
    its arena.  Arenas are 3..5 and caps 1..2.  The last split's member
    count is solved for, so the branch count lands within 12% of
    ``target``.  This structure comes from ``srng``; only the members
    chosen come from ``rng``."""
    for _ in range(10 ** 5):
        ch = {xi: [(srng.randint(3, 5), srng.randint(1, 2)) for _ in range(N)]
              for xi in coords}
        levels = srng.sample(range(N), nsplit + catch)
        owner = {k: srng.choice(coords) for k in levels[:nsplit]}
        if len(set(owner.values())) < len(coords):
            continue
        full = (levels[-1], srng.choice(coords)) if catch else None
        sizes = {k: srng.randint(2, _pool_size(*ch[owner[k]][k]))
                 for k in levels[:nsplit - 1]}
        rest = prod(sizes.values()) * (_pool_size(*ch[full[1]][full[0]])
                                       if full else 1)
        last = levels[nsplit - 1]
        sizes[last] = max(2, round(target / rest))
        if sizes[last] <= _pool_size(*ch[owner[last]][last]) \
                and abs(rest * sizes[last] - target) <= 0.12 * target:
            break
    else:
        raise ValueError(f"no shape with about {target} branches")
    parts = {}
    for xi in coords:
        cells = []
        for k, (c, h) in enumerate(ch[xi]):
            pool = all_subsets(c, h)
            if full == (k, xi):
                cells.append(canon(pool))
            else:
                size = sizes[k] if owner.get(k) == xi else 1
                cells.append(canon(rng.sample(pool, size)))
        parts[xi] = ([c for c, _ in ch[xi]], [h for _, h in ch[xi]], cells)
    return parts, full


def _timely_cut(splits, N):
    """x(k) may read every level up to the first split strictly above k."""
    def cut(k):
        later = [n for n in splits if n > k]
        return (later[0] + 1) if later else N
    return cut


def _early_cut(k):
    """x(k) reads the levels up to k."""
    return k + 1


def _single_timely(srng, rng, target) -> dict:
    """Condition + name read timely, with d sized for early_read."""
    N = 5
    c, h, cells = _shape(srng, rng, N, target, nsplit=4)[0]["x"]
    profile = _profile(srng, N)
    d, count = [], 1
    for k in range(N):
        need = count + 1 if len(cells[k]) > 1 else 2
        d.append(max(2, need, prod(len(a) for a in profile[:k])))
        count *= len(cells[k])
    splits = [k for k, cell in enumerate(cells) if len(cell) > 1]
    table = _name_table(rng, _single_branches(cells), profile,
                        _timely_cut(splits, N))
    gbound = [rng.randint(2, 200) for _ in range(N)]
    return {"condition": condition(c, h, d, cells), "profile": profile,
            "table": table, "gbound": gbound}


def _single_early(srng, rng, target) -> dict:
    """Condition + name read early, with (a, e, d) inside every window the
    localisation checks (each split in the wide or the narrow subcase)."""
    N = 5
    c, h, cells = _shape(srng, rng, N, target, nsplit=4)[0]["x"]
    profile = _profile(srng, N)
    a = [len(p) + srng.randint(0, 1) for p in profile]
    cdh = [_pool_size(c[k], h[k]) for k in range(N)]
    e, d, count = [], [], 1
    for k in range(N):
        ek = max(prod(cdh[:k]), count, 1)
        dk = max(2, prod(a[:k]))
        if len(cells[k]) > 1:
            if srng.random() < 0.5:
                ek = max(ek, 2 * count * cdh[k])
            else:
                dk = max(dk, 2 * count * a[k])
                ek = max(ek, count)
        e.append(ek)
        d.append(dk)
        count *= len(cells[k])
    table = _name_table(rng, _single_branches(cells), profile, _early_cut)
    return {"condition": condition(c, h, d, cells), "profile": profile,
            "table": table, "a": a, "e": e,
            "chain": _chain_plan(rng, cells)}


def _chain_plan(rng, cells) -> list:
    """Removals that turn the condition into a fusion chain: link n+1 drops
    one member from a cell strictly above link n's n-th split, keeping
    every split a split."""
    splits = [k for k, cell in enumerate(cells) if len(cell) > 1]
    sizes = [len(cell) for cell in cells]
    plan = []
    for n in range(len(splits) - 1):
        above = [k for k in splits if k > splits[n] and sizes[k] > 2]
        if not above:
            plan.append(None)
            continue
        k = rng.choice(above)
        plan.append([k, rng.randrange(sizes[k])])
        sizes[k] -= 1
    return plan


def _product_json(parts, d) -> dict:
    """``ProductCondition.from_json`` form; x is owned by family A, y by B,
    both with the per-level ``d``."""
    fams = {}
    out_parts = {}
    for xi, fam in (("x", "A"), ("y", "B")):
        c, h, cells = parts[xi]
        fams[fam] = {"c": c, "h": h, "d": list(d)}
        out_parts[xi] = condition(c, h, d, cells)
    return {"coords": {"x": {"owner": "A"}, "y": {"owner": "B"}},
            "families": fams, "parts": out_parts}


def _single_branches(cells):
    return [(idx,) for idx in branch_keys(cells)]


def _product_branches(parts):
    """(x index tuple, y index tuple) of every product branch."""
    xs = branch_keys(parts["x"][2])
    ys = branch_keys(parts["y"][2])
    return [(ix, iy) for ix in xs for iy in ys]


def _level_counts(parts, N):
    """Product possibility count below each level, and through the last."""
    counts = [1]
    for k in range(N):
        counts.append(counts[-1] * len(parts["x"][2][k]) * len(parts["y"][2][k]))
    return counts


def _product_timely(srng, rng, target) -> dict:
    N = 5
    parts, _ = _shape(srng, rng, N, target, "xy")
    profile = _profile(srng, N)
    counts = _level_counts(parts, N)
    d = [max(2, counts[k] + 1, prod(len(a) for a in profile[:k]))
         for k in range(N)]
    splits = [k for k in range(N) if counts[k + 1] > counts[k]]
    table = _name_table(rng, _product_branches(parts), profile,
                        _timely_cut(splits, N))
    return {"condition": _product_json(parts, d), "profile": profile,
            "table": table}


def _product_restricted(srng, rng, target) -> dict:
    N = 4
    parts, _ = _shape(srng, rng, N, target, "xy")
    profile = _profile(srng, N)
    a = [len(p) + srng.randint(0, 1) for p in profile]
    counts = _level_counts(parts, N)
    e = [counts[k + 1] for k in range(N)]
    d = [max(2, 2 * counts[k] * a[k], prod(a[:k])) for k in range(N)]
    table = _name_table(rng, _product_branches(parts), profile, _early_cut)
    return {"condition": _product_json(parts, d), "profile": profile,
            "table": table, "C": [srng.choice("xy")], "a": a, "e": e}


def _product_catch(srng, rng, target) -> dict:
    """The name reads only coordinate beta; coordinate xi holds every small
    subset of its arena at one level (union = arena, so norm >= 1), where
    the catch happens."""
    N = 5
    parts, (k0, xi) = _shape(srng, rng, N, target, "xy", catch=True)
    beta = "y" if xi == "x" else "x"
    counts = _level_counts(parts, N)
    d = [max(2, counts[k] + 1) for k in range(N)]
    c_xi, beta_cells = parts[xi][0], parts[beta][2]
    profile = [list(range(c_xi[k])) for k in range(N)]
    pick = [[rng.randrange(c_xi[k]) for _ in beta_cells[k]] for k in range(N)]
    table = {}
    for br in _product_branches(parts):
        ib = br["xy".index(beta)]
        table[_key(br)] = [pick[k][ib[k]] for k in range(N)]
    return {"condition": _product_json(parts, d), "profile": profile,
            "table": table, "B": [beta], "xi": xi, "level": k0}


# (kind, instances per round, branch count target)
READING_PLAN = [
    ("single_timely", 5, 3000),
    ("single_early", 5, 3000),
    ("product_timely", 4, 800),
    ("product_restricted", 4, 500),
    ("product_catch", 4, 1200),
]
_READING_MAKERS = {"single_timely": _single_timely,
                   "single_early": _single_early,
                   "product_timely": _product_timely,
                   "product_restricted": _product_restricted,
                   "product_catch": _product_catch}


def reading(rng, tiny: bool = False) -> dict:
    """Instance structure (arenas, caps, split levels and sizes, profiles,
    subcases) is drawn from fixed per-slot seeds, the same for every run;
    the run's seed picks the members, the name tables and the bounds."""
    out = {}
    for kind, count, target in READING_PLAN:
        out[kind] = [_READING_MAKERS[kind](Random(f"{kind}/{i}"), rng,
                                           40 if tiny else target)
                     for i in range(1 if tiny else count)]
    return out


# ---------------------------------------------------------------------------
# family: growth tuples, tree families and tower expressions


def _expression(rng, depth: int):
    """A random add/mul/pow tree; leaves in the three accepted forms."""
    if depth == 0 or rng.random() < 0.25:
        v = rng.randint(2, 999)
        form = rng.randrange(3)
        return v if form == 0 else (str(v) if form == 1 else
                                    {"op": "const", "value": v})
    op = rng.choice(["add", "mul", "pow"])
    if op == "pow":
        return {"op": "pow", "args": [_expression(rng, depth - 1),
                                      _expression(rng, 0)]}
    return {"op": op, "args": [_expression(rng, depth - 1)
                               for _ in range(rng.randint(2, 3))]}


def family(rng, tiny: bool = False) -> dict:
    """build_single pairs: (3, 4) is the power-of-two d0 whose level-0 values
    are exact ~33.5M-bit integers; d0 = 5 keeps a ~10M-bit exact b; d0 >= 6
    goes to towers at once (the seed picks those pairs).  Tree families at
    depth 2 and 3 (height cap 32 so depth 3 fits).  The seed also picks the
    tower expressions."""
    fast = []
    for _ in range(3 if tiny else 10):
        d0 = rng.randint(6, 40)
        fast.append([rng.randint(3, d0 - 1), d0])
    if tiny:
        singles = fast
        trees = [[3, 2, 24]]
    else:
        singles = [[3, 4], [4, 5], [3, 5]] + fast
        trees = [[4, 2, 24], [3, 2, 24], [5, 2, 24], [3, 3, 32]]
    exprs = [_expression(rng, rng.randint(1, 3))
             for _ in range(4 if tiny else 24)]
    return {"singles": singles, "trees": trees, "exprs": exprs}


# ---------------------------------------------------------------------------
# cli: a fixed mix of subcommand invocations


def cli(rng, tiny: bool = False) -> list[dict]:
    """Invocations as {"argv", "input" (or None), "expect"}: "expect" is the
    exit code the contract gives for this input."""
    calls = []

    def add(argv, payload, expect=0):
        calls.append({"argv": argv, "input": payload, "expect": expect})

    for _ in range(2):
        arena, cap = rng.randint(4, 8), rng.randint(1, 3)
        pool = all_subsets(arena, cap)
        M = creature(arena, cap, rng.sample(pool, min(len(pool),
                                                      rng.randint(3, 12))))
        add(["norm"], {"creature": M})
    arena = rng.randint(5, 8)
    M = creature(arena, 2, all_subsets(arena, 2))
    n, d = len(M["members"]), rng.randint(2, 4)
    add(["bigness"], {"creature": M, "d": d,
                      "colors": [rng.randrange(d) for _ in range(n)]})
    case = _tukey_case(rng, 4, 8)
    sysj = lambda rows: {"x_size": len(rows), "y_size": len(rows[0]),
                         "rel": rows}
    add(["tukey"], {"R": sysj(case["R"]), "Rp": sysj(case["Rp"]),
                    "F": case["F"], "G": case["G"]})
    # a pair that is not a connection: the identity on a diagonal system
    # against a system whose last row copies the first
    n3 = rng.randint(3, 6)
    diag = [[int(i == j) for j in range(n3)] for i in range(n3)]
    bad = [row[:] for row in diag]
    bad[-1] = diag[0][:]
    add(["tukey"], {"R": sysj(diag), "Rp": sysj(bad),
                    "F": list(range(n3)), "G": list(range(n3))}, expect=1)
    add(["brute"], {"R": sysj(_relational_system(rng, rng.randint(5, 9),
                                                 rng.randint(5, 9), 0.6))})
    inst = _single_timely(rng, rng, 24)
    add(["check-reading", "--mode", "timely"],
        {"condition": inst["condition"],
         "oracle": {"profile": inst["profile"], "table": inst["table"]}})
    add(["schedule"], {"n": rng.randint(2, 6)})
    maps = _maps_cases(rng, rng.randint(3, 5))
    add(["maps", "--mode", "ed"], maps["ed"])
    if not tiny:
        add(["suite", "--mode", "norm", "--seed", str(rng.randrange(10 ** 6)),
             "--cap", "40"], None)
        add(["suite", "--mode", "tukey", "--seed",
             str(rng.randrange(10 ** 6)), "--cap", "20"], None)
        add(["family", "--mode", "verify"],
            {"d0": 3, "depth": 2, "kind": "tree"})
    return calls


def library(rng, tiny: bool = False) -> dict:
    """The exhaustive creature kernels, the growth-family work and the
    reading work, run in process as one pool."""
    return {"exhaustive": exhaustive(rng, tiny), "family": family(rng, tiny),
            "reading": reading(rng, tiny)}


GENERATORS = {"library": library, "cli": cli}
