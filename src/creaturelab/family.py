"""The growth-sequence recursion: single tuples, the binary-tree family,
and the certificate checker.

Level-0 values are exact integers; deeper levels are rigorous tower
enclosures.  The numeric tower operations, which take plain ints too, decide
which values stay exact.  Several clauses are equalities or strict
inequalities *by construction* (e.g. h = d^{(k+1)d}); when a tower comparison
cannot separate two enclosures of the same underlying expression, the checker
credits the recorded construction tag instead of guessing, and an exact
level-0 recomputation always takes precedence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .numeric import (PROMOTION_THRESHOLD, Cmp, tower, tower_add, tower_cmp,
                      tower_exp2, tower_le, tower_mul, tower_pow, tower_sub,
                      tower_to_json, _bits)

FAMILY_HEIGHT_CAP = 24  # the builders and the checker refuse taller values
FIELDS = ("d", "h", "g", "b", "c", "a")  # a chain level's or tree node's values


class TowerOverflowError(ArithmeticError):
    """A family value is taller than the height cap."""


def _capped(cap, k, values):
    """Raise if one of stage k's values is more than cap exponentials tall."""
    height = max(getattr(v, "height", 0) for v in values)
    if height > cap:
        raise TowerOverflowError(f"height cap {cap} exceeded: stage {k} reaches height "
                                 f"{height} (raise the cap field, or --cap)")


def _lt(x, y):
    c = tower_cmp(x, y)
    return None if c is Cmp.UNKNOWN else c is Cmp.LESS


def _value_json(v):
    if isinstance(v, int):
        return {"exact": str(v)} if _bits(v) <= 4096 else \
            {"exact_bits": _bits(v)}
    return tower_to_json(v)


# ---------------------------------------------------------------------------
# domain types


@dataclass
class FamilyTuple:
    """One growth tuple: per-level d, h, g, b, c, a and the f-intervals
    (exact ints at level 0, towers beyond)."""

    depth: int
    d: tuple
    h: tuple
    g: tuple
    b: tuple
    c: tuple
    a: tuple
    f_records: tuple      # per level: {"end": min I_{k+1}, "offset": f's lead}
    constructed: bool = True

    def to_json(self) -> dict:
        return {"depth": self.depth,
                "levels": [{name: _value_json(getattr(self, name)[k]) for name in FIELDS}
                           for k in range(self.depth)]}


@dataclass
class BoundingSequences:
    n_minus: tuple        # len depth + 1 for a chain (with the next lower
                          # bound), depth for a tree
    n_plus: tuple         # len depth

    def to_json(self) -> dict:
        return {"n_minus": [_value_json(v) for v in self.n_minus],
                "n_plus": [_value_json(v) for v in self.n_plus]}


@dataclass
class TreeNode:
    """A node's FIELDS; its label, of length k + 1, is its key in the tree."""

    d: object
    h: object
    g: object
    b: object
    c: object
    a: object


@dataclass
class TreeFamily:
    depth: int
    nodes: dict           # label -> TreeNode
    bounding: BoundingSequences
    constructed: bool = True

    @staticmethod
    def stage(k: int) -> list[str]:
        return ["".join(bits) for bits in
                itertools.product("01", repeat=k + 1)]

    def to_json(self) -> dict:
        return {"depth": self.depth,
                "nodes": {t: {name: _value_json(getattr(n, name)) for name in FIELDS}
                          for t, n in sorted(self.nodes.items())},
                "bounding": self.bounding.to_json()}


# ---------------------------------------------------------------------------
# construction


def _staircase(k: int, d):
    """h = d^{(k+1)d}.  For an exact d above the promotion threshold
    tower_pow refuses the exact power and reads the exponent only through
    its log2 enclosure.  When k + 1 is a power of two, the enclosure of
    log2(k + 1) + log2(d) is that of log2((k + 1) d) bit for bit, so the
    exact product is not built."""
    if isinstance(d, int) and d > PROMOTION_THRESHOLD and not k & (k + 1):
        d = tower(d)
    return tower_pow(d, tower_mul(k + 1, d))


def _stage_values(k: int, d, state, tree: bool):
    """One level's FIELDS and next state, from d(k) and the running block
    state (min I_k, min J_k, sum of g+d below k)."""
    min_i, min_j, total = state
    h = _staircase(k, d)
    min_j_next = tower_add(min_j, h)
    g = tower_sub(tower_pow(min_j_next, k + 2), min_i)
    gd = tower_add(g, d)
    total_next = tower_add(total, gd)
    b = tower_exp2(gd)
    c = tower_exp2(tower_add(g, total_next))
    ch = tower_pow(c, h)
    if tree:
        # the larger of the two power bounds, so a also tops b^g
        bg = tower_pow(b, g)
        base = bg if tower_le(ch, bg) in (True, None) else ch
    else:
        base = ch
    # on a tower, + 1 widens the upper bound by the slack that covers doubling
    a = tower_add(base, 1)
    return dict(zip(FIELDS, (d, h, g, b, c, a)),
                state=(tower_add(min_i, g), min_j_next, total_next))


def _sub_offset(total, min_i):
    try:
        return tower_sub(total, min_i)
    except (ValueError, ArithmeticError):
        return None


def build_single(n0_minus: int, d0: int, depth: int = 2, *,
                 cap: int = FAMILY_HEIGHT_CAP):
    """Evaluate the single-tuple recursion for k < depth.

    Level 0 is exact; the lower bound of the next level is the minimal
    choice above n_k^- * n_k^+, and d the minimal value above it.
    """
    if not 2 < n0_minus < d0:
        raise ValueError("need 2 < n0_minus < d0")
    if depth < 1:
        raise ValueError("depth must be positive")
    seqs = {name: [] for name in FIELDS}
    f_records = []
    n_minus, n_plus = [n0_minus], []
    d = d0
    state = (0, 0, 0)
    for k in range(depth):
        vals = _stage_values(k, d, state, tree=False)
        for name in FIELDS:
            seqs[name].append(vals[name])
        end, _, total = vals["state"]
        f_records.append({"end": end, "offset": _sub_offset(total, state[0])})
        n_plus.append(vals["a"])
        nm = tower_add(tower_mul(n_minus[-1], vals["a"]), 1)
        _capped(cap, k, [nm, *(vals[name] for name in FIELDS)])
        n_minus.append(nm)
        d = tower_add(nm, 1)
        state = vals["state"]
    fam = FamilyTuple(depth, *(tuple(seqs[n]) for n in FIELDS), tuple(f_records))
    return fam, BoundingSequences(tuple(n_minus), tuple(n_plus))


def build_tree(d0: int = 3, depth: int = 2, *, cap: int = FAMILY_HEIGHT_CAP):
    """The binary-tree family: per stage k, nodes of length k+1 take their
    d in lexicographic order -- the first from the previous stage's extremes,
    each successor as (k+1) times its predecessor's a."""
    if d0 < 3:
        raise ValueError("need d0 >= 3")
    if depth < 1:
        raise ValueError("depth must be positive")
    nodes: dict[str, TreeNode] = {}
    state = {"": (0, 0, 0)}
    n_plus = []
    for k in range(depth):
        next_state = {}
        labels = TreeFamily.stage(k)
        for i, t in enumerate(labels):
            if i:
                d = tower_mul(k + 1, nodes[labels[i - 1]].a)
            elif k:
                d = tower_add(tower_mul(nodes["0" * k].d, nodes["1" * k].a), 3)
            else:
                d = d0
            vals = _stage_values(k, d, state[t[:-1]], tree=True)
            nodes[t] = TreeNode(*(vals[name] for name in FIELDS))
            _capped(cap, k, [vals[name] for name in FIELDS])
            next_state[t] = vals["state"]
        n_plus.append(nodes["1" * (k + 1)].a)
        state = next_state
    # n_0^- is one below d0; for k >= 1 n_k^- is the all-zeros node's d,
    # a tower from stage 1 on, and S1 skips that node
    nm = [d0 - 1]
    for k in range(1, depth):
        nm.append(nodes["0" * (k + 1)].d)
    bounding = BoundingSequences(tuple(nm), tuple(n_plus))
    return TreeFamily(depth, nodes, bounding)


# ---------------------------------------------------------------------------
# certification


def _check(clause, k, cond, credit, entries, **extra):
    """cond is True/False/None; None passes by construction where credited."""
    if cond is None:
        status, method = ("pass", "construction") if credit else \
            ("unknown", "comparison")
    else:
        status, method = ("pass" if cond else "fail"), "comparison"
    entries.append({"clause": clause, "k": k, "status": status,
                    "method": method, **extra})


def _all(conds):
    """One verdict for several: a False wins, then a None (stops at the
    first False, so a lazy scan skips the comparisons after it)."""
    out = True
    for cond in conds:
        if cond is False:
            return False
        if cond is None:
            out = None
    return out


def verify_suitable(family, bounding: BoundingSequences, *,
                    cap: int = FAMILY_HEIGHT_CAP) -> list[dict]:
    """Per-level certificate for the growth clauses and the bounding
    conditions; entries are {"clause", "k", "status", "method", ...}."""
    tree = isinstance(family, TreeFamily)
    for k in range(family.depth):
        values = ([getattr(family.nodes[t], name) for t in family.stage(k)
                   for name in FIELDS]
                  if tree else [getattr(family, name)[k] for name in FIELDS])
        # a chain's n_{k+1}^- is built at stage k, its n_0^- is given
        _capped(cap, k, [*values, bounding.n_minus[k + (not tree)], bounding.n_plus[k]])
    level = _tree_level if tree else _single_level
    entries, con = [], family.constructed
    for k in range(family.depth):
        nm, np_ = bounding.n_minus[k], bounding.n_plus[k]
        level(family, k, nm, np_, con, entries)
        # bounding (i): n_k^- * n_k^+ < n_{k+1}^-; the tree carries no
        # lower bound past its last stage
        bi = True if tree and k == family.depth - 1 else _lt(
            tower_mul(nm, np_), bounding.n_minus[k + 1])
        _check("bounding_i", k, bi, con, entries)
        # bounding (ii): n_k^+ >= (n_k^-)^k
        bii = True if k == 0 else tower_le(tower_pow(nm, k), np_)
        _check("bounding_ii", k, bii, con, entries)
    return entries


def _node_clauses(k, d, h, g, b, c, a, bounds, s4_credit, con, entries, **extra):
    """S1-S4 at one node: a level of the single chain or a node of the
    tree.  bounds are the caller's verdicts on d and a against n_k^- and
    n_k^+."""
    # S1: the ordering chain pins all quantities inside [n^-, n^+];
    # c^{nabla h} sits between c and c^h <= a - 1 (h >= 2 throughout)
    chain = (d, h, g, b, c)
    s1 = _all([*bounds, _all(_lt(x, y) for x, y in zip(chain, chain[1:])),
               _lt(c, a)])
    _check("S1", k, s1, con, entries, **extra)
    # S2: h + 1 >= d^{(k+1)d} (the staircase norm certificate)
    s2 = tower_le(_staircase(k, d), tower_add(h, 1))
    _check("S2", k, s2, con, entries, **extra)
    # S3: b / g > d, i.e. b > g * d
    _check("S3", k, _lt(tower_mul(g, d), b), con, entries, **extra)
    # S4: a >= b^{nabla g}, power-bound form a > b^g
    s4 = _lt(tower_pow(b, g), a)
    _check("S4", k, s4, s4_credit, entries, **extra)


def _single_level(fam: FamilyTuple, k, nm, np_, con, entries):
    # the single tuple's a = c^h + 1 can genuinely fail S4, so no
    # construction credit there
    _node_clauses(k, *(getattr(fam, name)[k] for name in FIELDS),
                  [_lt(nm, fam.d[k]), tower_le(fam.a[k], np_)], False, con, entries)
    # S5: the cumulative profile never overtakes f on the k-th interval:
    # both offsets are sums of g + d below, so f leads by j - min(I_k)
    rec = fam.f_records[k]
    _check("S5", k, True if rec["offset"] is not None else None, con, entries)
    # S6: f(j^{k+2}) <= log2 c(k) for j in the k-th h-block; the largest
    # reachable argument is max(I_k), where f = log2 c(k) - 1
    c = fam.c[k]
    if isinstance(c, int) and isinstance(rec["offset"], int) \
            and isinstance(rec["end"], int):
        s6 = (rec["offset"] + rec["end"] - 1) <= c.bit_length() - 1
    else:
        s6 = None
    _check("S6", k, s6, con, entries)


def _tree_level(fam: TreeFamily, k, nm, np_, con, entries):
    labels = fam.stage(k)
    for t in labels:
        n = fam.nodes[t]
        # n_k^- and n_k^+ are read off the all-zeros node's d and the
        # all-ones node's a, so those two nodes skip that bound
        bounds = [True if t == "0" * (k + 1) else _lt(nm, n.d),
                  True if t == "1" * (k + 1) else _lt(n.a, np_)]
        _node_clauses(k, *(getattr(n, name) for name in FIELDS), bounds,
                      con, con, entries, node=t)
    # S7: for lex-adjacent and all earlier pairs, (k+1) a_t <= d_{t'}; the
    # builder makes each d (k+1) times its lex predecessor's a
    for i, t in enumerate(labels):
        for tp in labels[i + 1:]:
            r = tower_le(tower_mul(k + 1, fam.nodes[t].a), fam.nodes[tp].d)
            _check("S7", k, r, con and tp == labels[i + 1], entries, pair=[t, tp])


def toy_arenas(rng, horizon: int) -> list[int]:
    """The toy arena sizes: c(0) in {2, 3}, then each c(k) one to three
    above the product of c(i) + 1 below it."""
    c = [rng.randint(2, 3)]
    for _ in range(1, horizon):
        c.append(prod(ck + 1 for ck in c) + 1 + rng.randint(0, 2))
    return c


def _toy_windows(c, live) -> tuple[list, list, list]:
    """The toy windows over arenas c with live[k] possibilities below level
    k: a(k) = c(k) + 1, the exact <=1-cell count, e(k) = c(k) - 1, and
    d(k) = max(2, prod a(<k), 2 live[k] a(k))."""
    a = [ck + 1 for ck in c]
    d = [max(2, prod(a[:k]), 2 * m * a[k]) for k, m in enumerate(live)]
    return a, [ck - 1 for ck in c], d


def toy_family(seed: int, horizon: int = 3) -> dict:
    """Small exact parameter sequences for desk-scale runs.

    The emitted (c, h, d, a, e) satisfy the windowed possibility-count
    inequalities the refinement and localisation loops check on entry; the
    manifest lists which growth clauses hold on this window and which are
    waived (true staircase magnitudes are infeasible for exhaustive tests).
    """
    from random import Random
    if not 1 <= horizon <= 6:
        raise ValueError(f"toy horizon {horizon} is outside [1, 6]")
    c = toy_arenas(Random(seed), horizon)
    h = [1] * horizon
    a, e, d = _toy_windows(c, [1] * horizon)
    if any(v > 10 ** 4 for v in c + d + a):
        raise ValueError("no in-range assignment at this horizon")
    held = ["a = cell count of (c, h)", "e = ceil(c/h) - 1",
            "prod a(<k) <= d(k)", "prod cells(<k) <= e(k)",
            "d(k) >= 2 a(k)"]
    waived = ["norm staircase (S2)", "profile domination (S5)",
              "f-window bound (S6)", "tree ratio (S7)"]
    return {"seed": seed, "horizon": horizon,
            "c": c, "h": h, "d": d, "a": a, "e": e,
            "manifest": {"held": held, "waived": waived}}


def certificate_summary(entries) -> dict:
    counts = {"pass": 0, "fail": 0, "unknown": 0}
    for e in entries:
        counts[e["status"]] += 1
    return {"total": len(entries), **counts}
