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

from .numeric import (Cmp, tower_add, tower_cmp, tower_exp2, tower_le,
                      tower_mul, tower_pow, tower_sub, tower_to_json, _bits)

FAMILY_HEIGHT_CAP = 24


def _lt(x, y, cap):
    c = tower_cmp(x, y, cap=cap)
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
    """One growth tuple: per-level a, d, b, g, c, h, the f-intervals, and
    the I/J block minima (exact ints at level 0, towers beyond)."""

    depth: int
    a: tuple
    d: tuple
    b: tuple
    g: tuple
    c: tuple
    h: tuple
    f_records: tuple      # per level: {"k", "start", "end", "offset"}
    i_min: tuple          # len depth + 1
    j_min: tuple          # len depth + 1
    constructed: bool = True

    def f_at(self, k: int, j):
        """f(j) for j in the k-th interval; j - start must be meaningful."""
        rec = self.f_records[k]
        return rec["offset"] + j if isinstance(j, int) \
            and isinstance(rec["offset"], int) else None

    def to_json(self) -> dict:
        return {"depth": self.depth,
                "levels": [{name: _value_json(getattr(self, name)[k])
                            for name in ("a", "d", "b", "g", "c", "h")}
                           for k in range(self.depth)]}


@dataclass
class BoundingSequences:
    n_minus: tuple        # len depth + 1 (includes the next lower bound)
    n_plus: tuple         # len depth

    def to_json(self) -> dict:
        return {"n_minus": [_value_json(v) for v in self.n_minus],
                "n_plus": [_value_json(v) for v in self.n_plus]}


@dataclass
class TreeNode:
    label: str            # binary string, length k + 1
    k: int
    d: object
    h: object
    g: object
    b: object
    c: object
    a: object
    d_from: str           # "seed" | "stage" | label of the lex predecessor


@dataclass
class TreeFamily:
    depth: int
    nodes: dict           # label -> TreeNode
    bounding: BoundingSequences
    constructed: bool = True

    def stage(self, k: int) -> list[str]:
        return ["".join(bits) for bits in
                itertools.product("01", repeat=k + 1)]

    def to_json(self) -> dict:
        return {"depth": self.depth,
                "nodes": {t: {name: _value_json(getattr(n, name))
                              for name in ("d", "h", "g", "b", "c", "a")}
                          for t, n in sorted(self.nodes.items())},
                "bounding": self.bounding.to_json()}


# ---------------------------------------------------------------------------
# construction


def _staircase(k: int, d, cap):
    """h = d^{(k+1)d}."""
    return tower_pow(d, tower_mul(k + 1, d, cap=cap), cap=cap)


def _stage_values(k: int, d, state, cap, tree: bool):
    """One level of the recursion from d(k) and the running block state
    (min I_k, min J_k, sum of g+d below k)."""
    min_i, min_j, total = state
    h = _staircase(k, d, cap)
    min_j_next = tower_add(min_j, h, cap=cap)
    g = tower_sub(tower_pow(min_j_next, k + 2, cap=cap), min_i, cap=cap)
    gd = tower_add(g, d, cap=cap)
    total_next = tower_add(total, gd, cap=cap)
    b = tower_exp2(gd, cap=cap)
    c = tower_exp2(tower_add(g, total_next, cap=cap), cap=cap)
    ch = tower_pow(c, h, cap=cap)
    if tree:
        # the larger of the two power bounds, so a also tops b^g
        bg = tower_pow(b, g, cap=cap)
        base = bg if tower_le(ch, bg, cap=cap) in (True, None) else ch
    else:
        base = ch
    # on a tower, + 1 widens the upper bound by the slack that covers doubling
    a = tower_add(base, 1, cap=cap)
    return {"h": h, "g": g, "b": b, "c": c, "a": a,
            "state": (tower_add(min_i, g, cap=cap), min_j_next, total_next),
            "offset": _sub_offset(total_next, min_i, cap)}


def _sub_offset(total, min_i, cap):
    try:
        return tower_sub(total, min_i, cap=cap)
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
    seqs = {name: [] for name in "adbgch"}
    f_records = []
    i_min, j_min = [0], [0]
    n_minus, n_plus = [n0_minus], []
    d = d0
    state = (0, 0, 0)
    for k in range(depth):
        vals = _stage_values(k, d, state, cap, tree=False)
        for name in "bgch":
            seqs[name].append(vals[name])
        seqs["d"].append(d)
        seqs["a"].append(vals["a"])
        f_records.append({"k": k, "start": state[0],
                          "end": vals["state"][0], "offset": vals["offset"]})
        n_plus.append(vals["a"])
        nm = tower_add(tower_mul(n_minus[-1], vals["a"], cap=cap), 1, cap=cap)
        n_minus.append(nm)
        d = tower_add(nm, 1, cap=cap)
        state = vals["state"]
        i_min.append(state[0])
        j_min.append(state[1])
    fam = FamilyTuple(depth, *(tuple(seqs[n]) for n in "adbgch"),
                      tuple(f_records), tuple(i_min), tuple(j_min))
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
        labels = ["".join(bs) for bs in itertools.product("01", repeat=k + 1)]
        prev_label = None
        next_state = {}
        for t in labels:
            if prev_label is None:
                if k == 0:
                    d, d_from = d0, "seed"
                else:
                    lo = nodes["0" * k]
                    hi = nodes["1" * k]
                    d = tower_add(tower_mul(lo.d, hi.a, cap=cap), 3, cap=cap)
                    d_from = "stage"
            else:
                d = tower_mul(k + 1, nodes[prev_label].a, cap=cap)
                d_from = prev_label
            vals = _stage_values(k, d, state[t[:-1]], cap, tree=True)
            nodes[t] = TreeNode(t, k, d, vals["h"], vals["g"], vals["b"],
                                vals["c"], vals["a"], d_from)
            next_state[t] = vals["state"]
            prev_label = t
        n_plus.append(nodes["1" * (k + 1)].a)
        state = next_state
    # n_k^- is one below the all-zeros node's d at stage k; level 0 exact
    nm = [d0 - 1]
    for k in range(1, depth):
        dk = nodes["0" * (k + 1)].d
        nm.append(dk - 1 if isinstance(dk, int) else dk)
    bounding = BoundingSequences(tuple(nm), tuple(n_plus))
    return TreeFamily(depth, nodes, bounding)


# ---------------------------------------------------------------------------
# certification


def _entry(clause, k, status, method, **extra):
    out = {"clause": clause, "k": k, "status": status, "method": method}
    out.update(extra)
    return out


def _check(clause, k, cond, constructed, entries, **extra):
    """cond is True/False/None; None falls back to the construction tag."""
    if cond is True:
        entries.append(_entry(clause, k, "pass", "comparison", **extra))
    elif cond is False:
        entries.append(_entry(clause, k, "fail", "comparison", **extra))
    elif constructed:
        entries.append(_entry(clause, k, "pass", "construction", **extra))
    else:
        entries.append(_entry(clause, k, "unknown", "comparison", **extra))


def _chain_check(values, cap):
    """Strictly-increasing scan; returns True/False/None (first failure or
    undecidable link wins)."""
    out = True
    for x, y in zip(values, values[1:]):
        r = _lt(x, y, cap)
        if r is False:
            return False
        if r is None:
            out = None
    return out


def verify_suitable(family, bounding: BoundingSequences, *,
                    cap: int = FAMILY_HEIGHT_CAP) -> list[dict]:
    """Per-level certificate for the growth clauses and the bounding
    conditions; entries are {"clause", "k", "status", "method", ...}."""
    if isinstance(family, TreeFamily):
        return _verify_tree(family, bounding, cap)
    return _verify_single(family, bounding, cap)


def _verify_single(fam: FamilyTuple, bounding, cap):
    entries = []
    con = fam.constructed
    for k in range(fam.depth):
        a, d, b, g, c, h = (fam.a[k], fam.d[k], fam.b[k], fam.g[k],
                            fam.c[k], fam.h[k])
        nm, np_ = bounding.n_minus[k], bounding.n_plus[k]
        # S1: the ordering chain pins all quantities inside [n^-, n^+];
        # c^{nabla h} sits between c and c^h <= a - 1 (h >= 2 throughout)
        chain = _chain_check([nm, d, h, g, b, c], cap)
        top = tower_le(a, np_, cap=cap)
        ca = _lt(c, a, cap)
        s1 = False if False in (chain, top, ca) else \
            (None if None in (chain, top, ca) else True)
        _check("S1", k, s1, con, entries)
        # S2: h + 1 >= d^{(k+1)d} (the staircase norm certificate)
        s2 = tower_le(_staircase(k, d, cap), tower_add(h, 1, cap=cap), cap=cap)
        _check("S2", k, s2, con, entries)
        # S3: b / g > d, i.e. b > g * d
        _check("S3", k, _lt(tower_mul(g, d, cap=cap), b, cap), con, entries)
        # S4: a >= b^{nabla g}, power-bound form a > b^g; the single tuple's
        # a = c^h + 1 can genuinely fail this, so no construction credit
        s4 = _lt(tower_pow(b, g, cap=cap), a, cap)
        _check("S4", k, s4, False, entries)
        # S5: the cumulative profile never overtakes f on the k-th interval:
        # both offsets are sums of g + d below, so f leads by j - min(I_k)
        rec = fam.f_records[k]
        s5 = True if rec["offset"] is not None else None
        _check("S5", k, s5, con, entries)
        # S6: f(j^{k+2}) <= log2 c(k) for j in the k-th h-block; the largest
        # reachable argument is max(I_k), where f = log2 c(k) - 1
        if isinstance(c, int) and isinstance(rec["offset"], int) \
                and isinstance(rec["end"], int):
            s6 = (rec["offset"] + rec["end"] - 1) <= c.bit_length() - 1
        else:
            s6 = None
        _check("S6", k, s6, con, entries)
        # bounding (i): n_k^- * n_k^+ < n_{k+1}^-
        bi = _lt(tower_mul(nm, np_, cap=cap), bounding.n_minus[k + 1], cap)
        _check("bounding_i", k, bi, con, entries)
        # bounding (ii): n_k^+ >= (n_k^-)^k
        bii = True if k == 0 else tower_le(tower_pow(nm, k, cap=cap), np_,
                                           cap=cap)
        _check("bounding_ii", k, bii, con, entries)
    return entries


def _verify_tree(fam: TreeFamily, bounding, cap):
    entries = []
    con = fam.constructed
    for k in range(fam.depth):
        labels = fam.stage(k)
        nm, np_ = bounding.n_minus[k], bounding.n_plus[k]
        for t in labels:
            n = fam.nodes[t]
            chain = _chain_check([n.d, n.h, n.g, n.b, n.c], cap)
            ca = _lt(n.c, n.a, cap)
            bottom = True if t == "0" * (k + 1) else _lt(nm, n.d, cap)
            top = True if t == "1" * (k + 1) else _lt(n.a, np_, cap)
            vals = [chain, ca, bottom, top]
            s1 = False if False in vals else (None if None in vals else True)
            _check("S1", k, s1, con, entries, node=t)
            s2 = tower_le(_staircase(k, n.d, cap), tower_add(n.h, 1, cap=cap),
                          cap=cap)
            _check("S2", k, s2, con, entries, node=t)
            _check("S3", k, _lt(tower_mul(n.g, n.d, cap=cap), n.b, cap),
                   con, entries, node=t)
            s4 = _lt(tower_pow(n.b, n.g, cap=cap), n.a, cap)
            _check("S4", k, s4, con, entries, node=t)
        # S7: for lex-adjacent and all earlier pairs, (k+1) a_t <= d_{t'}
        for i, t in enumerate(labels):
            for tp in labels[i + 1:]:
                lhs = tower_mul(k + 1, fam.nodes[t].a, cap=cap)
                r = tower_le(lhs, fam.nodes[tp].d, cap=cap)
                adjacent = fam.nodes[tp].d_from == t
                _check("S7", k, r, con and adjacent, entries, pair=[t, tp])
        bi = True if k + 1 > fam.depth - 1 else _lt(
            tower_mul(nm, np_, cap=cap), bounding.n_minus[k + 1], cap)
        _check("bounding_i", k, bi, con, entries)
        bii = True if k == 0 else tower_le(tower_pow(nm, k, cap=cap), np_,
                                           cap=cap)
        _check("bounding_ii", k, bii, con, entries)
    return entries


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
    rng = Random(seed)
    c = [rng.randint(2, 3)]
    for k in range(1, horizon):
        prev = 1
        for i in range(k):
            prev *= c[i] + 1
        c.append(prev + 1 + rng.randint(0, 2))
    h = [1] * horizon
    a = [ck + 1 for ck in c]          # the exact <=1-cell count
    e = [ck - 1 for ck in c]
    d = []
    for k in range(horizon):
        prod_a = 1
        for i in range(k):
            prod_a *= a[i]
        d.append(max(2, prod_a, 2 * a[k]))
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
    return {"total": len(entries), **counts,
            "failing": [e for e in entries if e["status"] != "pass"]}
