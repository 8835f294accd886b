"""Batch front end: every operation on JSON input, plus seeded suites.

Exit codes: 0 success / all properties hold, 1 a property violation or
counterexample was found (the witness is in the report), 2 usage or input
error.  Reports are serialized with sorted keys, so identical invocations
are byte-identical.

Each subcommand is one function, registered by ``@_op(layer, *names)``
under its name (``_range_refine`` is ``range-refine``) and any second names:
it gets the module creaturelab.<layer>, and its other parameters are the
JSON fields it takes, a default marking an optional one.  The flags --mode,
--seed and --cap give the fields of those names and beat the JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from math import prod
from random import Random

_OPS = {}
_FLAGS = ("mode", "seed", "cap")


def _non_integer(literal):
    raise ValueError(f"{literal} in the JSON input is not an integer "
                     "(give a fraction as a string, such as \"1/2\")")


def _load(ns):
    """The JSON input, in which a number with a fraction or an exponent,
    NaN or Infinity is an input error."""
    hooks = {"parse_float": _non_integer, "parse_constant": _non_integer}
    if ns.input:
        with open(ns.input) as fh:
            return json.load(fh, **hooks)
    return json.load(sys.stdin, **hooks)


def _emit(ns, obj) -> None:
    text = json.dumps(obj, sort_keys=True) + "\n"
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _op(layer, *names):
    def register(fn):
        for name in (fn.__name__[1:].replace("_", "-"), *names):
            _OPS[name] = layer, fn
        return fn
    return register


def _params(fn):
    """fn's fields (parameters after the layer), the required ones, **fields."""
    code = fn.__code__
    params = code.co_varnames[1:code.co_argcount]
    return (params, params[:len(params) - len(fn.__defaults__ or ())],
            code.co_flags & 0x08)  # inspect.CO_VARKEYWORDS


def _call(fn, lib, fields):
    """fn(lib, **fields), once the fields are checked against fn's."""
    params, required, open_ = _params(fn)
    bad = [f"unknown field {k!r}" for k in fields if k not in params and not open_]
    bad += [f"missing field {k!r}" for k in required if k not in fields]
    if bad:
        raise ValueError(", ".join(bad))
    return fn(lib, **fields)


def _ints(**fields) -> None:
    """Raise naming the first field that is not an integer (a bool is not)."""
    for field, value in fields.items():
        if type(value) is not int:
            raise ValueError(f"the field {field} must be an integer, got {value!r}")


def _cap(cap, default) -> int:
    if cap is None:
        return default
    if type(cap) is not int or cap < 1:
        raise ValueError(f"--cap must be an integer >= 1, got {cap!r}")
    return cap


def _condition(obj):
    """A product from a JSON object with parts, else a condition."""
    if isinstance(obj, dict) and "parts" in obj:
        from .products import ProductCondition
        return ProductCondition.from_json(obj)
    from .conditions import TruncCondition
    return TruncCondition.from_json(obj)


def _product(obj):
    if not (isinstance(obj, dict) and "parts" in obj):
        raise ValueError("the field condition must be a product, with parts")
    return _condition(obj)


def _oracle(p, oracle):
    """The table oracle over p (a condition or a product) from its JSON."""
    from .conditions import NameOracle
    if not isinstance(oracle["table"], dict):
        raise ValueError("the oracle table must be a JSON object")
    return NameOracle.from_table(p, oracle["profile"], oracle["table"])


# ---------------------------------------------------------------------------
# subcommands: return (exit_code, payload)


@_op("creatures")
def _norm(lib, creature):
    return 0, {"norm": lib.norm(lib.Creature.from_json(creature))}


@_op("creatures")
def _lognorm(lib, creature, d, t):
    from fractions import Fraction
    return 0, {"cmp": lib.lognorm_cmp(lib.Creature.from_json(creature), d, Fraction(t))}


def _per_member(M, field, values) -> dict:
    """The field's list, one value per member of M in canonical order, keyed
    by member."""
    members = M.sorted_members()
    if type(values) is not list or len(values) != len(members):
        got = f"{len(values)} entries" if type(values) is list else repr(values)
        raise ValueError(f"the field {field} must list one value per member: "
                         f"{len(members)} members, got {got}")
    return dict(zip(members, values))


@_op("creatures")
def _bigness(lib, creature, colors, d):
    M = lib.Creature.from_json(creature)
    table = _per_member(M, "colors", colors)
    color, refined = lib.bigness_refine(M, table.__getitem__, d)
    return 0, {"color": color, "refined": refined.to_json()}


@_op("creatures")
def _range_refine(lib, creature, f, k, d, m):
    M = lib.Creature.from_json(creature)
    fvals = _per_member(M, "f", f)
    return 0, {"refined": lib.range_refine(M, fvals.__getitem__, k, d, m).to_json()}


@_op("conditions")
def _poss(lib, condition, k):
    _ints(k=k)
    p = _condition(condition)
    count = lib.poss_count(p, k)
    out = {"count": count}
    if count <= 10 ** 4:
        out["possibilities"] = _plain(lib.possibilities(p, k))
    return 0, out


@_op("conditions")
def _and(lib, condition, eta):
    return 0, {"condition": lib.and_restrict(_condition(condition), eta).to_json()}


@_op("conditions")
def _order(lib, q, p, mode="plain"):
    if isinstance(mode, dict):
        mode = ("at_n", mode["at_n"])
    ok = lib.order_check(_condition(q), _condition(p), mode)
    return (0 if ok else 1), {"extends": ok}


@_op("conditions", "product-fuse")
def _fuse(lib, chain):
    chain = [(_condition(c["condition"]), tuple(c["frozen"])) if "condition" in c
             else _condition(c) for c in chain]
    return 0, {"condition": lib.fuse(chain).to_json()}


@_op("conditions")
def _thin(lib, condition, gbound):
    p = lib.TruncCondition.from_json(condition)
    return 0, {"condition": lib.thin(p, gbound).to_json()}


@_op("conditions")
def _catch(lib, condition, x, n0=0):
    q, k = lib.catch_real(lib.TruncCondition.from_json(condition), x, n0)
    return 0, {"condition": q.to_json(), "level": k}


@_op("conditions")
def _check_reading(lib, condition, oracle, mode="timely"):
    p = _condition(condition)
    ok = lib.check_reading(p, _oracle(p, oracle), mode)
    return (0 if ok else 1), {"reads": ok}


@_op("conditions", "product-early-read")
def _early_read(lib, condition, oracle):
    p = _condition(condition)
    return 0, {"condition": lib.early_read(p, _oracle(p, oracle)).to_json()}


@_op("conditions")
def _localize(lib, condition, oracle, a, e, k0=0):
    p = lib.TruncCondition.from_json(condition)
    q, phi = lib.localize(p, _oracle(p, oracle), tuple(a), tuple(e), k0)
    return 0, {"condition": q.to_json(), "slalom": phi.to_json()}


@_op("products")
def _modest(lib, condition):
    return 0, {"condition": lib.modest_refine(_product(condition)).to_json()}


@_op("products")
def _schedule(lib, n):
    return 0, lib.schedule_plan(n)


@_op("products")
def _bound(lib, condition, oracle):
    p = _condition(condition)
    return 0, {"f": list(lib.bounding_extract(p, _oracle(p, oracle)))}


@_op("products")
def _product_catch(lib, condition, oracle, B, xi, n0=0):
    p = _product(condition)
    q, k = lib.product_catch(p, _oracle(p, oracle), set(B), xi, n0)
    return 0, {"condition": q.to_json(), "level": k}


@_op("products")
def _restricted_localize(lib, condition, oracle, C, a, e):
    p = _product(condition)
    q, name = lib.restricted_localize(p, _oracle(p, oracle), set(C), tuple(a), tuple(e))
    cells = [{lib.branch_key(q, key, name.coords): sorted(vals)
              for key, vals in cell.items()} for cell in name.cells]
    return 0, {"condition": q.to_json(),
               "phi": {"coords": name.coords, "widths": name.widths, "cells": cells}}


@_op("relational")
def _tukey(lib, R, Rp, F, G):
    res = lib.check_tukey(lib.FinRelSystem.from_json(R), lib.FinRelSystem.from_json(Rp),
                          lib.TukeyPair(tuple(F), tuple(G)))
    if res == "ok":
        return 0, {"result": "ok"}
    return 1, {"result": "counterexample", "x": res[1], "yp": res[2]}


@_op("relational")
def _dual(lib, R):
    return 0, {"dual": lib.dual(lib.FinRelSystem.from_json(R)).to_json()}


@_op("relational")
def _brute(lib, R):
    b, d = lib.brute_characteristics(lib.FinRelSystem.from_json(R))
    return 0, {"b": b, "d": d}


@_op("connections")
def _maps(lib, mode, **fields):
    f, g, tr = _call(_MAPS[mode], lib, fields)
    return (0 if tr == "ok" else 1), {
        "f": _plain(f), "g": _plain(g),
        "transfer": "ok" if tr == "ok" else {"violation": tr[1]}}


# one map pair per mode; its fields are the parameters after the layer module
_MAPS = {
    "l24": lambda lib, c, h, y, S: lib.l24_maps(c, h, y, lib.Slalom.from_json(S)),
    "l25": lambda lib, b, g, y, X: lib.l25_maps(b, g, tuple(y),
                                                lib.SigmaCover.from_json(X)),
    "l26": lambda lib, c, h, hprime, S, phi: lib.l26_maps(
        c, h, hprime, lib.Slalom.from_json(S),
        tuple(tuple(tuple(cell) for cell in lvl) for lvl in phi)),
    "l27": lambda lib, c, h, S, y: lib.l27_maps(c, h, S, y),
    "ed": lambda lib, c, h, x, y: lib.ed_maps(c, h, x, y)}


def _plain(x):
    """x as JSON: an object by its to_json, a set as a sorted list."""
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, (set, frozenset)):
        return sorted(map(_plain, x))
    if isinstance(x, (list, tuple)):
        return list(map(_plain, x))
    return x


@_op("connections")
def _measure(lib, slalom, window):
    m = lib.escape_measure(lib.Slalom.from_json(slalom), tuple(window))
    return 0, {"measure": f"{m.numerator}/{m.denominator}"}


@_op("connections")
def _partition(lib, lengths):
    return 0, {"blocks": [list(b) for b in lib.build_partition(lengths).blocks]}


@_op("connections")
def _gch(lib, c, h, horizon):
    return 0, {"profile": list(lib.gch_profile(c, h, horizon))}


@_op("connections")
def _fbg(lib, b, g, horizon):
    return 0, {"profile": list(lib.fbg_profile(b, g, horizon))}


@_op("family")
def _family(lib, mode="build", **fields):
    if mode in ("toy", "verify"):
        return _call(_toy if mode == "toy" else _verify, lib, fields)
    fam, bnd = _call({"build": _single, "tree": _tree}[mode], lib, fields)
    if mode == "tree":
        return 0, fam.to_json()
    return 0, {"family": fam.to_json(), "bounding": bnd.to_json()}


def _toy(lib, seed=0, horizon=3):
    _ints(seed=seed, horizon=horizon)
    return 0, lib.toy_family(seed, horizon)


def _tree(lib, d0=3, depth=2, cap=None):
    _ints(d0=d0, depth=depth)
    fam = lib.build_tree(d0, depth, cap=_cap(cap, lib.FAMILY_HEIGHT_CAP))
    return fam, fam.bounding


def _single(lib, n0_minus, d0, depth=2, cap=None):
    _ints(n0_minus=n0_minus, d0=d0, depth=depth)
    return lib.build_single(n0_minus, d0, depth,
                            cap=_cap(cap, lib.FAMILY_HEIGHT_CAP))


def _verify(lib, kind="tree", corrupt=None, **fields):
    fam, bnd = _call({"tree": _tree, "single": _single}[kind], lib, fields)
    if corrupt is not None:
        fam.constructed = False
        if isinstance(fam, lib.TreeFamily):
            fam.nodes[corrupt["node"]].__dict__[corrupt["field"]] = corrupt["value"]
        else:
            vals = list(fam.__dict__[corrupt["field"]])
            if not 0 <= corrupt["k"] < len(vals):
                raise ValueError(f"corrupt k = {corrupt['k']!r} is out of range")
            vals[corrupt["k"]] = corrupt["value"]
            setattr(fam, corrupt["field"], tuple(vals))
    cert = lib.verify_suitable(fam, bnd,
                               cap=_cap(fields.get("cap"), lib.FAMILY_HEIGHT_CAP))
    summary = lib.certificate_summary(cert)
    code = 0 if summary["fail"] == 0 and summary["unknown"] == 0 else 1
    return code, {"certificate": cert, "summary":
                  {k: summary[k] for k in ("total", "pass", "fail", "unknown")}}


# ---------------------------------------------------------------------------
# seeded suites: each draws one instance from (its layer, toys, rng) and
# returns None, or the failure's witness


@_op("toys")
def _suite(lib, mode, seed, cap=None):
    layer, check = _SUITES[mode]
    _ints(seed=seed)
    mod = importlib.import_module(f".{layer}", __package__)
    rng, n = Random(seed), _cap(cap, 50)
    failures = []
    for i in range(n):
        witness = check(mod, lib, rng)
        if witness is not None:
            failures.append({"instance": i, **witness})
    return (0 if not failures else 1), {"suite": mode, "instances": n,
                                        "failures": failures}


def _suite_norm(Cr, toys, rng):
    M = toys.random_creature(rng)
    covered = frozenset().union(*M.members)
    if (Cr.norm(M) >= 1) != (len(covered) == M.arena):
        return {"creature": M.to_json()}


def _suite_bigness(Cr, toys, rng):
    M = toys.random_creature(rng)
    d = rng.randint(2, 4)
    coloring = toys.random_coloring(rng, M, d)
    color, Ms = Cr.bigness_refine(M, coloring, d)
    if not (all(coloring(m) == color for m in Ms.members)
            and Cr.norm(M) + 1 <= d * (Cr.norm(Ms) + 1)):
        return {"creature": M.to_json(), "d": d}


def _checked(make, check):
    """A suite over instances from toys.<make>(rng): an exception, or a
    false result, of check(layer, *instance) is a failure."""
    def suite(lib, toys, rng):
        inst = getattr(toys, make)(rng)
        try:
            ok = check(lib, *inst)
        except Exception as ex:  # pragma: no cover - surfaced in the report
            return {"error": str(ex)}
        if not ok:
            return {"condition": inst[0].to_json()}
    return suite


def _reads_early(C, p, nu):
    return C.check_reading(C.early_read(p, nu), nu, "early")


def _localizes(C, p, nu, a, e):
    q, phi = C.localize(p, nu, a, e)
    vals = [nu.eval(b) for b in C.branches(q)]
    return all(len(phi.cells[k]) <= e[k] and all(v[k] in phi.cells[k] for v in vals)
               for k in range(p.horizon))


def _suite_tukey(R, toys, rng):
    Rs, Rp, pair = toys.tukey_instance(rng)
    if R.check_tukey(Rs, Rp, pair) != "ok":
        return {"R": Rs.to_json()}
    b, d = R.brute_characteristics(Rs)
    bp, dp = R.brute_characteristics(Rp)
    if not (R.leq_card(d, dp) and R.leq_card(bp, b)):
        return {"b": b, "d": d, "bp": bp, "dp": dp}


def _suite_measure(X, toys, rng):
    from fractions import Fraction
    N = rng.randint(1, 5)
    c = [rng.randint(1, 6) for _ in range(N)]
    h = [rng.randint(1, ck) for ck in c]
    cells = [rng.sample(range(c[k]), rng.randint(0, h[k])) for k in range(N)]
    S = X.Slalom.of(c, h, cells)
    direct = prod((Fraction(c[k] - len(cells[k]), c[k]) for k in range(N)),
                  start=Fraction(1))
    mid = rng.randint(0, N)
    split = X.escape_measure(S, (0, mid)) * X.escape_measure(S, (mid, N))
    if X.escape_measure(S, (0, N)) != direct or split != direct:
        return {"slalom": S.to_json()}


# library calls go through module attributes, so tracing wrappers see them;
# product_catch and restricted_localize return a true (condition, ...) pair
_SUITES = {
    "norm": ("creatures", _suite_norm),
    "bigness": ("creatures", _suite_bigness),
    "reading": ("conditions", _checked("reading_instance", _reads_early)),
    "localize": ("conditions", _checked("localize_instance", _localizes)),
    "tukey": ("relational", _suite_tukey),
    "product-catch": ("products", _checked(
        "product_catch_instance", lambda P, *inst: P.product_catch(*inst))),
    "restricted": ("products", _checked(
        "restricted_instance", lambda P, *inst: P.restricted_localize(*inst))),
    "measure": ("connections", _suite_measure)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="creaturelab",
        description="Run a single operation on JSON input, or a seeded suite.")
    ap.add_argument("subcommand", choices=sorted(_OPS))
    ap.add_argument("--input", help="JSON input path (default: stdin)")
    ap.add_argument("--output", help="JSON output path (default: stdout)")
    ap.add_argument("--seed", type=int, help="the field seed (randomized suites)")
    ap.add_argument("--mode", help="the field mode (maps/family/suite/...)")
    ap.add_argument("--cap", type=int,
                    help="the field cap: tower height cap, or suite instance count")
    try:
        ns = ap.parse_args(argv)
    except SystemExit:
        return 2
    layer, fn = _OPS[ns.subcommand]
    params, _, open_ = _params(fn)
    flags = {k: getattr(ns, k) for k in _FLAGS if getattr(ns, k) is not None}
    try:
        # a subcommand whose fields are all flags (suite) reads no stdin
        data = _load(ns) if ns.input or open_ or set(params) - set(_FLAGS) else {}
        if not isinstance(data, dict):
            raise ValueError("the JSON input must be an object")
        lib = importlib.import_module(f".{layer}", __package__)
        code, payload = _call(fn, lib, {**data, **flags})
    except (OSError, KeyError, TypeError, ValueError, ArithmeticError) as ex:
        sys.stderr.write(f"error: {type(ex).__name__}: {ex}\n")
        return 2
    _emit(ns, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
