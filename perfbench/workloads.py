"""The operation pools of the workloads.

``build(workload, data)`` turns the generated plain data into one round of
operations.  Library objects are made fresh for every round, through public
constructors only, and operations call the library through its module
attributes (``Cr.norm``, not a bound copy), so the tracer's run-time wrappers
see every call.  Within a round the same creature object is shared by
several operations, as a caller refining one creature would share it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from creaturelab import cli as CLI
from creaturelab import conditions as C
from creaturelab import connections as X
from creaturelab import creatures as Cr
from creaturelab import family as F
from creaturelab import numeric as N
from creaturelab import products as P
from creaturelab import relational as R

import checks as K
import gen


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# ---------------------------------------------------------------------------
# exhaustive


def _exhaustive(data) -> list[Op]:
    ops, objs, norms = [], [], {}

    def norm_of(i):
        if i not in norms:
            spec = data["creatures"][i]
            norms[i] = K.cover_norm(spec["arena"], spec["members"])
        return norms[i]

    for i, spec in enumerate(data["creatures"]):
        arena, cap, members = spec["arena"], spec["cap"], spec["members"]
        M = Cr.Creature.of(arena, cap, members)
        objs.append(M)
        known = {"full": cap, "near": cap - 1}.get(spec["shape"])

        def norm_ok(out, i=i, known=known):
            return out == norm_of(i) and known in (None, out)
        ops.append(Op("norm", lambda M=M: Cr.norm(M), norm_ok))

        ln = spec["lognorm"]
        ops.append(Op(
            "lognorm_cmp",
            lambda M=M, ln=ln: Cr.lognorm_cmp(M, ln["d"], Fraction(ln["t"])),
            lambda out, i=i, ln=ln:
                out == K.lognorm_answer(norm_of(i), ln["d"], ln["t"])))

        bg = spec["bigness"]
        color_of = {frozenset(m): c for m, c in zip(members, bg["colors"])}
        ops.append(Op(
            "bigness_refine",
            lambda M=M, f=color_of, d=bg["d"]: Cr.bigness_refine(M, f.__getitem__, d),
            lambda out, a=arena, ms=members, bg=bg:
                K.refine_ok(a, ms, bg["colors"], bg["d"], out[1].members, out[0])))

        rr = spec["range"]
        f_of = {frozenset(m): v for m, v in zip(members, rr["f"])}
        blocks = [v // rr["k"] for v in rr["f"]]
        ops.append(Op(
            "range_refine",
            lambda M=M, f=f_of, rr=rr:
                Cr.range_refine(M, f.__getitem__, rr["k"], rr["d"], rr["m"]),
            lambda out, a=arena, ms=members, bl=blocks, d=rr["d"]:
                K.refine_ok(a, ms, bl, d, out.members)))

    for spec in data["conditions"]:
        cells = tuple(objs[i] for i in spec["cells"])
        c = [cell.arena for cell in cells]
        h = [cell.cap for cell in cells]
        p = C.TruncCondition(C.ParamTriple(tuple(c), tuple(h), tuple(spec["d"])),
                             cells)
        p_json = gen.condition(c, h, spec["d"],
                               [data["creatures"][i]["members"]
                                for i in spec["cells"]])

        def validate_ok(rep, spec=spec, p_json=p_json):
            splits = K.split_levels(p_json)
            rank = 0
            for n, lvl in enumerate(splits):
                d = spec["d"][lvl]
                if norm_of(spec["cells"][lvl]) + 1 < d ** (d * (n + 1)):
                    break
                rank = n + 1
            return rep.valid and rep.split_levels == splits \
                and rep.star_rank == rank
        ops.append(Op("validate", lambda p=p: C.validate(p), validate_ok))
        ops.append(Op(
            "thin", lambda p=p, g=spec["gbound"]: C.thin(p, g),
            lambda q, p_json=p_json, g=spec["gbound"]:
                K.thin_ok(q.to_json(), p_json, g)))

    for case in data["tukey"]:
        Rs = R.FinRelSystem.of(case["R"])
        Rp = R.FinRelSystem.of(case["Rp"])
        pair = R.TukeyPair(tuple(case["F"]), tuple(case["G"]))
        ops.append(Op("brute_characteristics",
                      lambda Rs=Rs: R.brute_characteristics(Rs),
                      lambda out, rel=case["R"]: out == K.brute_answer(rel)))
        ops.append(Op("check_tukey",
                      lambda Rs=Rs, Rp=Rp, pair=pair: R.check_tukey(Rs, Rp, pair),
                      lambda out: out == "ok"))

    for case in data["maps"]:
        ops.extend(_map_ops(case))
    return ops


def _map_ops(case) -> list[Op]:
    ok = lambda out: out[2] == "ok"
    a, b, c, d, e = (case[k] for k in ("l24", "l25", "l26", "l27", "ed"))
    widths = [ck.bit_length() - 1 for ck in a["c"]]
    f24 = tuple(int(a["y"][:w], 2) for w in widths)
    S24 = X.Slalom.of(a["c"], a["h"], a["S"])
    S26 = X.Slalom.of(c["c"], c["h"], c["S"])
    phi = tuple(tuple(tuple(cell) for cell in lvl) for lvl in c["phi"])
    g_ed = tuple(y // h for y, h in zip(e["y"], e["h"]))
    return [
        Op("l24_maps", lambda: X.l24_maps(a["c"], a["h"], a["y"], S24),
           lambda out: ok(out) and out[0] == f24),
        Op("l25_maps", lambda: X.l25_maps(b["b"], b["g"], tuple(b["y"]),
                                          X.SigmaCover(tuple(b["X"]))), ok),
        Op("l26_maps", lambda: X.l26_maps(c["c"], c["h"], c["hprime"], S26,
                                          phi), ok),
        Op("l27_maps", lambda: X.l27_maps(d["c"], d["h"], d["S"], d["y"]), ok),
        Op("ed_maps", lambda: X.ed_maps(e["c"], e["h"], e["x"], e["y"]),
           lambda out: ok(out) and out[1] == g_ed),
    ]


# ---------------------------------------------------------------------------
# reading


def _tables(inst):
    return {k: tuple(v) for k, v in inst["table"].items()}


def _reading(data) -> list[Op]:
    ops = []
    for inst in data["single_timely"]:
        cond, table, prof = inst["condition"], _tables(inst), inst["profile"]
        p = C.TruncCondition.from_json(cond)
        nu = lambda p=p, t=table, pr=prof: C.NameOracle.from_table(p, pr, t)
        ops.append(Op("check_reading",
                      lambda p=p, nu=nu: C.check_reading(p, nu(), "timely"),
                      lambda out: out is True))
        ops.append(Op("early_read", lambda p=p, nu=nu: C.early_read(p, nu()),
                      lambda q, cond=cond, nu=nu:
                          K.cells_within(q.to_json(), cond)
                          and C.check_reading(q, nu(), "early") is True))
        ops.append(Op("thin", lambda p=p, g=inst["gbound"]: C.thin(p, g),
                      lambda q, cond=cond, g=inst["gbound"]:
                          K.thin_ok(q.to_json(), cond, g)))

    for inst in data["single_early"]:
        cond, table, prof = inst["condition"], _tables(inst), inst["profile"]
        a, e = tuple(inst["a"]), tuple(inst["e"])
        p = C.TruncCondition.from_json(cond)
        nu = lambda p=p, t=table, pr=prof: C.NameOracle.from_table(p, pr, t)
        ops.append(Op("check_reading",
                      lambda p=p, nu=nu: C.check_reading(p, nu(), "early"),
                      lambda out: out is True))

        def localize_ok(out, cond=cond, table=table, e=e):
            q, phi = out
            qj = q.to_json()
            return K.cells_within(qj, cond) and phi.h == e \
                and all(len(cell) <= w for cell, w in zip(phi.cells, e)) \
                and all(v[k] in phi.cells[k]
                        for _, v in K.branch_values(qj, cond, table)
                        for k in range(len(e)))
        ops.append(Op("localize",
                      lambda p=p, nu=nu, a=a, e=e: C.localize(p, nu(), a, e),
                      localize_ok))

        links = _chain_links(cond, inst["chain"])
        chain = [C.TruncCondition.from_json(link) for link in links]
        ops.append(Op("fuse", lambda chain=chain: C.fuse(chain),
                      lambda q, links=links: K.fuse_ok(q.to_json(), links)))

    for inst in data["product_timely"]:
        cond, table, prof = inst["condition"], _tables(inst), inst["profile"]
        p = P.ProductCondition.from_json(cond)
        nu = lambda p=p, t=table, pr=prof: P.ProductNameOracle.from_table(p, pr, t)
        ops.append(Op("product_check_reading",
                      lambda p=p, nu=nu: P.product_check_reading(p, nu(), "timely"),
                      lambda out: out is True))
        ops.append(Op("product_early_read",
                      lambda p=p, nu=nu: P.product_early_read(p, nu()),
                      lambda q, cond=cond, nu=nu:
                          K.products_within(q.to_json(), cond)
                          and P.product_check_reading(q, nu(), "early") is True))
        ops.append(_bound_op(p, nu, table, len(prof)))

    for inst in data["product_restricted"]:
        cond, table, prof = inst["condition"], _tables(inst), inst["profile"]
        a, e, Cs = tuple(inst["a"]), tuple(inst["e"]), tuple(inst["C"])
        p = P.ProductCondition.from_json(cond)
        nu = lambda p=p, t=table, pr=prof: P.ProductNameOracle.from_table(p, pr, t)
        ops.append(Op("product_check_reading",
                      lambda p=p, nu=nu: P.product_check_reading(p, nu(), "early"),
                      lambda out: out is True))

        def restricted_ok(out, cond=cond, table=table, e=e, Cs=Cs):
            q, name = out
            qj = q.to_json()
            if not K.products_within(qj, cond):
                return False
            for (bx, by), v in K.product_branch_values(qj, cond, table):
                br = {"x": tuple(map(frozenset, bx)), "y": tuple(map(frozenset, by))}
                key = tuple(br[xi] for xi in sorted(Cs))
                for k, w in enumerate(e):
                    cell = name.cells[k][key]
                    if v[k] not in cell or len(cell) > w:
                        return False
            return True
        ops.append(Op("restricted_localize",
                      lambda p=p, nu=nu, Cs=Cs, a=a, e=e:
                          P.restricted_localize(p, nu(), set(Cs), a, e),
                      restricted_ok))
        ops.append(_bound_op(p, nu, table, len(prof)))

    for inst in data["product_catch"]:
        cond, table, prof = inst["condition"], _tables(inst), inst["profile"]
        p = P.ProductCondition.from_json(cond)
        nu = lambda p=p, t=table, pr=prof: P.ProductNameOracle.from_table(p, pr, t)
        B, xi = inst["B"], inst["xi"]

        def catch_ok(out, cond=cond, table=table, B=B, xi=xi):
            q, k = out
            qj = q.to_json()
            parts = qj["parts"]
            if not K.products_within(qj, cond) or len(parts[xi]["cells"][k]) != 1:
                return False
            if any(qc != pc[:1] for beta in B for qc, pc in
                   zip(parts[beta]["cells"], cond["parts"][beta]["cells"])):
                return False
            pos = "xy".index(xi)
            return all(v[k] in br[pos][k]
                       for br, v in K.product_branch_values(qj, cond, table))
        ops.append(Op("product_catch",
                      lambda p=p, nu=nu, B=B, xi=xi:
                          P.product_catch(p, nu(), set(B), xi),
                      catch_ok))
    return ops


def _bound_op(p, nu, table, horizon) -> Op:
    return Op("bounding_extract", lambda: P.bounding_extract(p, nu()),
              lambda out: out == K.name_max(table, horizon))


def _chain_links(cond, plan) -> list[dict]:
    links = [cond]
    for step in plan:
        link = json.loads(json.dumps(links[-1]))
        if step is not None:
            k, drop = step
            del link["cells"][k][drop]
        links.append(link)
    return links


# ---------------------------------------------------------------------------
# family


def _family(data) -> list[Op]:
    ops = []
    for n0, d0 in data["singles"]:
        slot = {}
        L = K.level0_single(n0, d0)

        def build(n0=n0, d0=d0, slot=slot):
            slot["v"] = F.build_single(n0, d0)
            return slot["v"]

        def build_ok(out, n0=n0, d0=d0, L=L):
            fam, bnd = out
            return (fam.d[0] == d0 and fam.h[0] == L["h"] and fam.g[0] == L["g"]
                    and _pow2_ok(fam.b[0], L["log_b"])
                    and _pow2_ok(fam.c[0], L["log_c"])
                    and _pow2_ok(fam.a[0], L["log_ch"], plus_one=True)
                    and bnd.n_minus[0] == n0 and bnd.n_plus[0] == fam.a[0])

        def verify_ok(entries, L=L):
            fails = [(e["clause"], e["k"]) for e in entries
                     if e["status"] == "fail"]
            expect = [("S4", 0)] if L["log_ch"] < L["log_bg"] else []
            return len(entries) == 16 and fails == expect
        ops.append(Op("build_single", build, build_ok))
        ops.append(Op("verify_single",
                      lambda slot=slot: F.verify_suitable(*slot["v"]),
                      verify_ok))

    for d0, depth, cap in data["trees"]:
        slot = {}
        L = K.level0_single(n0=d0 - 1, d0=d0)

        def build(d0=d0, depth=depth, cap=cap, slot=slot):
            slot["v"] = F.build_tree(d0, depth, cap=cap)
            return slot["v"]

        def tree_ok(fam, d0=d0, depth=depth, L=L):
            node = fam.nodes["0"]
            return (len(fam.nodes) == 2 ** (depth + 1) - 2 and node.d == d0
                    and _pow2_ok(node.a, max(L["log_ch"], L["log_bg"]),
                                 plus_one=True))

        def cert_ok(entries, depth=depth):
            s = F.certificate_summary(entries)
            return s["fail"] == 0 and s["unknown"] == 0 \
                and s["total"] == {2: 35, 3: 97}[depth]
        ops.append(Op("build_tree", build, tree_ok))
        ops.append(Op("verify_tree",
                      lambda slot=slot, cap=cap:
                          F.verify_suitable(slot["v"], slot["v"].bounding, cap=cap),
                      cert_ok))

    for expr in data["exprs"]:
        ops.append(Op("tower_eval", lambda expr=expr: N.tower_eval(expr),
                      lambda out, expr=expr:
                          K.encloses_log2(out, K.expr_log2(expr))))
    return ops


def _pow2_ok(v, log2v: int, plus_one: bool = False) -> bool:
    """v is 2**log2v (+1), exactly when v is an int, else as an enclosure."""
    if isinstance(v, int):
        return v == (1 << log2v) + (1 if plus_one else 0)
    return K.encloses_log2(v, float(log2v))


# ---------------------------------------------------------------------------
# cli


def write_cli_inputs(calls, workdir) -> list[list[str]]:
    """Write each call's JSON input once; returns the full argv lists."""
    os.makedirs(workdir, exist_ok=True)
    argvs = []
    for i, call in enumerate(calls):
        argv = list(call["argv"])
        if call["input"] is not None:
            path = os.path.join(workdir, f"in{i}.json")
            with open(path, "w") as fh:
                json.dump(call["input"], fh)
            argv += ["--input", path]
        argvs.append(argv)
    return argvs


def cli_ops(calls, argvs, root, workdir, inproc: bool) -> list[Op]:
    """One op per invocation: a fresh ``python -m creaturelab.cli`` process,
    or, with ``inproc``, the same argv through ``cli.main``.  Either returns
    (exit code, output bytes)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out_path = os.path.join(workdir, "out.json")
    ops = []
    for call, argv in zip(calls, argvs):
        if inproc:
            def run(argv=argv):
                code = CLI.main(argv + ["--output", out_path])
                with open(out_path, "rb") as fh:
                    return code, fh.read()
        else:
            def run(argv=argv):
                res = subprocess.run(
                    [sys.executable, "-m", "creaturelab.cli", *argv],
                    stdin=subprocess.DEVNULL, capture_output=True, env=env,
                    cwd=root, timeout=60)
                return res.returncode, res.stdout
        ops.append(Op(call["argv"][0], run,
                      lambda out, call=call: _cli_ok(call, *out)))
    return ops


def _cli_ok(call, code, body) -> bool:
    if code != call["expect"]:
        return False
    rep = json.loads(body)
    sub, inp = call["argv"][0], call["input"]
    if sub == "norm":
        M = inp["creature"]
        return rep == {"norm": K.cover_norm(M["arena"], M["members"])}
    if sub == "bigness":
        M = inp["creature"]
        refined = {frozenset(m) for m in rep["refined"]["members"]}
        return K.refine_ok(M["arena"], M["members"], inp["colors"], inp["d"],
                           refined, rep["color"])
    if sub == "tukey":
        want = "ok" if call["expect"] == 0 else "counterexample"
        return rep["result"] == want
    if sub == "brute":
        b, d = K.brute_answer(inp["R"]["rel"])
        return rep == {"b": b, "d": d}
    if sub == "check-reading":
        return rep == {"reads": True}
    if sub == "schedule":
        return rep["sizes"] == [(j + 1) ** 2 for j in range(inp["n"] + 1)]
    if sub == "maps":
        g = [y // h for y, h in zip(inp["y"], inp["h"])]
        return rep["transfer"] == "ok" and rep["g"] == g
    if sub == "suite":
        return rep["failures"] == [] and rep["instances"] == int(call["argv"][-1])
    if sub == "family":
        s = rep["summary"]
        return s["fail"] == 0 and s["unknown"] == 0 and s["pass"] == s["total"] == 35
    return False


def _library(data) -> list[Op]:
    """The three in-process parts; each op's kind names its part
    (``exhaustive.norm``) so a traced run can split layer shares by part."""
    ops = []
    for part, build in (("exhaustive", _exhaustive), ("family", _family),
                        ("reading", _reading)):
        for op in build(data[part]):
            op.kind = f"{part}.{op.kind}"
            ops.append(op)
    return ops


BUILDERS = {"library": _library}
