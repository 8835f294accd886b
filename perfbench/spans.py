"""Run-time spans around calls into the library's layers.

``Tracer.install`` replaces every public module-level function of the eight
layer modules with a recording wrapper -- in the defining module and in
every other ``creaturelab`` module (and the package) that bound a copy with
``from .x import y`` -- plus ``NameOracle.eval`` and
``ProductNameOracle.eval``.  ``uninstall`` puts the originals back.  Nothing
under ``src/`` is edited; with the tracer off the library runs untouched.

A span is (id, parent, name, start, end, error, n1, n2): ``n1``/``n2`` carry
the counts that some per-layer metrics need (branches returned, oracle cache
hits, undecided comparisons, certificate entries), measured at the call.
Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import csv
import inspect
import statistics
import sys
import time

LAYERS = ("numeric", "creatures", "relational", "connections", "conditions",
          "products", "family", "cli")
ORACLES = (("conditions", "NameOracle"), ("products", "ProductNameOracle"))


def _oracle_hit(args):
    # reads the oracle's private cache; if it moves, hits read as 0
    return args[1] in getattr(args[0], "_cache", ())


def _hooks() -> dict:
    """name -> (before(args), after(args, out, before_value) -> (n1, n2))."""
    seen, objects = set(), {}

    def norm_before(args):
        # (equal creature seen before, this very object seen before)
        M = args[0]
        repeat = (M in seen, objects.get(id(M)) is M)
        seen.add(M)
        objects[id(M)] = M   # held, so ids are not reused in the round
        return repeat

    count = lambda args, out, pre: (len(out), 0)
    flag = lambda args, out, pre: (int(pre), 0)
    return {
        "creatures.norm": (norm_before, lambda a, out, pre: tuple(map(int, pre))),
        "conditions.possibilities": (None, count),
        "products.product_possibilities": (None, count),
        "conditions.NameOracle.eval": (_oracle_hit, flag),
        "products.ProductNameOracle.eval": (_oracle_hit, flag),
        "numeric.tower_cmp": (None, lambda a, out, p: (int(out.value == "unknown"), 0)),
        "numeric.tower_le": (None, lambda a, out, p: (int(out is None), 0)),
        "family.verify_suitable": (None, lambda a, out, p: (
            len(out), sum(e["method"] == "construction" for e in out))),
    }


class Tracer:
    def __init__(self):
        self.records: list[tuple] = []
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._stack: list[int] = []
        self._next = 0
        self._patched: list[tuple] = []
        self._hooks = _hooks()

    def wrap(self, fn, name, before=None, after=None):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        idx, stack, rec, clock = self._index[name], self._stack, self.records, \
            time.perf_counter

        def wrapper(*args, **kw):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            pre = before(args) if before else None
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            except BaseException:
                t1 = clock()
                stack.pop()
                rec.append((sid, parent, idx, t0, t1, 1, 0, 0))
                raise
            t1 = clock()
            stack.pop()
            n1, n2 = after(args, out, pre) if after else (0, 0)
            rec.append((sid, parent, idx, t0, t1, 0, n1, n2))
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn, after=None):
        """Run fn() as a root span (an operation or a probe)."""
        return self.wrap(fn, name, after=after)()

    def install(self, package) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for layer in LAYERS:
            mod = sys.modules.get(f"{package.__name__}.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                w = self.wrap(fn, name, *self._hooks.get(name, (None, None)))
                for m in modules:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            self._patch(m, a, w)
        for layer, cls_name in ORACLES:
            cls = getattr(sys.modules.get(f"{package.__name__}.{layer}"),
                          cls_name, None)
            fn = vars(cls).get("eval") if cls is not None else None
            if fn is not None:
                name = f"{layer}.{cls_name}.eval"
                self._patch(cls, "eval",
                            self.wrap(fn, name, *self._hooks[name]))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start", "end", "error",
                          "n1", "n2"])
            for sid, parent, idx, t0, t1, err, n1, n2 in sorted(self.records):
                out.writerow([sid, parent, self.names[idx], f"{t0:.9f}",
                              f"{t1:.9f}", err, n1, n2])


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def read_spans(path) -> list[tuple]:
    with open(path, newline="") as fh:
        rows = csv.DictReader(fh)
        return [(int(r["id"]), int(r["parent"]), r["name"], float(r["start"]),
                 float(r["end"]), int(r["error"]), int(r["n1"]), int(r["n2"]))
                for r in rows]


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer metrics, and details (self-time shares, top layer), from
    spans.  Roots named ``op.*`` are the traced round's operations; roots
    ``proc.*`` time CLI processes and ``probe.bare`` / ``probe.import``
    time a bare interpreter and a fresh ``import creaturelab``."""
    by_id = {s[0]: s for s in spans}
    child = {}
    for sid, parent, name, t0, t1, *_ in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    agg = {}
    for sid, parent, name, t0, t1, err, n1, n2 in spans:
        a = agg.setdefault(name, [0, 0.0, 0, 0, 0, []])
        a[0] += 1
        a[1] += (t1 - t0) - child.get(sid, 0.0)
        a[2] += err
        a[3] += n1
        a[4] += n2
        a[5].append(t1 - t0)

    def total(prefixes, i):
        return sum(v[i] for k, v in agg.items()
                   if any(k == p or k.startswith(p + ".") for p in prefixes))

    def ratio(num, den):
        return num / den if den else 0.0

    wall = sum(t1 - t0 for _, parent, name, t0, t1, *_ in spans
               if parent < 0 and name.startswith("op."))
    covered = sum(t1 - t0 for _, parent, name, t0, t1, *_ in spans
                  if parent >= 0 and by_id[parent][2].startswith("op."))
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = total([layer], 0)
        m[f"{layer}.self_s"] = total([layer], 1)
        m[f"{layer}.errors"] = total([layer], 2)
        m[f"{layer}.self_share"] = ratio(m[f"{layer}.self_s"], wall)
    norm = agg.get("creatures.norm", [0, 0.0, 0, 0, 0, []])
    m["creatures.norm.calls"] = norm[0]
    m["creatures.norm.self_s"] = norm[1]
    m["creatures.norm.repeat_ratio"] = ratio(norm[3], norm[0])
    m["creatures.norm.object_repeat_ratio"] = ratio(norm[4], norm[0])
    refine = ["creatures.bigness_refine", "creatures.range_refine"]
    m["creatures.refine.calls"] = total(refine, 0)
    m["creatures.refine.self_s"] = total(refine, 1)
    for layer, enum, oracle in (
            ("conditions", "conditions.possibilities", "conditions.NameOracle.eval"),
            ("products", "products.product_possibilities",
             "products.ProductNameOracle.eval")):
        m[f"{layer}.branches"] = total([enum], 3)
        m[f"{layer}.oracle.evals"] = total([oracle], 0)
        m[f"{layer}.oracle.hit_ratio"] = ratio(total([oracle], 3),
                                               total([oracle], 0))
    cmps = ["numeric.tower_cmp", "numeric.tower_le"]
    m["numeric.undecided_ratio"] = ratio(total(cmps, 3), total(cmps, 0))
    m["family.cert.entries"] = total(["family.verify_suitable"], 3)
    m["family.cert.construction_ratio"] = ratio(
        total(["family.verify_suitable"], 4), m["family.cert.entries"])

    def med(name):
        d = agg.get(name)
        return statistics.median(d[5]) if d else 0.0
    procs = [d for k, v in agg.items() if k.startswith("proc.") for d in v[5]]
    main_calls = agg.get("cli.main")
    bare, imp = med("probe.bare"), med("probe.import")
    m["cli.import_s"] = max(imp - bare, 0.0)
    m["cli.handler_s"] = statistics.median(main_calls[5]) if main_calls else 0.0
    m["cli.json_bytes"] = total(["op"], 3) if main_calls else 0
    m["cli.startup_share"] = ratio(imp, statistics.median(procs)) if procs else 0.0
    m["trace.coverage_ratio"] = ratio(covered, wall)
    shares = {layer: m[f"{layer}.self_share"] for layer in LAYERS}
    details = {"traced_wall_s": wall, "spans": len(spans),
               "self_share": shares,
               "top_layer": max(shares, key=shares.get),
               "bench_self_share": ratio(wall - covered, wall),
               "parts": part_shares(spans, child)}
    return m, details


def part_shares(spans, child) -> dict:
    """Layer self-time shares per workload part, for operations named
    ``op.<part>.<kind>``: each span counts toward the part of the
    operation it ran under."""
    part, wall, busy = {}, {}, {}
    for sid, parent, name, t0, t1, *_ in sorted(spans):   # parents first
        if parent < 0:
            bits = name.split(".")
            part[sid] = bits[1] if bits[0] == "op" and len(bits) > 2 else None
            if part[sid]:
                wall[part[sid]] = wall.get(part[sid], 0.0) + (t1 - t0)
            continue
        part[sid] = part[parent]
        layer = name.split(".")[0]
        if part[sid] and layer in LAYERS:
            shares = busy.setdefault(part[sid], dict.fromkeys(LAYERS, 0.0))
            shares[layer] += (t1 - t0) - child.get(sid, 0.0)
    return {p: {layer: t / wall[p] for layer, t in shares.items()}
            for p, shares in busy.items()}
