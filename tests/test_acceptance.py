"""Acceptance gate: one test (one pass/fail line) per criterion.

Every numeric comparison below is exact (integers and Fractions); the only
tolerances are the wall-clock budgets asserted at the end of each test.
"""

import itertools
import time
from fractions import Fraction
from random import Random

import pytest

from creaturelab.conditions import (
    NameOracle,
    PreconditionError,
    branches,
    check_reading,
    early_read,
    localize,
    poss_count,
)
from creaturelab.connections import (
    SigmaCover,
    Slalom,
    ed_blocks,
    ed_maps,
    escape_measure,
    fbg_profile,
    l24_maps,
    l25_maps,
    l26_maps,
    l27_maps,
)
from creaturelab.creatures import Creature, bigness_refine, norm, range_refine
from creaturelab.family import (
    build_single,
    build_tree,
    certificate_summary,
    verify_suitable,
)
from creaturelab.products import (
    product_catch,
    restricted_localize,
    schedule_plan,
)
from creaturelab.relational import (
    brute_characteristics,
    check_tukey,
    dual,
    leq_card,
)
from creaturelab.toys import (
    localize_instance,
    product_catch_instance,
    random_coloring,
    random_creature,
    random_system,
    reading_instance,
    restricted_instance,
    tukey_instance,
)

from oracles import escape_measure_direct, norm_direct, single_family_level0
from toy_instances import antiloc_instance, decode_cell


def test_criterion_01_norm_oracle_equivalence():
    start = time.monotonic()
    checked = 0

    def check(M):
        nonlocal checked
        v = norm(M)
        assert v == norm_direct(M.arena, M.members)
        covered = frozenset().union(*M.members)
        assert (v >= 1) == (len(covered) == M.arena)
        checked += 1

    for arena, cap in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
                       (4, 1), (4, 2), (4, 3)):
        pool = []
        for sz in range(min(cap, arena) + 1):
            pool.extend(itertools.combinations(range(arena), sz))
        for bits in range(1, 1 << len(pool)):
            check(Creature.of(arena, cap,
                              [pool[i] for i in range(len(pool))
                               if bits >> i & 1]))
    rng = Random(1001)
    for _ in range(3000):
        check(random_creature(rng))
    assert checked > 35000
    assert time.monotonic() - start < 60


def test_criterion_02_bigness_and_range_refinement():
    start = time.monotonic()
    rng = Random(1002)
    for _ in range(10 ** 4):
        M = random_creature(rng)
        d = rng.randint(2, 4)
        coloring = random_coloring(rng, M, d)
        color, Ms = bigness_refine(M, coloring, d)
        assert all(coloring(t) == color for t in Ms.members)
        assert Ms.members <= M.members
        assert norm(M) + 1 <= d * (norm(Ms) + 1)
        k = rng.randint(1, 3)
        m = rng.randint(1, d * k)
        table = {t: rng.randrange(m) for t in M.sorted_members()}
        Mr = range_refine(M, lambda t: table[t], k, d, m)
        assert len({table[t] for t in Mr.members}) <= k
        assert norm(M) + 1 <= d * (norm(Mr) + 1)
    assert time.monotonic() - start < 60


def test_criterion_03_early_reading():
    start = time.monotonic()
    rng = Random(1003)
    for _ in range(120):
        p, nu = reading_instance(rng)
        q = early_read(p, nu)
        assert check_reading(q, nu, "early")
        for k in p.split_levels():
            m = poss_count(q, k - 1)
            assert (norm(p.cells[k]) + 1) <= \
                p.params.d[k] ** m * (norm(q.cells[k]) + 1)
    assert time.monotonic() - start < 120


def test_criterion_04_localisation():
    start = time.monotonic()
    rng = Random(1004)
    for _ in range(120):
        p, nu, a, e = localize_instance(rng)
        q, phi = localize(p, nu, a, e)
        for k in range(p.horizon):
            assert len(phi.cells[k]) <= e[k]
        for b in branches(q):
            v = nu.eval(b)
            for k in range(p.horizon):
                assert v[k] in phi.cells[k]
    assert time.monotonic() - start < 120


def test_criterion_05_antilocalisation_composition():
    start = time.monotonic()
    rng = Random(1005)
    for _ in range(60):
        p, nu, a, e = antiloc_instance(rng)
        q, phi = localize(p, nu, a, e)
        decoded = tuple(
            tuple(sorted(cell) for cell in
                  (decode_cell(v) for v in sorted(phi.cells[k])) if cell)
            for k in range(p.horizon))
        for b in branches(q):
            S = Slalom(q.params.c, q.params.h, tuple(b))
            f, y, transfer = l26_maps(q.params.c, q.params.h, e, S, decoded)
            assert transfer == "ok"
            for k in range(p.horizon):
                assert y[k] not in S.cells[k]
    assert time.monotonic() - start < 120


def test_criterion_06_exhaustive_transfer_checks():
    start = time.monotonic()

    def all_slaloms(c, h):
        pools = []
        for i in range(len(c)):
            cells = []
            for sz in range(h[i] + 1):
                cells.extend(itertools.combinations(range(c[i]), sz))
            pools.append(cells)
        for combo in itertools.product(*pools):
            yield Slalom.of(c, h, [list(cl) for cl in combo])

    c, h = [2, 4], [1, 2]
    for S in all_slaloms(c, h):
        for yv in range(4):
            assert l24_maps(c, h, format(yv, "b").zfill(2), S)[2] == "ok"

    b, g = [2, 4], [1, 2]
    profile = fbg_profile(b, g, sum(g))
    entry_pools = [["".join(bits) for bits in
                    itertools.product("01", repeat=profile[k])]
                   for k in range(sum(g))]
    for y in itertools.product(range(2), range(4)):
        for entries in itertools.product(*entry_pools):
            assert l25_maps(b, g, y, SigmaCover(entries))[2] == "ok"

    cell_pool = []
    for sz in (1, 2):
        cell_pool.extend(itertools.combinations(range(5), sz))
    fams = [()] + [(cl,) for cl in cell_pool] + \
        list(itertools.combinations(cell_pool, 2))
    for S in all_slaloms([5], [2]):
        for fam in fams:
            assert l26_maps([5], [2], [2], S, (fam,))[2] == "ok"

    for cell in cell_pool:
        for yv in range(5):
            assert l27_maps([5], [2], [list(cell)], [yv])[2] == "ok"

    c2, h2 = [6, 5], [2, 3]
    nb = [len(ed_blocks(c2[i], h2[i])) for i in range(2)]
    for x in itertools.product(range(nb[0]), range(nb[1])):
        for y in itertools.product(range(6), range(5)):
            assert ed_maps(c2, h2, x, y)[2] == "ok"
    assert time.monotonic() - start < 60


def test_criterion_07_tukey_monotonicity_and_duality():
    start = time.monotonic()
    rng = Random(1007)
    for _ in range(1000):
        R, Rp, pair = tukey_instance(rng)
        assert check_tukey(R, Rp, pair) == "ok"
        b, d = brute_characteristics(R)
        bp, dp = brute_characteristics(Rp)
        assert leq_card(d, dp)
        assert leq_card(bp, b)
    for _ in range(1000):
        R = random_system(rng)
        b, d = brute_characteristics(R)
        bd, dd = brute_characteristics(dual(R))
        assert bd == d and dd == b
    assert time.monotonic() - start < 120


def test_criterion_08_family_level0_exact():
    start = time.monotonic()
    fam, bnd = build_single(3, 4)
    assert fam.h[0] == 256
    assert fam.g[0] == 65536
    assert fam.b[0] == 2 ** 65540
    assert fam.c[0] == 2 ** 131076
    assert fam.a[0] == 2 ** 33555456 + 1
    ind = single_family_level0(4)
    for key in ("d", "h", "g", "b", "c", "a"):
        assert getattr(fam, key)[0] == ind[key]
    assert time.monotonic() - start < 60


def test_criterion_09_tree_certification():
    start = time.monotonic()
    tf = build_tree(3, 2)
    cert = verify_suitable(tf, tf.bounding)
    summary = certificate_summary(cert)
    assert summary["unknown"] == 0
    assert summary["fail"] == 0
    assert summary["pass"] == summary["total"]
    clauses = {e["clause"] for e in cert}
    assert {"S7", "bounding_i", "bounding_ii"} <= clauses
    assert time.monotonic() - start < 120


def test_criterion_10_product_schedule():
    start = time.monotonic()
    plan = schedule_plan(10)
    assert plan["m"][:4] == [0, 3, 8, 15]
    assert all(plan["sizes"][n] == (n + 1) ** 2 for n in range(11))
    assert time.monotonic() - start < 1


def test_criterion_11_restricted_localisation():
    start = time.monotonic()
    rng = Random(1011)
    for _ in range(60):
        p, nu, C, a, e = restricted_instance(rng)
        q, name = restricted_localize(p, nu, C, a, e)
        cidx = [i for i, xi in enumerate(q.support) if xi in name.coords]
        seen = {}
        for b in branches(q):
            key = tuple(b[i] for i in cidx)
            v = nu.eval(b)
            for k in range(q.horizon):
                cell = name.cells[k][key]
                assert len(cell) <= e[k]
                assert v[k] in cell
                assert seen.setdefault((k, key), cell) == cell
    assert time.monotonic() - start < 120


def test_criterion_12_generic_catching():
    start = time.monotonic()
    rng = Random(1012)
    for _ in range(120):
        p, nu, B, xi = product_catch_instance(rng)
        q, k = product_catch(p, nu, B, xi)
        pos = q.support.index(xi)
        assert len(q.parts[xi].cells[k].members) == 1
        for b in branches(q):
            assert nu.eval(b)[k] in b[pos][k]
    # a name that also reads the target coordinate must be rejected
    p, nu, B, xi = product_catch_instance(rng)
    pos = p.support.index(xi)
    lvl = next(k for k in range(p.horizon)
               if len(p.parts[xi].cells[k].members) > 1)

    def leaky(branch):
        base = nu.eval(branch)
        flip = min(branch[pos][lvl], default=0) % 2
        return ((base[0] + flip) % len(nu.profile[0]),) + base[1:]

    with pytest.raises(PreconditionError):
        product_catch(p, NameOracle(p, nu.profile, leaky), B, xi)
    assert time.monotonic() - start < 120


def test_criterion_13_escape_measure():
    start = time.monotonic()
    rng = Random(1013)
    for _ in range(1000):
        N = rng.randint(1, 6)
        c = [rng.randint(1, 7) for _ in range(N)]
        h = [rng.randint(1, ck) for ck in c]
        cells = [rng.sample(range(c[k]), rng.randint(0, h[k]))
                 for k in range(N)]
        S = Slalom.of(c, h, cells)
        m = escape_measure(S, (0, N))
        assert m == escape_measure_direct(c, h, cells, (0, N))
        mid = rng.randint(0, N)
        assert m == escape_measure(S, (0, mid)) * escape_measure(S, (mid, N))
        assert isinstance(m, Fraction)
    assert time.monotonic() - start < 10
