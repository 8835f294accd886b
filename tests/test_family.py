import tracemalloc
from dataclasses import replace

import pytest

from creaturelab import family
from creaturelab.family import (
    TowerOverflowError,
    TreeFamily,
    build_single,
    build_tree,
    certificate_summary,
    toy_family,
    verify_suitable,
    _capped,
    _staircase,
    _sub_offset,
    _value_json,
)
from creaturelab.numeric import tower, tower_exp2, tower_mul, tower_pow

from oracles import single_family_level0


def test_build_single_level0_exact_values():
    fam, bnd = build_single(3, 4)
    assert fam.d[0] == 4
    assert fam.h[0] == 256
    assert fam.g[0] == 65536
    assert fam.b[0] == 2 ** 65540
    assert fam.c[0] == 2 ** 131076
    assert fam.a[0] == 2 ** 33555456 + 1


def test_build_single_matches_independent_recurrence():
    ind = single_family_level0(4)
    fam, _ = build_single(3, 4)
    for key in ("d", "h", "g", "b", "c", "a"):
        assert getattr(fam, key)[0] == ind[key]


def test_build_single_bounding_recursion():
    fam, bnd = build_single(3, 4)
    assert bnd.n_minus[0] == 3
    # n_{k+1}^- = n_k^- * n_k^+ + 1 with n_0^+ = a(0)
    assert bnd.n_plus[0] == fam.a[0]
    assert bnd.n_minus[1] == bnd.n_minus[0] * fam.a[0] + 1
    assert fam.d[1] == bnd.n_minus[1] + 1


def test_staircase_matches_the_exact_exponent_form():
    """For an exact d above the promotion threshold and k + 1 a power of two
    the exponent (k + 1) d goes to tower_pow as an enclosure; the staircase
    is still the one the exact product gives, bit for bit.  At k = 2 the
    exact product is kept: log2 3 + log2 d need not enclose log2(3 d) as
    its own bounds do, and for d = 10^30 it does not."""
    d1 = build_single(3, 4)[0].d[1]
    for d in (2 ** 64 + 1, 2 ** 100 + 12345, 10 ** 30, d1):
        for k in (0, 1, 2, 3):
            assert _staircase(k, d) == tower_pow(d, tower_mul(k + 1, d)), (k, d.bit_length())
    d = tower(10 ** 30)
    assert _staircase(2, 10 ** 30) != tower_pow(d, tower_mul(3, d))


def test_staircase_of_a_33m_bit_d_builds_nothing_of_its_size():
    d1 = build_single(3, 4)[0].d[1]
    assert d1.bit_length() > 2 ** 25
    tracemalloc.start()
    try:
        _staircase(1, d1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_build_tree_node_zero_exact():
    tf = build_tree(3, 2)
    assert tf.nodes["0"].d == 3
    assert tf.nodes["0"].a == 2 ** 533628 + 1


def test_build_tree_lex_successors():
    tf = build_tree(3, 2)
    # d_{t+}(k) = (k+1) * a_t(k) for lex-adjacent labels of the same stage
    for k in range(tf.depth):
        labels = TreeFamily.stage(k)
        for t, tp in zip(labels, labels[1:]):
            assert tf.nodes[tp].d == tower_mul(k + 1, tf.nodes[t].a), (t, tp)


def test_tree_s7_credits_exactly_the_lex_adjacent_pairs(monkeypatch):
    """With every tower_le undecided, an S7 entry passes by construction
    exactly when its pair is lex-adjacent in its stage; every other pair
    stays unknown."""
    tf = build_tree(3, 3, cap=32)
    monkeypatch.setattr(family, "tower_le", lambda x, y: None)
    s7 = [e for e in verify_suitable(tf, tf.bounding, cap=32) if e["clause"] == "S7"]
    adjacent = {pair for k in range(tf.depth)
                for pair in zip(TreeFamily.stage(k), TreeFamily.stage(k)[1:])}
    assert len(s7) == 1 + 6 + 28 and len(adjacent) == 1 + 3 + 7
    assert {tuple(e["pair"]) for e in s7 if e["method"] == "construction"} == adjacent
    assert all(e["status"] == "unknown" for e in s7 if tuple(e["pair"]) not in adjacent)


def test_tree_certificate_all_pass():
    tf = build_tree(3, 2)
    cert = verify_suitable(tf, tf.bounding)
    summary = certificate_summary(cert)
    assert summary["fail"] == 0
    assert summary["unknown"] == 0
    assert summary["pass"] == summary["total"] > 0
    assert {e["clause"] for e in cert} >= {"S1", "S2", "S3", "S4", "S7",
                                           "bounding_i", "bounding_ii"}


def test_corrupted_tree_fails_certification():
    tf = build_tree(3, 2)
    tf.constructed = False
    tf.nodes["0"].h = 1   # breaks the growth chain
    cert = verify_suitable(tf, tf.bounding)
    assert certificate_summary(cert)["fail"] > 0


def test_tree_s7_fails_where_a_d_drops_below_its_predecessor_s_a():
    """At stage 0, S7 asks 1 * a_0 <= d_1: a d_1 of 1 fails it."""
    tf = build_tree(3, 2)
    tf.constructed = False
    tf.nodes["1"].d = 1
    assert [e["status"] for e in verify_suitable(tf, tf.bounding)
            if e["clause"] == "S7" and e["k"] == 0] == ["fail"]


def test_single_certificate_is_honest():
    fam, bnd = build_single(3, 4)
    cert = verify_suitable(fam, bnd)
    by = {(e["clause"], e["k"]): e["status"] for e in cert}
    # a = c^h + 1 < b^g at level 0: the clause must fail, not be glossed over
    assert by[("S4", 0)] == "fail"
    for clause in ("S1", "S2", "S3", "S6", "bounding_i", "bounding_ii"):
        assert by[(clause, 0)] == "pass"


def test_single_s1_fails_when_a_tops_n_plus():
    """n_k^+ is a(k) itself, so only an a above it can fail S1's top bound;
    c < a and the chain still hold."""
    fam, bnd = build_single(3, 4, 1)
    fam.constructed = False
    fam.a = (2 * bnd.n_plus[0],)
    assert verify_suitable(fam, bnd)[0] == {
        "clause": "S1", "k": 0, "status": "fail", "method": "comparison"}
    fam.a = bnd.n_plus
    assert verify_suitable(fam, bnd)[0]["status"] == "pass"


def test_single_bounding_ii_fails_when_n_plus_drops_below_the_power():
    """Bounding (ii), n_k^+ >= (n_k^-)^k, fails at k = 1 once n_1^+ is 1."""
    fam, bnd = build_single(3, 4)
    fam.constructed = False
    bnd = replace(bnd, n_plus=(bnd.n_plus[0], 1, *bnd.n_plus[2:]))
    assert [e["status"] for e in verify_suitable(fam, bnd)
            if e["clause"] == "bounding_ii"] == ["pass", "fail"]


def test_single_bounding_ii_at_stage_0_compares_with_one():
    """At k = 0 the power (n_0^-)^0 is 1, so bounding (ii) fails once
    n_0^+ is 0."""
    fam, bnd = build_single(3, 4)
    fam.constructed = False
    bnd = replace(bnd, n_plus=(0, *bnd.n_plus[1:]))
    assert [e["status"] for e in verify_suitable(fam, bnd)
            if e["clause"] == "bounding_ii"] == ["fail", "pass"]


def test_single_s2_at_its_boundary():
    """S2, h + 1 >= d^{(k+1)d}, holds for h one below the staircase
    5^5 = 3125 at k = 0 and fails two below it."""
    fam, bnd = build_single(3, 5, 1)
    fam.constructed = False
    assert fam.h == (3125,)
    for h, status in ((3124, "pass"), (3123, "fail")):
        fam.h = (h,)
        assert [e["status"] for e in verify_suitable(fam, bnd)
                if e["clause"] == "S2"] == [status]


def test_single_lower_bounds_multiply_the_previous_one(monkeypatch):
    """n_{k+1}^- = n_k^- n_k^+ + 1: each stage multiplies its own n_k^-,
    which the tower enclosures from stage 1 on cannot tell from n_0^-."""
    products = []
    mul = family.tower_mul
    monkeypatch.setattr(family, "tower_mul", lambda x, y: products.append((x, y)) or mul(x, y))
    fam, bnd = build_single(3, 9, 3)
    for k in range(3):
        assert any(x is bnd.n_minus[k] and y is fam.a[k] for x, y in products), k


def test_single_s6_at_its_boundary():
    """At depth 1, k = 0, f reaches offset + end - 1 = 131075 = log2 c(0) - 1
    on the built c(0) = 2^131076.  S6 holds for c(0) = 2^131075, where the
    bound is met with equality, and fails one bit lower."""
    fam, bnd = build_single(3, 4, 1)
    rec = fam.f_records[0]
    assert rec["offset"] + rec["end"] - 1 == 131075
    fam.constructed = False
    for c, status in ((2 ** 131075, "pass"), (2 ** 131074, "fail")):
        fam.c = (c,)
        assert [e["status"] for e in verify_suitable(fam, bnd)
                if e["clause"] == "S6"] == [status]


def test_tallest_tree_value_by_depth():
    """The height a tree family needs grows with its depth: 11, 27 and 59
    exponentials for d0 = 3 at depths 2-4, against the fixed cap of 24."""
    for depth, tallest in ((2, 11), (3, 27), (4, 59)):
        tf = build_tree(3, depth, cap=64)
        assert max(getattr(getattr(n, name), "height", 0)
                   for n in tf.nodes.values() for name in "dhgbca") == tallest


def test_verify_past_its_cap_names_the_stage_and_the_height():
    tree = build_tree(3, 2)
    chain = build_single(3, 9, 3)
    for (fam, bnd), cap, stage, height in (((tree, tree.bounding), 10, 1, 11),
                                           (chain, 5, 2, 6)):
        with pytest.raises(TowerOverflowError, match=rf"^height cap {cap} exceeded: "
                           rf"stage {stage} reaches height {height} \(raise the cap"):
            verify_suitable(fam, bnd, cap=cap)


def test_an_exact_value_is_zero_exponentials_tall():
    _capped(0, 0, [3, 2 ** 100])
    with pytest.raises(TowerOverflowError, match="height cap -1 exceeded: stage 0 "
                       "reaches height 0"):
        _capped(-1, 0, [3])
    with pytest.raises(TowerOverflowError, match="height cap 0 exceeded: stage 2 "
                       "reaches height 1"):
        _capped(0, 2, [3, tower(2 ** 65)])


def test_an_exact_value_of_up_to_4096_bits_is_printed_in_full():
    assert _value_json(2 ** 4095) == {"exact": str(2 ** 4095)}
    assert _value_json(2 ** 4096) == {"exact_bits": 4097}


def test_toy_family_manifest():
    out = toy_family(0, horizon=3)
    assert len(out["a"]) == 3
    assert all(v <= 10 ** 4 for v in out["a"])
    assert all(out["h"][k] == 1 for k in range(3))
    manifest = out["manifest"]
    assert manifest["held"] and manifest["waived"]
    assert not set(manifest["held"]) & set(manifest["waived"])
    with pytest.raises(ValueError):
        toy_family(0, horizon=7)


# the input checks of the module that no other test reaches, one input
# that fails each: no toy horizon of 5 or 6 keeps its values within 10^4.
# Each bound of build_single's 2 < n0_minus < d0 and of the toy horizon's
# range [1, 6] is tried on its first value outside: 6 is inside the range
# and fails only the search, and toy_family(0, 1) succeeds
@pytest.mark.parametrize("call, message", [
    (lambda: build_tree(2, 2), "need d0 >= 3"),
    (lambda: build_tree(3, 0), "depth must be positive"),
    (lambda: build_single(2, 4), "need 2 < n0_minus < d0"),
    (lambda: build_single(4, 4), "need 2 < n0_minus < d0"),
    (lambda: toy_family(0, 0), r"toy horizon 0 is outside \[1, 6\]"),
    (lambda: toy_family(0, 7), r"toy horizon 7 is outside \[1, 6\]"),
    (lambda: toy_family(0, 5), "no in-range assignment at this horizon"),
    (lambda: toy_family(0, 6), "no in-range assignment at this horizon"),
    (lambda: toy_family(7, 5), "no in-range assignment at this horizon"),
])
def test_each_input_check_names_its_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_toy_family_takes_the_lowest_horizon():
    out = toy_family(0, 1)
    assert len(out["a"]) == 1 and out["h"] == [1]


def test_sub_offset_is_none_where_the_difference_is_refused():
    assert _sub_offset(5, 2) == 3
    assert _sub_offset(2, 5) is None
    # a tower minus a larger tower
    x = tower_exp2(tower(2 ** 70))
    assert _sub_offset(x, tower_exp2(x)) is None
