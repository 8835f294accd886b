from random import Random

import pytest

from creaturelab.relational import (
    FinRelSystem,
    TukeyPair,
    brute_characteristics,
    check_tukey,
    dual,
    leq_card,
)
from creaturelab.toys import random_system, tukey_instance

from oracles import dominating_number_direct, unbounded_number_direct

IDENTITY3 = FinRelSystem.of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_identity_three_frozen():
    assert brute_characteristics(IDENTITY3) == (2, 3)


def test_characteristics_match_direct_search():
    rng = Random(424242)
    for _ in range(200):
        R = random_system(rng, max_side=5)
        b, d = brute_characteristics(R)
        assert d == dominating_number_direct(R.x_size, R.y_size, R.rel)
        assert b == unbounded_number_direct(R.x_size, R.y_size, R.rel)


def test_infinite_characteristics():
    # a row with no related column: d is infinite, b = 1
    R = FinRelSystem.of([[0, 0], [1, 1]])
    b, d = brute_characteristics(R)
    assert d is None and b == 1
    # a column relating to everything: b is infinite, d = 1
    R2 = FinRelSystem.of([[1, 0], [1, 1]])
    b2, d2 = brute_characteristics(R2)
    assert b2 is None and d2 == 1


def test_leq_card_treats_none_as_top():
    assert leq_card(3, None) and not leq_card(None, 3)
    assert leq_card(None, None) and leq_card(2, 2)


def test_dual_swaps_and_negates():
    Rd = dual(IDENTITY3)
    assert Rd.x_size == 3 and Rd.y_size == 3
    assert all(Rd.rel[x][y] == (x != y) for x in range(3) for y in range(3))
    assert dual(Rd).rel == IDENTITY3.rel


def test_dual_exchanges_characteristics():
    rng = Random(5150)
    for _ in range(300):
        R = random_system(rng, max_side=5)
        b, d = brute_characteristics(R)
        bd, dd = brute_characteristics(dual(R))
        assert bd == d and dd == b


def test_check_tukey_accepts_valid_pairs_and_transfers():
    rng = Random(31337)
    for _ in range(200):
        R, Rp, pair = tukey_instance(rng)
        assert check_tukey(R, Rp, pair) == "ok"
        b, d = brute_characteristics(R)
        bp, dp = brute_characteristics(Rp)
        assert leq_card(d, dp)
        assert leq_card(bp, b)


def test_check_tukey_reports_a_witness():
    R = IDENTITY3
    Rp = FinRelSystem.of([[1, 0, 0], [0, 1, 0], [1, 0, 0]])
    pair = TukeyPair((0, 1, 2), (0, 1, 2))
    res = check_tukey(R, Rp, pair)
    assert res != "ok"
    _, x, yp = res
    assert Rp.rel[pair.F[x]][yp]
    assert not R.rel[x][pair.G[yp]]


def test_pair_shape_validation():
    with pytest.raises(ValueError):
        check_tukey(IDENTITY3, IDENTITY3, TukeyPair((0, 1), (0, 1, 2)))


def test_system_json_roundtrip():
    R = FinRelSystem.of([[1, 0], [0, 1], [1, 1]])
    assert FinRelSystem.from_json(R.to_json()) == R


_ID2 = FinRelSystem.of([[True, False], [False, True]])


# every input check of the module, one input that fails it
@pytest.mark.parametrize("call, message", [
    (lambda: brute_characteristics(FinRelSystem.of([[True]] * 21)),
     "system exceeds the exhaustive size cap"),
    (lambda: check_tukey(_ID2, _ID2, TukeyPair((0,), (0, 1))),
     "pair domains do not match the systems"),
    (lambda: check_tukey(_ID2, _ID2, TukeyPair((0, 2), (0, 1))),
     "pair maps leave their codomains"),
    (lambda: brute_characteristics(FinRelSystem.from_json(
        {"x_size": 3, "y_size": 2, "rel": [[1, 0], [0, 1]]})),
     "relation matrix dimensions do not match"),
])
def test_each_input_check_names_its_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
