import itertools
import re
from fractions import Fraction
from random import Random

import pytest

from creaturelab.connections import (
    SigmaCover,
    Slalom,
    build_partition,
    ed_blocks,
    ed_maps,
    escape_measure,
    fbg_profile,
    gch_profile,
    l24_maps,
    l25_maps,
    l26_maps,
    l27_maps,
)

from oracles import escape_measure_direct


def _all_slaloms(c, h):
    pools = []
    for i in range(len(c)):
        cells = []
        for sz in range(h[i] + 1):
            cells.extend(itertools.combinations(range(c[i]), sz))
        pools.append(cells)
    for combo in itertools.product(*pools):
        yield Slalom.of(c, h, [list(cell) for cell in combo])


def test_build_partition_blocks_are_consecutive():
    part = build_partition([2, 1, 3])
    assert part.blocks == ((0, 2), (2, 3), (3, 6))
    assert part.total() == 6
    assert [part.block_of(k) for k in range(6)] == [0, 0, 1, 2, 2, 2]
    with pytest.raises(ValueError):
        build_partition([2, 0])


def test_profiles():
    assert gch_profile([4, 8], [2, 1], 3) == (2, 2, 3)
    assert fbg_profile([4, 3], [1, 2], 3) == (2, 4, 4)
    with pytest.raises(ValueError):
        gch_profile([4], [1], 5)


def test_l24_transfer_exhaustive():
    c, h = [2, 4], [1, 2]
    for S in _all_slaloms(c, h):
        for yv in range(4):
            y = format(yv, "b").zfill(2)
            f, g, transfer = l24_maps(c, h, y, S)
            assert transfer == "ok"
            assert len(g.entries) == sum(h)


def test_l25_transfer_exhaustive():
    b, g = [2, 4], [1, 2]
    profile = fbg_profile(b, g, sum(g))
    entry_pools = [["".join(bits) for bits in
                    itertools.product("01", repeat=profile[k])]
                   for k in range(sum(g))]
    for y in itertools.product(range(b[0]), range(b[1])):
        for entries in itertools.product(*entry_pools):
            f, gim, transfer = l25_maps(b, g, y, SigmaCover(entries))
            assert transfer == "ok"


def test_l26_transfer_exhaustive():
    c, h, hp = [5], [2], [2]
    cell_pool = []
    for sz in (1, 2):
        cell_pool.extend(itertools.combinations(range(5), sz))
    families = [()]
    families += [(cl,) for cl in cell_pool]
    families += list(itertools.combinations(cell_pool, 2))
    for S in _all_slaloms(c, h):
        for fam in families:
            f, g, transfer = l26_maps(c, h, hp, S, (fam,))
            assert transfer == "ok"
            assert 0 <= g[0] < 5


def test_l26_rejects_too_tight_arena():
    S = Slalom.of([4], [2], [[0]])
    with pytest.raises(ValueError):
        l26_maps([4], [2], [2], S, (((0, 1),),))   # h*h' >= c


def test_l27_transfer_exhaustive():
    for c, h in (([4], [1]), ([5], [2])):
        cell_pool = []
        for sz in range(1, h[0] + 1):
            cell_pool.extend(itertools.combinations(range(c[0]), sz))
        for cell in cell_pool:
            for yv in range(c[0]):
                f, g, transfer = l27_maps(c, h, [list(cell)], [yv])
                assert transfer == "ok"


def test_ed_blocks_cover_the_arena():
    assert ed_blocks(7, 3) == [(0, 3), (3, 6), (6, 7)]
    assert ed_blocks(4, 5) == [(0, 4)]


def test_ed_transfer_exhaustive():
    c, h = [6, 5], [2, 3]
    nblocks = [len(ed_blocks(c[i], h[i])) for i in range(2)]
    for x in itertools.product(range(nblocks[0]), range(nblocks[1])):
        for y in itertools.product(range(c[0]), range(c[1])):
            f, g, transfer = ed_maps(c, h, x, y)
            assert transfer == "ok"


def test_escape_measure_matches_direct_product():
    rng = Random(2468)
    for _ in range(300):
        N = rng.randint(1, 5)
        c = [rng.randint(1, 6) for _ in range(N)]
        h = [rng.randint(1, ck) for ck in c]
        cells = [rng.sample(range(c[k]), rng.randint(0, h[k]))
                 for k in range(N)]
        S = Slalom.of(c, h, cells)
        m = escape_measure(S, (0, N))
        assert m == escape_measure_direct(c, h, cells, (0, N))
        mid = rng.randint(0, N)
        assert m == escape_measure(S, (0, mid)) * escape_measure(S, (mid, N))


def test_escape_measure_frozen_value():
    S = Slalom.of([4, 4, 4], [1, 1, 1], [[0], [1], [2]])
    assert escape_measure(S, (0, 3)) == Fraction(27, 64)


def test_slalom_json_roundtrip():
    S = Slalom.of([3, 5], [1, 2], [[2], [0, 4]])
    assert Slalom.from_json(S.to_json()) == S


_S1 = Slalom.of([4], [1], [[0]])


# every input check of the module, one input that fails it
@pytest.mark.parametrize("call, message", [
    (lambda: Slalom((3,), (1,), ()), "length mismatch"),
    (lambda: Slalom.of([3], [1], [[0, 1]]), "cell 0 exceeds its width bound"),
    (lambda: Slalom.of([3], [1], [[3]]), "cell 0 leaves the arena"),
    (lambda: Slalom.of([3], [1], [[0.5]]), "cell 0 element 0.5 is not an integer"),
    (lambda: Slalom.of([3], [1], [[True]]), "cell 0 element True is not an integer"),
    (lambda: SigmaCover(("012",)), "entries must be binary strings"),
    (lambda: build_partition([2, 0]), "partition lengths must be positive"),
    (lambda: gch_profile([1], [1], 1), "need c >= 2 and h >= 1 pointwise"),
    (lambda: fbg_profile([2], [0], 0), "need b >= 2 and g >= 1 pointwise"),
    (lambda: l24_maps([4], [0], "11", _S1), "need c >= 2 and h >= 1 pointwise"),
    (lambda: l24_maps([4], [1], "1", _S1), "y is too short for the widest index"),
    (lambda: l25_maps([1], [1], (0,), SigmaCover(())), "need b >= 2 and g >= 1 pointwise"),
    (lambda: l25_maps([2], [1], (2,), SigmaCover(())), "y leaves its product space"),
    (lambda: l25_maps([2], [1], (0,), SigmaCover(("0", "0"))),
     "cover longer than the index window"),
    (lambda: l25_maps([4], [1], (0,), SigmaCover(("0",))),
     "entry 0 shorter than the required height 2"),
    (lambda: l26_maps([3], [0], [1], Slalom.of([3], [0], [[]]), [[]]), "need h >= 1"),
    (lambda: l26_maps([5], [1], [1], _S1, [[[0], [1]]]), "phi(0) too wide"),
    (lambda: l26_maps([5], [1], [1], _S1, [[[]]]), "phi(0) holds an invalid cell"),
    (lambda: l27_maps([1], [1], [[0]], [0]), "need c >= 2 and h >= 1"),
    (lambda: l27_maps([13], [1], [[0]], [0]), "arena too large to materialize"),
    (lambda: l27_maps([3], [1], [[]], [0]), "S(0) must be a nonempty cell of size <= h"),
    (lambda: ed_maps([4], [2], [2], [0]), "block index out of range at 0"),
    (lambda: ed_maps([4], [2], [0], [4]), "y out of range at 0"),
    (lambda: escape_measure(Slalom.of([0], [0], [[]]), (0, 1)), "arena must be positive"),
    (lambda: build_partition([2, 3]).block_of(5), "5 not covered"),
])
def test_each_input_check_names_its_input(call, message):
    with pytest.raises((ValueError, IndexError), match=re.escape(message)):
        call()
