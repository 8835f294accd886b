"""A fixed reference kernel that measures how fast the machine runs right now.

The kernel mixes the kinds of work the library does (set and tuple
enumeration, bitmask search, string-keyed dictionaries, big-integer and
Fraction arithmetic) on inputs that never change, with code that lives in
the benchmark alone, so no change to the library can change its cost.  Its
best time over a run, against ``NOMINAL_S``, gives how much slower than
nominal the machine ran during that run; each worker times it right after
its round, and ``run.py`` divides the run's timings by that factor (see README.md, "Machine speed").
"""

from __future__ import annotations

import gc
import itertools
import time
from fractions import Fraction
from random import Random

import checks

# About the kernel's best time on the machine the benchmark was written on
# (Intel Xeon, 2 vCPUs, Python 3.11.7: 18-20 ms in its fast state), in
# seconds.  It only sets the scale of the reported timings; changing it
# rescales every timing of every commit alike.
NOMINAL_S = 0.02


def _inputs():
    rng = Random("calibration")
    members = [c for k in range(5)
               for c in itertools.combinations(range(15), k)]
    rel = [[int(rng.random() < 0.6) for _ in range(13)] for _ in range(13)]
    keys = [",".join(map(str, k)) for k in itertools.product(range(20), repeat=3)]
    table = {k: (rng.randrange(3), rng.randrange(5)) for k in keys}
    return members, rel, keys, table


MEMBERS, REL, KEYS, TABLE = _inputs()


def kernel() -> int:
    acc = checks.cover_norm(15, MEMBERS) + checks.cover_norm(15, MEMBERS[::-1])
    acc += sum(v or 0 for v in checks.brute_answer(REL))
    for _ in range(8):
        acc += sum(TABLE[k][0] for k in KEYS if TABLE[k][1])
    x = 3 ** 30000
    acc += ((x * x) % (x + 12345)) & 0xFFFF
    acc += sum(Fraction(1, n) for n in range(1, 1000)).denominator & 0xFF
    return acc


def best(repeats: int) -> float:
    """The kernel's best time over ``repeats`` calls, in seconds.  The
    collector is off meanwhile, so the objects the calling process holds
    cannot change the kernel's cost."""
    out = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            out = min(out, time.perf_counter() - t0)
    finally:
        gc.enable()
    return out
