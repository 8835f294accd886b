"""Explicit connection maps between the finite relational systems.

Each l*_maps function realizes one forward/backward map pair on concrete
finite data and checks the witness-transfer implication pointwise: whenever
the forward image is caught on the right, the original is caught on the left.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Slalom:
    """Per-index cell S(i) within the arena c(i), with |S(i)| <= h(i)."""

    c: tuple[int, ...]
    h: tuple[int, ...]
    cells: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not (len(self.c) == len(self.h) == len(self.cells)):
            raise ValueError("length mismatch")
        for i, cell in enumerate(self.cells):
            if len(cell) > self.h[i]:
                raise ValueError(f"cell {i} exceeds its width bound")
            for v in cell:
                if type(v) is not int:  # a bool is not an element either
                    raise ValueError(f"cell {i} element {v!r} is not an integer")
            if any(v < 0 or v >= self.c[i] for v in cell):
                raise ValueError(f"cell {i} leaves the arena")

    @staticmethod
    def of(c, h, cells) -> "Slalom":
        return Slalom(tuple(c), tuple(h), tuple(frozenset(s) for s in cells))

    def to_json(self) -> dict:
        return {"c": list(self.c), "h": list(self.h),
                "cells": [sorted(s) for s in self.cells]}

    @staticmethod
    def from_json(obj) -> "Slalom":
        return Slalom.of(obj["c"], obj["h"], obj["cells"])


@dataclass(frozen=True)
class SigmaCover:
    """A finite list of binary strings; entry k has height |entries[k]|."""

    entries: tuple[str, ...]

    def __post_init__(self):
        for e in self.entries:
            if any(ch not in "01" for ch in e):
                raise ValueError("entries must be binary strings")

    def to_json(self) -> dict:
        return {"entries": list(self.entries)}

    @staticmethod
    def from_json(obj) -> "SigmaCover":
        return SigmaCover(tuple(obj["entries"]))


@dataclass(frozen=True)
class IntervalPartition:
    blocks: tuple[tuple[int, int], ...]  # half-open [start, end)

    def block_of(self, k: int) -> int:
        for n, (s, e) in enumerate(self.blocks):
            if s <= k < e:
                return n
        raise IndexError(f"{k} not covered")

    def total(self) -> int:
        return self.blocks[-1][1] if self.blocks else 0


def build_partition(lengths) -> IntervalPartition:
    blocks = []
    start = 0
    for ln in lengths:
        if ln <= 0:
            raise ValueError("partition lengths must be positive")
        blocks.append((start, start + ln))
        start += ln
    return IntervalPartition(tuple(blocks))


def gch_profile(c, h, horizon: int) -> tuple[int, ...]:
    """Step profile: floor(log2 c(n)) repeated h(n) times, cut at horizon."""
    _pair("ch", c, h)
    return _steps([cn.bit_length() - 1 for cn in c], h, horizon)


def fbg_profile(b, g, horizon: int) -> tuple[int, ...]:
    """Cumulative profile: sum of ceil(log2 b(l)) for l <= n, repeated g(n) times."""
    _pair("bg", b, g)
    return _steps(list(itertools.accumulate(map(_ceil_log2, b))), g, horizon)


def _steps(values, reps, horizon: int) -> tuple[int, ...]:
    """values[n] repeated reps[n] times, cut at horizon."""
    out = [v for v, r in zip(values, reps) for _ in range(r)]
    if not 0 <= horizon <= len(out):
        raise ValueError(f"horizon {horizon} is outside the covered range "
                         f"[0, {len(out)}]")
    return tuple(out[:horizon])


def _one_per_index(*seqs) -> None:
    if len({len(s) for s in seqs}) > 1:
        raise ValueError("the per-index sequences differ in length")


def _pair(names: str, sizes, widths, *more) -> None:
    """Check the pair (c, h) or (b, g), as names spells it, with the
    per-index sequences more: one length, sizes >= 2 and widths >= 1."""
    _one_per_index(sizes, widths, *more)
    if any(v < 2 for v in sizes) or any(v < 1 for v in widths):
        raise ValueError("need {} >= 2 and {} >= 1 pointwise".format(*names))


def _first_violation(n: int, fails):
    """The transfer's verdict: ("violation", i) at the first i < n where
    fails(i), else "ok"."""
    return next((("violation", i) for i in range(n) if fails(i)), "ok")


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def _fixed_width_bits(value: int, width: int) -> str:
    return format(value, "b").zfill(width) if width > 0 else ""


# ---------------------------------------------------------------------------


def l24_maps(c, h, y: str, S: Slalom):
    """Binary reals vs slaloms over (c, h).

    Encoder: index n reads the first floor(log2 c(n)) bits of y as a number.
    Decoder: the cells of S spread over an |I_n| = h(n) partition as binary
    strings (unencodable or missing slots become all-zeros strings).
    """
    _pair("ch", c, h, S.cells)
    widths = [cn.bit_length() - 1 for cn in c]
    if len(y) < max(widths, default=0):
        raise ValueError("y is too short for the widest index")
    f_image = tuple(int(y[:w], 2) if w > 0 else 0 for w in widths)

    part = build_partition(h)
    entries = []
    for n, (s, e) in enumerate(part.blocks):
        cell = sorted(S.cells[n])
        w = widths[n]
        for j in range(e - s):
            if j < len(cell) and cell[j] < (1 << w):
                entries.append(_fixed_width_bits(cell[j], w))
            else:
                entries.append("0" * w)
    g_image = SigmaCover(tuple(entries))

    transfer = _first_violation(len(c), lambda n: f_image[n] in S.cells[n] and not any(
        y.startswith(entries[k]) for k in range(*part.blocks[n])))
    return f_image, g_image, transfer


def l25_maps(b, g, y, X: SigmaCover):
    """Products of finite sets vs sigma-covers.

    Encoder: concatenate fixed-width (ceil log2 b(n)) binaries of y(n).
    Decoder: entry k in the |J_n| = g(n) block contributes the value its bits
    spell at the n-th width window, when defined and in range.
    """
    _pair("bg", b, g, y)
    widths = [_ceil_log2(bn) for bn in b]
    bitpart = build_partition(widths)
    if any(not 0 <= y[n] < b[n] for n in range(len(b))):
        raise ValueError("y leaves its product space")
    f_image = "".join(_fixed_width_bits(y[n], widths[n]) for n in range(len(b)))

    jpart = build_partition(g)
    profile = fbg_profile(b, g, jpart.total())
    if len(X.entries) > jpart.total():
        raise ValueError("cover longer than the index window")
    for k, entry in enumerate(X.entries):
        if len(entry) < profile[k]:
            raise ValueError(f"entry {k} shorter than the required height {profile[k]}")

    cells = []
    for n in range(len(b)):
        s, e = jpart.blocks[n]
        bs, be = bitpart.blocks[n]
        got = set()
        for k in range(s, min(e, len(X.entries))):
            entry = X.entries[k]
            if len(entry) >= be:
                v = int(entry[bs:be], 2) if be > bs else 0
                if v < b[n]:
                    got.add(v)
        cells.append(frozenset(got))
    g_image = Slalom(tuple(b), tuple(g), tuple(cells))

    transfer = _first_violation(len(X.entries), lambda k: f_image.startswith(
        X.entries[k]) and y[jpart.block_of(k)] not in cells[jpart.block_of(k)])
    return f_image, g_image, transfer


def l26_maps(c, h, hprime, S: Slalom, phi):
    """Slaloms vs slaloms-of-cells.

    phi(i) is a family of at most hprime(i) nonempty <=h(i)-cells; its union
    misses some point of the arena because h(i)*hprime(i) < c(i).
    """
    _one_per_index(c, h, hprime, S.cells, phi)
    for i in range(len(c)):
        if h[i] < 1:
            raise ValueError("need h >= 1")
        if h[i] * hprime[i] >= c[i]:
            raise ValueError(f"h*h' >= c at index {i}")
        if len(phi[i]) > hprime[i]:
            raise ValueError(f"phi({i}) too wide")
        for cell in phi[i]:
            if not cell or len(cell) > h[i] or any(v < 0 or v >= c[i] for v in cell):
                raise ValueError(f"phi({i}) holds an invalid cell")
    f_image = tuple(frozenset(S.cells[i]) if S.cells[i] else frozenset({0})
                    for i in range(len(c)))
    g_image = tuple(min(set(range(c[i])) - set().union(*phi[i], set()))
                    for i in range(len(c)))
    transfer = _first_violation(len(c), lambda i: f_image[i] in {
        frozenset(cell) for cell in phi[i]} and g_image[i] in S.cells[i])
    return f_image, g_image, transfer


def l27_maps(c, h, S_cells, y):
    """Nonempty cells vs avoiding points.

    The decoder materializes, per index, every nonempty <=h(i)-cell missing
    y(i); feasible only for small arenas.
    """
    _one_per_index(c, h, S_cells, y)
    for i in range(len(c)):
        if c[i] < 2 or h[i] < 1:
            raise ValueError("need c >= 2 and h >= 1")
        if c[i] > 12:
            raise ValueError("arena too large to materialize the cell family")
        if not S_cells[i] or len(S_cells[i]) > h[i]:
            raise ValueError(f"S({i}) must be a nonempty cell of size <= h")
    f_image = Slalom.of(c, h, S_cells)
    g_image = []
    for i in range(len(c)):
        rest = [v for v in range(c[i]) if v != y[i]]
        fam = set()
        for k in range(1, h[i] + 1):
            fam.update(frozenset(cmb) for cmb in itertools.combinations(rest, k))
        g_image.append(frozenset(fam))
    transfer = _first_violation(len(c), lambda i: y[i] not in S_cells[i]
                                and frozenset(S_cells[i]) not in g_image[i])
    return f_image, tuple(g_image), transfer


def ed_blocks(c: int, h: int) -> list[tuple[int, int]]:
    """Consecutive blocks of size max(h,1) covering range(c)."""
    hp = max(h, 1)
    return [(j * hp, min((j + 1) * hp, c)) for j in range((c + hp - 1) // hp)]


def ed_maps(c, h, x, y):
    """Block-evasion maps: the arena is cut into ceil(c/h') consecutive
    blocks; guessing a block vs avoiding a point."""
    _one_per_index(c, h, x, y)
    f_cells = []
    g_image = []
    for i in range(len(c)):
        blocks = ed_blocks(c[i], h[i])
        if not 0 <= x[i] < len(blocks):
            raise ValueError(f"block index out of range at {i}")
        s, e = blocks[x[i]]
        f_cells.append(frozenset(range(s, e)))
        if not 0 <= y[i] < c[i]:
            raise ValueError(f"y out of range at {i}")
        g_image.append(y[i] // max(h[i], 1))
    f_image = Slalom(tuple(c), tuple(max(h[i], 1) for i in range(len(c))),
                     tuple(f_cells))
    transfer = _first_violation(len(c), lambda i: y[i] not in f_cells[i]
                                and g_image[i] == x[i])
    return f_image, tuple(g_image), transfer


def escape_measure(S: Slalom, window: tuple[int, int]) -> Fraction:
    """Product measure of "no index in the window lands in its cell"."""
    from fractions import Fraction
    m, n = window
    if not 0 <= m <= n <= len(S.c):
        raise ValueError(f"window {window} needs 0 <= m <= n <= {len(S.c)}")
    out = Fraction(1)
    for i in range(m, n):
        if S.c[i] < 1:
            raise ValueError("arena must be positive")
        out *= 1 - Fraction(len(S.cells[i]), S.c[i])
    return out
