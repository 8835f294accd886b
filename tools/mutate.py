"""Which small edits of a library module does tier-1 fail to notice?

    python3 tools/mutate.py MODULE

MODULE names a module of ``src/creaturelab`` (``conditions``, say).  Each
mutant changes one site of it: a comparison is flipped (``<`` and ``<=``,
``>`` and ``>=``, ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and
``is not`` trade places), ``True`` and ``False`` trade places, an integer
moves by +1 and, separately, by -1, ``and`` and ``or`` trade places, and a
``not`` is dropped.  Only the source text at the site changes, so line
numbers, messages and comments stay as they are.

The checkout, without ``.git`` and test caches, is copied once into a
temporary directory, and each mutant is written only into that copy, so
tier-1 there is the checkout's tier-1.  It runs with ``-x``, the module's
own test file first.  A failing run kills the mutant, and so does a run
past ``TIMEOUT`` seconds, since a mutant that loops forever is caught too.
One JSON line per mutant goes to stdout: the site, the edit, ``killed``,
``timeout`` or ``survived``, the first failing test and the seconds taken.
Takes no options.  Exits 0.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIB = ROOT / "src" / "creaturelab"
TIMEOUT = 120.0

_FLIP = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=",
         ast.NotEq: "==", ast.In: "not in", ast.NotIn: "in", ast.Is: "is not",
         ast.IsNot: "is"}
_OP = re.compile(rb"<=|>=|==|!=|<|>|not\s+in|is\s+not|in|is")


def _offsets(source: bytes) -> list[int]:
    """The byte offset of each line's start, for 1-based line numbers."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def mutants(source: bytes) -> list[dict]:
    """Every mutant of a module's source: its site and one edit, a byte
    range and the text that replaces it."""
    tree = ast.parse(source)
    line = _offsets(source)

    def at(lineno, col):
        return line[lineno] + col

    def start(node):
        return at(node.lineno, node.col_offset)

    def end(node):
        return at(node.end_lineno, node.end_col_offset)

    out = []

    def add(node, edits, what):
        out.append({"line": node.lineno, "col": node.col_offset, "edit": what,
                    "spans": edits})

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                gap = source[end(left):start(right)]
                m = _OP.search(gap)
                old = m.group().decode()
                new = _FLIP[type(op)]
                add(node, [(end(left) + m.start(), end(left) + m.end(), new)],
                    f"{' '.join(old.split())} -> {new}")
                left = right
        elif isinstance(node, ast.BoolOp):
            old, new = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            spans = []
            for a, b in zip(node.values, node.values[1:]):
                gap = source[end(a):start(b)]
                m = re.search(rb"\b" + old.encode() + rb"\b", gap)
                spans.append((end(a) + m.start(), end(a) + m.end(), new))
            add(node, spans, f"{old} -> {new}")
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            keyword = re.match(rb"not\s*", source[start(node):])
            add(node, [(start(node), start(node) + keyword.end(), "")], "drop not")
        elif isinstance(node, ast.Constant) and isinstance(node.value, bool):
            add(node, [(start(node), end(node), str(not node.value))],
                f"{node.value} -> {not node.value}")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                add(node, [(start(node), end(node), str(node.value + step))],
                    f"{node.value} -> {node.value + step}")
    out.sort(key=lambda m: (m["line"], m["col"], m["edit"]))
    return out


def apply(source: bytes, spans) -> bytes:
    for lo, hi, text in sorted(spans, reverse=True):
        source = source[:lo] + text.encode() + source[hi:]
    return source


def _run(copy: Path, tests: list) -> tuple[str, str | None, float]:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *tests],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", None, time.perf_counter() - t0
    finally:
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    seconds = time.perf_counter() - t0
    if proc.returncode == 0:
        return "survived", None, seconds
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return "killed", failed.group(1) if failed else f"exit {proc.returncode}", seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module")
    args = ap.parse_args(argv)
    # a terminated run still removes its copy and stops its test process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    path = LIB / f"{args.module}.py"
    source = path.read_bytes()
    own = f"tests/test_{args.module}.py"
    tests = [own, "tests"] if (ROOT / own).exists() else ["tests"]
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"))
        target = copy / "src" / "creaturelab" / path.name
        lines = source.decode().splitlines()
        for m in mutants(source):
            target.write_bytes(apply(source, m["spans"]))
            status, failed, seconds = _run(copy, tests)
            print(json.dumps({"module": args.module, "line": m["line"], "col": m["col"],
                              "site": lines[m["line"] - 1].strip(), "edit": m["edit"],
                              "status": status, "failed": failed,
                              "seconds": round(seconds, 1)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
