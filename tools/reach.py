"""Which library statements does tier-1 never run?

Runs the tier-1 tests (``tests/``) in this process under ``sys.settrace``
and lists every statement of ``src/creaturelab`` that no test runs, the
``raise`` statements first.  A statement counts as run when its first line
runs; one that compiles to no code, such as a function's docstring, is not
counted.  Tests run in a child process (the CLI import checks) count for
nothing.

    python3 tools/reach.py

Takes no options.  Exits 1 if a test fails or a ``raise`` never runs, else
0.  Traced, tier-1 runs two to three times slower.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIB = ROOT / "src" / "creaturelab"


def _code_lines(code) -> set:
    """The lines of a code object, and of the code nested in it, that hold
    an instruction."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path) -> tuple[list, set]:
    """(first line, source line) of each statement that compiles to code,
    and the first lines of its raise statements."""
    text = path.read_text()
    source = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    code = _code_lines(compile(tree, str(path), "exec"))
    stmts = sorted({(node.lineno, source[node.lineno - 1].strip())
                    for node in ast.walk(tree)
                    if isinstance(node, ast.stmt) and node.lineno in code})
    raises = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return stmts, raises


def main() -> int:
    import pytest

    files = {str(p): p for p in sorted(LIB.glob("*.py"))}
    run = {name: set() for name in files}

    def trace(frame, event, arg):
        lines = run.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(LIB.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed_raises, missed_other, n_raises, n_stmts = [], [], 0, 0
    for name, path in files.items():
        stmts, raises = _statements(path)
        n_stmts += len(stmts)
        n_raises += len(raises)
        for line, text in stmts:
            if line not in run[name]:
                entry = f"{path.name}:{line}: {text}"
                (missed_raises if line in raises else missed_other).append(entry)
    print(f"\nraise statements never run: {len(missed_raises)} of {n_raises}")
    print(*missed_raises, sep="\n")
    print(f"\nother statements never run: {len(missed_other)} of {n_stmts - n_raises}")
    print(*missed_other, sep="\n")
    if status != 0:
        print(f"\ntier-1 did not pass (pytest exit {int(status)})")
    return 1 if status != 0 or missed_raises else 0


if __name__ == "__main__":
    sys.exit(main())
