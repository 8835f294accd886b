import ast
from pathlib import Path

import creaturelab


def test_library_has_no_assert_statements():
    """python -O strips assert, so no check in the library may rely on it."""
    found = []
    for path in sorted(Path(creaturelab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_library_modules_use_every_name_they_import():
    """An imported name no code of its module reads is left over, as from a
    merge that moved the code using it."""
    found = []
    for path in sorted(Path(creaturelab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  if (alias.asname or alias.name).split(".")[0] not in used]
    assert found == []


# perfbench/workloads.py calls these three by their product names; they go
# when the benchmark moves to the conditions names
_KEPT_SECOND_NAMES = {"ProductNameOracle", "product_check_reading",
                      "product_early_read"}


def test_library_binds_no_second_names():
    """A module-level ``name = other_name`` gives one function or class a
    second name, which the package table and the docs then carry twice."""
    found = []
    for path in sorted(Path(creaturelab.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(node.value, ast.Name)):
                continue
            targets = map(ast.unparse, getattr(node, "targets", None) or [node.target])
            found += [f"{path.name}:{node.lineno} {t}" for t in targets
                      if t not in _KEPT_SECOND_NAMES]
    assert found == []


def _referenced_names() -> set:
    """Every name a Name, an Attribute or an import uses anywhere in src/
    or perfbench/, plus the names the package table gives as strings."""
    root = Path(__file__).resolve().parent.parent
    names = {n for line in creaturelab._EXPORTS.values() for n in line.split()}
    for path in sorted(p for d in ("src", "perfbench")
                       for p in (root / d).rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_library_defines_nothing_unused():
    """A function, class or method that neither the library nor the
    benchmark names is dead code, though a test may call it: a fixture only
    tests use belongs in tests/.  Dunders and the CLI's @_op handlers, which
    the subcommand table calls, are exempt."""
    used = _referenced_names()
    found = []
    for path in sorted(Path(creaturelab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            op = any(isinstance(d, ast.Call) and ast.unparse(d.func) == "_op"
                     for d in node.decorator_list)
            if not (dunder or op or node.name in used):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []
