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
