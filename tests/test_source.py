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
