"""What each entry point loads: the package resolves its names on first use,
and a CLI call imports only the layers its subcommand runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import creaturelab

# the package's public names by the submodule that defines them
_EXPORTS = {
    "numeric": """Cmp DEFAULT_PRECISION LogTower TowerDomainError subset_count
        tower tower_add tower_cmp tower_div tower_eval tower_exp2 tower_le
        tower_log2 tower_mul tower_pow tower_sub""",
    "creatures": """Creature bigness_refine full_creature lognorm_cmp
        lognorm_value_cmp norm range_refine""",
    "relational": """FinRelSystem TukeyPair brute_characteristics check_tukey
        dual leq_card""",
    "connections": """IntervalPartition SigmaCover Slalom build_partition
        ed_blocks ed_maps escape_measure fbg_profile gch_profile l24_maps
        l25_maps l26_maps l27_maps""",
    "conditions": """NameOracle ParamTriple PreconditionError TruncCondition
        and_restrict branches catch_real check_reading early_read fuse
        localize order_check poss_count possibilities thin validate""",
    "products": """CoordinateSpace ProductCondition ProductNameOracle
        RestrictedName bounding_extract branch_key modest_refine
        product_catch product_check_reading product_early_read
        restricted_localize schedule_plan""",
    "family": """BoundingSequences FamilyTuple TreeFamily build_single
        build_tree certificate_summary toy_family verify_suitable""",
}
_NAMES = sorted([*_EXPORTS, *(n for names in _EXPORTS.values()
                              for n in names.split())])

_SRC = str(Path(creaturelab.__file__).parent.parent)
_INPUTS = json.loads((Path(__file__).parent / "golden_inputs.json").read_text())
_SYSTEM = {"x_size": 3, "y_size": 3, "rel": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
_SUITE = {"cli", "creatures", "relational", "toys"}
_CONDITIONS = {"conditions", "creatures", "numeric"}

# one small input per kind of call in perfbench's cli workload, and the
# creaturelab submodules loaded after it
_CALLS = [
    (["norm"], {"creature": {"arena": 4, "cap": 2, "members": [[0, 1], [2, 3]]}},
     {"cli", "creatures"}),
    (["bigness"], _INPUTS["bigness"], {"cli", "creatures"}),
    (["tukey"], {"R": _SYSTEM, "Rp": _SYSTEM, "F": [0, 1, 2], "G": [0, 1, 2]},
     {"cli", "relational"}),
    (["brute"], {"R": _SYSTEM}, {"cli", "relational"}),
    (["check-reading"], _INPUTS["check-reading-timely"], {"cli", *_CONDITIONS}),
    (["schedule"], {"n": 3}, {"cli", "products", *_CONDITIONS}),
    (["maps", "--mode", "ed"], _INPUTS["maps-ed"], {"cli", "connections"}),
    (["suite", "--mode", "norm", "--seed", "1", "--cap", "5"], None, _SUITE),
    (["suite", "--mode", "tukey", "--seed", "1", "--cap", "5"], None, _SUITE),
    (["family", "--mode", "verify"], {"d0": 3, "depth": 2},
     {"cli", "family", "numeric"}),
]


def _loaded(code: str) -> set:
    """The creaturelab submodules a fresh interpreter holds after code."""
    probe = code + """
import sys
print(" ".join(m.split(".", 1)[1] for m in sys.modules
               if m.startswith("creaturelab.")))
"""
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=_SRC))
    return set(out.stdout.split())


def test_import_loads_no_submodule():
    assert _loaded("import creaturelab") == set()


def _argv(tmp_path, argv, payload, name="in.json") -> list:
    """argv writing to tmp_path, reading payload (if any) from a file there."""
    argv = [*argv, "--output", str(tmp_path / "out.json")]
    if payload is not None:
        (tmp_path / name).write_text(json.dumps(payload))
        argv += ["--input", str(tmp_path / name)]
    return argv


@pytest.mark.parametrize("argv, payload, expect", _CALLS,
                         ids=[" ".join(c[0][:3:2]) for c in _CALLS])
def test_cli_loads_only_its_layers(tmp_path, argv, payload, expect):
    code = f"""
from creaturelab.cli import main
if main({_argv(tmp_path, argv, payload)!r}) != 0:
    raise SystemExit("the call failed")
"""
    assert _loaded(code) == expect


def test_brute_leaves_fractions_unloaded(tmp_path):
    """brute, and every other call of _CALLS that loads no numeric, runs
    without fractions (nor the decimal and numbers modules it imports)."""
    lean = [(argv, payload) for argv, payload, expect in _CALLS
            if "numeric" not in expect]
    assert len(lean) == 7
    calls = [_argv(tmp_path, argv, payload, f"in{i}.json")
             for i, (argv, payload) in enumerate(lean)]
    probe = f"""
import sys
from creaturelab.cli import main
for argv in {calls!r}:
    print(argv[0], main(argv), *(m in sys.modules for m in ("fractions", "decimal", "numbers")))
"""
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=_SRC))
    assert out.stdout.splitlines() == [f"{argv[0]} 0 False False False" for argv in calls]


def test_namespace_is_pinned():
    assert sorted(creaturelab.__all__) == _NAMES
    assert set(_NAMES) <= set(dir(creaturelab))
    for mod, names in _EXPORTS.items():
        sub = importlib.import_module(f"creaturelab.{mod}")
        assert getattr(creaturelab, mod) is sub
        for name in names.split():
            assert getattr(creaturelab, name) is getattr(sub, name), name
    with pytest.raises(AttributeError):
        creaturelab.no_such_name


def test_star_import_binds_the_public_names():
    ns = {}
    exec("from creaturelab import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == _NAMES
    assert all(ns[name] is getattr(creaturelab, name) for name in ns)
