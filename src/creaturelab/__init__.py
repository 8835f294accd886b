"""Finite combinatorics of creature forcing: norms, truncated conditions,
products, cardinal-characteristic systems, and explicit parameter families.

Each public name is imported from its submodule on first use.
"""

import importlib

_EXPORTS = {
    "numeric": """Cmp DEFAULT_PRECISION LogTower TowerDomainError subset_count
        tower tower_add tower_cmp tower_div tower_eval tower_exp2 tower_le
        tower_log2 tower_mul tower_pow tower_sub""",
    "creatures": """Creature bigness_refine full_creature lognorm_cmp
        lognorm_value_cmp norm range_refine""",
    "relational": """FinRelSystem TukeyPair brute_characteristics check_tukey
        dual leq_card""",
    "connections": """IntervalPartition SigmaCover Slalom build_partition ed_blocks
        ed_maps escape_measure fbg_profile gch_profile l24_maps l25_maps
        l26_maps l27_maps""",
    "conditions": """NameOracle ParamTriple PreconditionError TruncCondition
        and_restrict branch_slalom branches catch_real check_reading early_read
        fuse localize order_check poss_count possibilities thin validate""",
    "products": """CoordinateSpace ProductCondition ProductNameOracle RestrictedName
        bounding_extract branch_key modest_refine product_catch product_check_reading
        product_early_read restricted_localize schedule_plan""",
    "family": """BoundingSequences FamilyTuple TreeFamily build_single build_tree
        certificate_summary toy_family verify_suitable""",
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_OWNER])

__version__ = "0.1.0"


def __getattr__(name):
    """PEP 562: import a submodule, or the submodule owning ``name``."""
    if name not in _EXPORTS and name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{_OWNER.get(name, name)}")
    if name in _OWNER:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
