import hashlib
import importlib
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from creaturelab import cli, toys
from creaturelab.cli import main
from creaturelab.conditions import branches

import toy_instances


def run(tmp_path, sub, payload, *flags):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(payload))
    code = main([sub, "--input", str(inp), "--output", str(out), *flags])
    body = out.read_text() if out.exists() else ""
    return code, body


_CREATURE = {"arena": 4, "cap": 2, "members": [[0, 1], [2, 3]]}


def test_norm_roundtrip(tmp_path):
    payload = {"creature": _CREATURE}
    code, body = run(tmp_path, "norm", payload)
    assert code == 0
    assert json.loads(body) == {"norm": 1}


def test_output_is_deterministic(tmp_path):
    payload = {"R": {"x_size": 3, "y_size": 3,
                     "rel": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}
    a = run(tmp_path, "brute", payload)
    b = run(tmp_path, "brute", payload)
    assert a == b
    assert json.loads(a[1]) == {"b": 2, "d": 3}


def test_schedule_frozen(tmp_path):
    code, body = run(tmp_path, "schedule", {"n": 3})
    assert code == 0
    assert json.loads(body)["m"] == [0, 3, 8, 15]


def test_malformed_input_exits_2(tmp_path):
    inp = tmp_path / "in.json"
    inp.write_text("{not json")
    assert main(["norm", "--input", str(inp)]) == 2


def test_missing_field_exits_2(tmp_path):
    code, _ = run(tmp_path, "norm", {"wrong": 1})
    assert code == 2


def test_tukey_counterexample_exits_1(tmp_path):
    payload = {"R": {"x_size": 3, "y_size": 3,
                     "rel": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
               "Rp": {"x_size": 3, "y_size": 3,
                      "rel": [[1, 0, 0], [0, 1, 0], [1, 0, 0]]},
               "F": [0, 1, 2], "G": [0, 1, 2]}
    code, body = run(tmp_path, "tukey", payload)
    assert code == 1
    report = json.loads(body)
    assert report["result"] == "counterexample"
    assert "x" in report and "yp" in report


def test_measure_exact_rational(tmp_path):
    payload = {"slalom": {"c": [4, 4, 4], "h": [1, 1, 1],
                          "cells": [[0], [1], [2]]},
               "window": [0, 3]}
    code, body = run(tmp_path, "measure", payload)
    assert code == 0
    assert json.loads(body) == {"measure": "27/64"}


def test_suite_requires_seed(tmp_path):
    code, _ = run(tmp_path, "suite", {}, "--mode", "norm")
    assert code == 2


def test_suite_report_schema(tmp_path):
    code, body = run(tmp_path, "suite", {}, "--mode", "norm",
                     "--seed", "5", "--cap", "10")
    assert code == 0
    report = json.loads(body)
    assert report == {"suite": "norm", "instances": 10, "failures": []}


def _wrong(*args):
    raise ArithmeticError("wrong on purpose")


def _flipped(norm):
    return lambda M: 0 if norm(M) >= 1 else 1


# per suite: the library call made wrong (module, name, replacement given
# the original) and the witness keys each failure then carries
@pytest.mark.parametrize("mode, module, name, wrong, witness", [
    ("norm", "creatures", "norm", _flipped, {"creature"}),
    ("bigness", "creatures", "bigness_refine", lambda f: lambda M, col, d: (-1, M),
     {"creature", "d"}),
    ("reading", "conditions", "check_reading", lambda f: lambda *a: False, {"condition"}),
    ("reading", "conditions", "early_read", lambda f: _wrong, {"error"}),
    ("localize", "conditions", "localize", lambda f: _wrong, {"error"}),
    ("tukey", "relational", "check_tukey", lambda f: lambda *a: "fail", {"R"}),
    ("tukey", "relational", "leq_card", lambda f: lambda *a: False, {"b", "d", "bp", "dp"}),
    ("product-catch", "products", "product_catch", lambda f: lambda *a: None,
     {"condition"}),
    ("restricted", "products", "restricted_localize", lambda f: _wrong, {"error"}),
    ("measure", "connections", "escape_measure", lambda f: lambda *a: -1, {"slalom"}),
], ids=["norm", "bigness", "reading-false", "reading-raises", "localize", "tukey-map",
        "tukey-cardinals", "product-catch", "restricted", "measure"])
def test_suite_with_a_wrong_library_call_exits_1_with_its_witness(
        tmp_path, monkeypatch, mode, module, name, wrong, witness):
    mod = importlib.import_module(f"creaturelab.{module}")
    monkeypatch.setattr(mod, name, wrong(getattr(mod, name)))
    code, body = run(tmp_path, "suite", {}, "--mode", mode, "--seed", "5", "--cap", "3")
    assert code == 1
    failures = json.loads(body)["failures"]
    assert [f["instance"] for f in failures] == [0, 1, 2]
    assert all(set(f) == {"instance", *witness} for f in failures)
    if witness == {"error"}:
        assert all(f["error"] == "wrong on purpose" for f in failures)


def test_family_verify_exits_0_on_full_pass(tmp_path):
    code, body = run(tmp_path, "family", {"d0": 3, "depth": 2},
                     "--mode", "verify")
    assert code == 0
    summary = json.loads(body)["summary"]
    assert summary["fail"] == 0 and summary["unknown"] == 0


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


_COND = {"c": [3, 3, 3], "h": [2, 2, 2], "d": [2, 2, 2],
         "cells": [[[0, 1], [1, 2], [0, 2]]] * 3}


def test_thin_with_short_gbound_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "thin", {"condition": _COND, "gbound": [5]})
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "gbound" in err and "level 2" in err


def test_catch_with_short_x_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "catch", {"condition": _COND, "x": []})
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "x has no entry for level 0" in err


@pytest.mark.parametrize("name, field, level", [
    ("catch", "n0", -2), ("product-catch", "n0", -1), ("localize", "k0", -1),
], ids=["catch", "product-catch", "localize"])
def test_negative_start_level_exits_2(tmp_path, capsys, name, field, level):
    code, body = run(tmp_path, name, dict(_INPUTS[name], **{field: level}))
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and f"start level {field} = {level}" in err


def test_poss_with_negative_level_exits_2(tmp_path, capsys):
    code, body = run(tmp_path, "poss", {"condition": _COND, "k": -5})
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and "k = -5" in err


def test_lognorm_with_float_d_exits_2(tmp_path, capsys):
    payload = {"creature": {"arena": 4, "cap": 2, "members": [[0, 1], [2, 3]]},
               "d": 3.0, "t": "1/2"}
    code, body = run(tmp_path, "lognorm", payload)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and "integer" in err


def test_bigness_of_one_class_past_the_arena_limit_exits_2(tmp_path, capsys):
    payload = {"creature": {"arena": 21, "cap": 2, "members": [[0, 1], [2, 3]]},
               "colors": [0, 0], "d": 2}
    code, body = run(tmp_path, "bigness", payload)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert err == "error: ValueError: arena 21 exceeds the exhaustive-cost limit\n"


def test_thin_with_float_d_exits_2(tmp_path, capsys):
    cond = dict(_COND, d=[2, 3.0, 2])
    code, body = run(tmp_path, "thin", {"condition": cond, "gbound": [5] * 3})
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and "integer" in err


@pytest.mark.parametrize("sub, payload", [
    ("gch", {"c": [4, 4, 8, 8], "h": [1, 1], "horizon": 2}),
    ("fbg", {"b": [4, 4, 8], "g": [1], "horizon": 1}),
], ids=["gch", "fbg"])
def test_profile_of_lists_of_different_lengths_exits_2(tmp_path, capsys, sub,
                                                       payload):
    code, body = run(tmp_path, sub, payload)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and "differ in length" in err


@pytest.mark.parametrize("sub, text, literal", [
    ("gch", '{"c": [4.5, 4], "h": [1, 1], "horizon": 2}', "4.5"),
    ("gch", '{"c": [4, 4], "h": [1, 1], "horizon": 2e0}', "2e0"),
    ("gch", '{"c": [4, NaN], "h": [1, 1], "horizon": 2}', "NaN"),
    ("partition", '{"lengths": [1, -Infinity]}', "-Infinity"),
    ("lognorm", '{"creature": {"arena": 4, "cap": 2, "members": [[0, 1]]}, '
                '"d": 2, "t": 0.5}', "0.5"),
], ids=["fraction", "exponent", "nan", "infinity", "lognorm-t"])
def test_non_integral_json_number_exits_2(tmp_path, capsys, sub, text, literal):
    inp = tmp_path / "in.json"
    inp.write_text(text)
    assert main([sub, "--input", str(inp)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"{literal} in the JSON input is not an integer" in err


@pytest.mark.parametrize("name", ["check-reading-early", "early-read", "localize",
                                  "product-early-read", "bound", "product-catch",
                                  "restricted-localize"])
def test_condition_outside_its_oracle_base_exits_2(tmp_path, capsys,
                                                   monkeypatch, name):
    """The CLI builds each oracle over its input condition, so the oracle
    here is moved onto a base whose first split cell keeps one member."""
    oracle_over = cli._oracle

    def narrowed(p, oracle):
        nu = oracle_over(p, oracle)
        base = p.to_json()
        cells = [cell for part in base.get("parts", {"": base}).values()
                 for cell in part["cells"]]
        del next(cell for cell in cells if len(cell) > 1)[1:]
        return type(nu)(cli._condition(base), nu.profile, nu.eval)
    monkeypatch.setattr(cli, "_oracle", narrowed)
    code, body = run(tmp_path, _subcommand(name), _INPUTS[name])
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and "extension of the oracle base" in err


@pytest.mark.parametrize("sub", ["modest", "product-catch", "restricted-localize"])
def test_product_subcommand_given_a_single_condition_exits_2(tmp_path, capsys, sub):
    code, body = run(tmp_path, sub, dict(_INPUTS[sub], condition=_COND))
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err
    assert "the field condition must be a product, with parts" in err


@pytest.mark.parametrize("sub", ["fuse", "product-fuse"])
def test_fuse_of_a_product_link_without_its_frozen_set_exits_2(tmp_path, capsys, sub):
    first, second, _ = _INPUTS["fuse-product"]["chain"]
    code, body = run(tmp_path, sub, {"chain": [first, second["condition"]]})
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err
    assert "ValueError: chain link 1 is not a condition or a (product, F) pair" in err


def test_product_fuse_of_links_whose_space_gains_a_coordinate(tmp_path):
    # link 0's space has only x; link 1's adds y, which the fusion keeps
    first, second, _ = _INPUTS["fuse-product"]["chain"]
    link0 = json.loads(json.dumps(first))
    link0["condition"]["coords"] = {"x": {"owner": "A"}}
    link0["condition"]["families"] = {"A": first["condition"]["families"]["A"]}
    code, body = run(tmp_path, "product-fuse", {"chain": [link0, second]})
    assert code == 0
    assert json.loads(body) == {"condition": second["condition"]}


def test_exact_family_count_past_the_bit_budget_exits_2(tmp_path, capsys):
    # the level-1 exact count would sum 257 binomials of a 131,077-bit c;
    # the exact mode is gone, so the request is refused as an unknown field
    payload = {"n0_minus": 3, "d0": 4, "depth": 1, "count_mode": "exact"}
    start = time.perf_counter()
    code, body = run(tmp_path, "family", payload, "--mode", "build")
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2 and body == "" and elapsed < 1.0
    assert "Traceback" not in err and "unknown field 'count_mode'" in err


def test_unknown_family_count_mode_exits_2(tmp_path, capsys):
    # the family counts by power bound only: an exact count passes the bit
    # budget at level 0 of every single tuple, so the field is gone
    payload = {"n0_minus": 3, "d0": 4, "depth": 1, "count_mode": "power-bound"}
    for mode, extra in (("build", {}), ("verify", {"kind": "single"})):
        code, body = run(tmp_path, "family", dict(payload, **extra), "--mode", mode)
        err = capsys.readouterr().err
        assert code == 2 and body == ""
        assert "Traceback" not in err and "unknown field 'count_mode'" in err


@pytest.mark.parametrize("mode, payload, message", [
    ("verify", {"depth": "2"}, "the field depth must be an integer, got '2'"),
    ("build", {"n0_minus": 3, "d0": 4, "depth": False},
     "the field depth must be an integer, got False"),
    ("build", {"n0_minus": "3", "d0": 4}, "the field n0_minus must be an integer"),
    ("build", {"n0_minus": 3, "d0": True}, "the field d0 must be an integer"),
    ("tree", {"d0": [3]}, "the field d0 must be an integer"),
    ("tree", {"d0": 3, "depth": 2, "cap": True}, "--cap must be an integer >= 1"),
    ("verify", {"kind": "single", "n0_minus": 3, "d0": 4, "cap": "9"},
     "--cap must be an integer >= 1"),
    ("build", {"n0_minus": 3, "d0": 4, "depth": 0}, "depth must be positive"),
    ("verify", {"kind": "single", "n0_minus": 3, "d0": 4, "depth": -1},
     "depth must be positive"),
], ids=["depth-string", "depth-false", "n0_minus-string", "d0-true", "d0-list",
        "cap-true", "cap-string", "single-depth-0", "single-depth-negative"])
def test_family_integer_field_of_a_wrong_type_or_range_exits_2(tmp_path, capsys, mode,
                                                              payload, message):
    code, body = run(tmp_path, "family", payload, "--mode", mode)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and message in err


@pytest.mark.parametrize("payload, message", [
    ({"d0": 3, "depth": 1, "corrupt": {"node": "0", "field": "zzz", "value": 5}},
     "corrupt field 'zzz' is not a node field"),
    ({"d0": 3, "depth": 1, "corrupt": {"node": "zz", "field": "a", "value": 5}},
     "corrupt node 'zz' is not a node of the tree"),
    ({"kind": "single", "n0_minus": 3, "d0": 4, "depth": 1,
      "corrupt": {"field": "zzz", "k": 0, "value": 5}},
     "corrupt field 'zzz' is not a chain field"),
    ({"kind": "single", "n0_minus": 3, "d0": 4, "depth": 1,
      "corrupt": {"field": "a", "k": 5, "value": 5}},
     "corrupt k = 5 is out of range"),
], ids=["tree-field", "tree-node", "chain-field", "chain-k"])
def test_family_verify_corrupt_naming_no_value_exits_2(tmp_path, capsys, payload, message):
    code, body = run(tmp_path, "family", payload, "--mode", "verify")
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and message in err


@pytest.mark.parametrize("payload, message", [
    ({"d0": 3, "depth": 1, "corrupt": {"node": "0", "value": 5}},
     "missing field 'corrupt.field'"),
    ({"d0": 3, "depth": 1, "corrupt": [1]}, "the field corrupt must be an object, got [1]"),
    ({"kind": "single", "n0_minus": 3, "d0": 4, "depth": 1,
      "corrupt": {"field": "a", "k": "0", "value": 5}},
     "the field corrupt.k must be an integer, got '0'"),
    ({"d0": 3, "depth": 1, "corrupt": {"node": "0", "field": "a", "value": "5"}},
     "the field corrupt.value must be an integer, got '5'"),
], ids=["no-field", "a-list", "k-string", "value-string"])
def test_family_verify_malformed_corrupt_exits_2_naming_it(tmp_path, capsys, payload,
                                                          message):
    code, body = run(tmp_path, "family", payload, "--mode", "verify")
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert err == f"error: ValueError: {message}\n"


@pytest.mark.parametrize("payload, message", [
    ({"creature": _CREATURE, "bogus": 1}, "unknown field 'bogus'"),
    ({}, "missing field 'creature'"),
], ids=["unknown", "missing"])
def test_unknown_or_missing_field_exits_2(tmp_path, capsys, payload, message):
    code, body = run(tmp_path, "norm", payload)
    assert code == 2 and body == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("sub, payload, flags", [
    ("suite", {}, ["--mode", "norm", "--seed", "1"]),
    ("family", {"d0": 3, "depth": 2}, ["--mode", "tree"]),
], ids=["suite", "family"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cap_below_one_exits_2(tmp_path, capsys, sub, payload, flags, cap):
    code, body = run(tmp_path, sub, payload, *flags, "--cap", cap)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and "--cap" in err


def test_flag_beats_the_json_field(tmp_path):
    toy = run(tmp_path, "family", {"seed": 4}, "--mode", "toy")
    assert run(tmp_path, "family", {"seed": 3}, "--mode", "toy", "--seed", "4") == toy
    assert run(tmp_path, "family", {"seed": 3}, "--mode", "toy") != toy
    reading = _INPUTS["check-reading-timely"]
    assert run(tmp_path, "check-reading", dict(reading, mode="nonsense"),
               "--mode", "timely") == run(tmp_path, "check-reading", reading)


def test_short_cells_list_exits_2(tmp_path, capsys):
    cond = dict(_COND, cells=_COND["cells"][:2])
    code, body = run(tmp_path, "poss", {"condition": cond, "k": 0})
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and "one creature per level" in err


# SHA-256 of the CLI output and the exit code, pinned before the
# exact-arithmetic fast paths (power-of-two powers by shift, log2 quotients
# from the top bits) landed
_GOLDEN = [
    ("family", {"n0_minus": 3, "d0": 4}, ["--mode", "build"], 0,
     "557ae847c1c6d73802b8f395cc4cfbe45cbeba475715526fc7452801ab33a70c"),
    ("family", {"n0_minus": 3, "d0": 5}, ["--mode", "build"], 0,
     "36fdd1e47e208471b704e56f632515d11c378c811a5d6dea9ac82971ac6e7095"),
    ("family", {"d0": 3, "depth": 2}, ["--mode", "tree"], 0,
     "895ed4a9c928c4ae7bebffe622d9cea274afe578d8012533755b6c0c98019323"),
    ("family", {"d0": 3, "depth": 3}, ["--mode", "tree", "--cap", "32"], 0,
     "c4dde07d77709ffe2dbda7cab1a2863b6615453b52bfcc1dcdbf6e4a34e64229"),
    ("family", {"d0": 3, "depth": 2}, ["--mode", "verify"], 0,
     "1ed1f4a89d344cbd1031bc35310a0e4d6bd574bd991346ca6c22adcd44091862"),
    ("suite", {}, ["--mode", "norm", "--seed", "7", "--cap", "200"], 0,
     "942a066f86806af78bd4a5be6258712aeb9c9c8685d6a67ea39d185b2929f3b7"),
    # pinned before single conditions and products shared one branch engine
    ("suite", {}, ["--mode", "reading", "--seed", "3", "--cap", "30"], 0,
     "23f7293fb33ec363c7490325cb9a2c4be1f233cf3699cbb84e7144c09ea5a531"),
    ("suite", {}, ["--mode", "localize", "--seed", "4", "--cap", "30"], 0,
     "b0f262b69b6db75ff67ba8e2304dae970530e5789f45313834fd671a6c80c48b"),
    ("suite", {}, ["--mode", "product-catch", "--seed", "5", "--cap", "30"], 0,
     "bad3dba191020d5faedf700e82a3990c12a86363957517eeee6bd0dbad36c670"),
    ("suite", {}, ["--mode", "restricted", "--seed", "6", "--cap", "30"], 0,
     "08b3e5836b85cc616aab2d6627e59be0d7c00aaf89a00e307a6009df7ef40288"),
    # pinned before the family's exact/tower wrappers moved into numeric:
    # the toy and single-tuple families, corrupted families, three suites
    ("family", {"seed": 3, "horizon": 4}, ["--mode", "toy"], 0,
     "acf9ed4d6b52720786d7020afbed6d3cc30188811cd684a8197cc9c9d6c28521"),
    ("family", {"kind": "single", "n0_minus": 3, "d0": 7}, ["--mode", "verify"],
     1, "feb5b143f53d3b50096c157a11a8c359523dfa8307a235c2706c433b05f8b06b"),
    ("family", {"kind": "single", "n0_minus": 3, "d0": 4}, ["--mode", "verify"],
     1, "7b59ea05bfd66f205f39ba1c345a15061d6a7ed8329296e300c5ee6fa1d9d047"),
    ("family", {"kind": "single", "n0_minus": 3, "d0": 7,
                "corrupt": {"field": "h", "k": 0, "value": 5}},
     ["--mode", "verify"], 1,
     "98e10b9615177ca714c557ee207e0175d6acf84ca4651cca265db5157e678801"),
    ("family", {"d0": 3, "depth": 2,
                "corrupt": {"node": "01", "field": "a", "value": 7}},
     ["--mode", "verify"], 1,
     "8056dac7011acc028cbbd5b6a179d72edec7f75dd206553a9b87fe4bd1b81885"),
    # pinned before the chain and tree certificates shared their S1-S4 and
    # bounding clauses: a chain with a corrupted at k = 0, a depth-3 chain,
    # the depth-3 tree, and a tree with d corrupted at node 10
    ("family", {"kind": "single", "n0_minus": 3, "d0": 4,
                "corrupt": {"field": "a", "k": 0, "value": 5}},
     ["--mode", "verify"], 1,
     "1ed8cb44116de49afee56d537b412ceea0e3791c200d35df31b03e30eb8373c2"),
    ("family", {"kind": "single", "n0_minus": 3, "d0": 4, "depth": 3},
     ["--mode", "verify"], 1,
     "6bf313a9ae9980c493c22473e83658c37466a7ff6c1594069748a19c6d2fc826"),
    ("family", {"d0": 3, "depth": 3}, ["--mode", "verify", "--cap", "32"], 0,
     "0138efe107c0c957855db90469ff737db4c03ea5b7cc4bc0151c007ddb7b7663"),
    ("family", {"d0": 3, "depth": 2,
                "corrupt": {"node": "10", "field": "d", "value": 5}},
     ["--mode", "verify"], 1,
     "cf03b5dd3482528fcc446a38cb6363d0e7a90d4df500c0472eda72328662f660"),
    ("suite", {}, ["--mode", "bigness", "--seed", "8", "--cap", "30"], 0,
     "29a25731a9fe6898779eff4e0b5bdef7232f6b58bf3132ffe425f2e44b9ab10c"),
    ("suite", {}, ["--mode", "tukey", "--seed", "9", "--cap", "30"], 0,
     "3de287e80bb79dbf033f48cfb03269b141440b2f8d8905a4e94df0ba5b255b81"),
    ("suite", {}, ["--mode", "measure", "--seed", "10", "--cap", "30"], 0,
     "de243ae6aa69b2465d45d927547d380f0de0dce8ad84a59949aa526f898b81db"),
]

# one fixed input per other subcommand (tests/golden_inputs.json, keyed by
# subcommand; check-reading has a timely and an early input, maps one input
# per mode, named "maps-<mode>", and a subcommand that takes a condition or
# a product has its product input under the name "<subcommand>-product")
_INPUTS = json.loads((Path(__file__).parent / "golden_inputs.json").read_text())


def _subcommand(name):
    name = name.removesuffix("-product")
    return ("maps" if name.startswith("maps-") else
            name.removesuffix("-timely").removesuffix("-early"))


_SLALOM = {"c": [4, 4, 4], "h": [1, 1, 1], "cells": [[0], [1], [2]]}


def test_table_key_outside_the_base_exits_2(tmp_path, capsys):
    payload = json.loads(json.dumps(_INPUTS["check-reading-timely"]))
    payload["oracle"]["table"]["9,0,0"] = [0, 0, 0]
    code, body = run(tmp_path, "check-reading", payload)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and "table key '9,0,0' is not a branch key" in err


@pytest.mark.parametrize("sub, payload, flags, message", [
    ("family", {"seed": True, "horizon": True}, ["--mode", "toy"],
     "the field seed must be an integer, got True"),
    ("family", {"seed": 3, "horizon": "4"}, ["--mode", "toy"],
     "the field horizon must be an integer, got '4'"),
    ("poss", {"condition": _COND, "k": "1"}, [], "the field k must be an integer, got '1'"),
], ids=["toy-booleans", "toy-horizon-string", "poss-k-string"])
def test_field_of_a_wrong_type_exits_2(tmp_path, capsys, sub, payload, flags, message):
    code, body = run(tmp_path, sub, payload, *flags)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and message in err


@pytest.mark.parametrize("sub, payload, flags, message", [
    ("catch", dict(_INPUTS["catch"], n0=True), [], "the field n0 must be an integer, got True"),
    ("schedule", {"n": True}, [], "the field n must be an integer, got True"),
    ("schedule", {"n": "3"}, [], "the field n must be an integer, got '3'"),
    ("gch", dict(_INPUTS["gch"], horizon=True), [],
     "the field horizon must be an integer, got True"),
], ids=["catch-n0-true", "schedule-n-true", "schedule-n-string", "gch-horizon-true"])
def test_integer_field_of_another_type_exits_2(tmp_path, capsys, sub, payload, flags,
                                               message):
    code, body = run(tmp_path, sub, payload, *flags)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and message in err


_PRODUCT = _INPUTS["poss-product"]["condition"]
_PRODUCT_FAMILY_H_TRUE = dict(_INPUTS["poss-product"], condition=dict(
    _PRODUCT, families=dict(_PRODUCT["families"], A=dict(_PRODUCT["families"]["A"],
                                                         h=[True, 2, 1]))))


def _product_with(field, **entries):
    """The poss-product input with entries of the product's field replaced."""
    return dict(_INPUTS["poss-product"], condition=dict(
        _PRODUCT, **{field: dict(_PRODUCT[field], **entries)}))


@pytest.mark.parametrize("sub, payload, message", [
    ("order", dict(_INPUTS["order"], mode={"at_n": "1"}),
     "the field mode.at_n must be an integer, got '1'"),
    ("order", dict(_INPUTS["order"], mode={"at": 1}),
     "unknown field 'mode.at', missing field 'mode.at_n'"),
    ("order", dict(_INPUTS["order"], mode={"at_n": True}),
     "the field mode.at_n must be an integer, got True"),
    ("fuse", {"chain": [[1]]}, "the field chain[0] must be an object, got [1]"),
    ("and", dict(_INPUTS["and"], eta=5), "the field eta must be a list, got 5"),
    ("poss", dict(_INPUTS["poss"], condition=[1]),
     "the field condition must be an object, got [1]"),
    ("tukey", dict(_INPUTS["tukey"], Rp=3), "the field Rp must be an object, got 3"),
    # a wrong type nested in a condition, a product family or a fuse link
    ("poss", dict(_INPUTS["poss"], condition=dict(_INPUTS["poss"]["condition"], c=5)),
     "the field condition.c must be a list, got 5"),
    ("poss", dict(_INPUTS["poss"], condition=dict(_INPUTS["poss"]["condition"], d=[2, "4"])),
     "the field condition.d[1] must be an integer, got '4'"),
    ("poss", dict(_INPUTS["poss"], condition=dict(_INPUTS["poss"]["condition"], cells=7)),
     "the field condition.cells must be a list, got 7"),
    ("poss", _PRODUCT_FAMILY_H_TRUE,
     "the field condition.families.A.h[0] must be an integer, got True"),
    ("fuse", {"chain": [{"condition": [1], "frozen": []}]},
     "the field chain[0].condition must be an object, got [1]"),
    ("fuse", {"chain": [dict(_INPUTS["product-fuse"]["chain"][0], frozen="xy")]},
     "the field chain[0].frozen must be a list, got 'xy'"),
    # a wrong type nested in a product or an oracle
    ("poss", _product_with("families", A=5),
     "the field condition.families.A must be an object, got 5"),
    ("poss", _product_with("parts", x=7),
     "the field condition.parts.x must be an object, got 7"),
    ("poss", _product_with("coords", x={"owner": [1]}),
     "the field condition.coords.x.owner must be a string, got [1]"),
    ("bound", dict(_INPUTS["bound"], oracle=dict(_INPUTS["bound"]["oracle"], profile=5)),
     "the field oracle.profile must be a list, got 5"),
    # an owner of the right type that names no family
    ("poss", _product_with("coords", x={"owner": "Z"}),
     "owner targets an unknown family: coordinate 'x' is owned by 'Z'"),
    # a string t that is not a rational number
    ("lognorm", dict(_INPUTS["lognorm"], t="1/0"),
     "the field t must be a rational number, got '1/0'"),
    ("lognorm", dict(_INPUTS["lognorm"], t="abc"),
     "the field t must be a rational number, got 'abc'"),
], ids=["order-at_n-string", "order-no-at_n", "order-at_n-true", "fuse-chain-of-lists",
        "and-eta-int", "poss-condition-list", "tukey-Rp-int", "poss-c-int",
        "poss-d-string-item", "poss-cells-int", "product-family-h-bool",
        "fuse-link-condition-list", "fuse-link-frozen-string", "product-family-int",
        "product-part-int", "product-coord-owner-list", "oracle-profile-int",
        "product-coord-owner-unknown", "lognorm-t-zero-denominator", "lognorm-t-no-number"])
def test_field_of_another_shape_exits_2_naming_it(tmp_path, capsys, sub, payload, message):
    code, body = run(tmp_path, sub, payload)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert err == f"error: ValueError: {message}\n"


def test_input_that_is_not_an_object_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[1]"))
    assert main(["norm"]) == 2
    assert capsys.readouterr() == ("", "error: ValueError: the JSON input must be an object\n")


def test_input_nested_past_the_recursion_limit_exits_2(capsys, monkeypatch):
    depth = 100_000
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        '{"creature": ' + "[" * depth + "]" * depth + "}"))
    assert main(["norm"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: RecursionError: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("sub, payload, flags, message", [
    ("maps", _INPUTS["maps-ed"], ["--mode", "zz"],
     "the field mode must be one of l24, l25, l26, l27, ed, got 'zz'"),
    ("family", {}, ["--mode", "zz"],
     "the field mode must be one of build, tree, toy, verify, got 'zz'"),
    ("suite", {}, ["--mode", "zz", "--seed", "1"],
     "the field mode must be one of norm, bigness, reading, localize, tukey, "
     "product-catch, restricted, measure, got 'zz'"),
    ("family", {"kind": "zz", "d0": 3}, ["--mode", "verify"],
     "the field kind must be one of tree, single, got 'zz'"),
], ids=["maps", "family", "suite", "family-kind"])
def test_unknown_mode_exits_2_naming_the_choices(tmp_path, capsys, sub, payload, flags,
                                                 message):
    code, body = run(tmp_path, sub, payload, *flags)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert err == f"error: ValueError: {message}\n"


def test_product_catch_with_a_B_coordinate_outside_the_support_exits_2(tmp_path, capsys):
    payload = dict(_INPUTS["product-catch"], B=["z"])
    code, body = run(tmp_path, "product-catch", payload)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err
    assert "ValueError: the B coordinate 'z' is outside the support" in err


def test_table_value_of_a_list_exits_2(tmp_path, capsys):
    payload = json.loads(json.dumps(_INPUTS["check-reading-timely"]))
    payload["oracle"]["table"]["1,0,0"] = [[1], 0, 0]
    code, body = run(tmp_path, "check-reading", payload)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert err == "error: ValueError: the field oracle.table.1,0,0[0] must be an integer, " \
        "got [1]\n"


def test_table_value_that_is_no_list_exits_2_naming_its_key(tmp_path, capsys):
    payload = json.loads(json.dumps(_INPUTS["check-reading-timely"]))
    key = sorted(payload["oracle"]["table"])[1]
    payload["oracle"]["table"][key] = 5
    code, body = run(tmp_path, "check-reading", payload)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert err == f"error: ValueError: the field oracle.table.{key} must be a list, got 5\n"


@pytest.mark.parametrize("sub, field, cut, message", [
    ("bigness", "colors", -1, "must list one value per member: 10 members, got 9 entries"),
    ("bigness", "colors", 1, "must list one value per member: 10 members, got 11 entries"),
    ("range-refine", "f", -3, "must list one value per member: 10 members, got 7 entries"),
    ("range-refine", "f", 2, "must list one value per member: 10 members, got 12 entries"),
    ("range-refine", "f", None, "must be a list, got 3"),
], ids=["bigness-short", "bigness-long", "range-short", "range-long", "range-int"])
def test_per_member_list_of_another_length_exits_2(tmp_path, capsys, sub, field,
                                                   cut, message):
    values = _INPUTS[sub][field]
    values = 3 if cut is None else values[:cut] if cut < 0 else values + [0] * cut
    code, body = run(tmp_path, sub, dict(_INPUTS[sub], **{field: values}))
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert err == f"error: ValueError: the field {field} {message}\n"


def _walk(value, keys=()):
    """(key chain, value) for every value inside value, parents first."""
    for key, v in value.items() if isinstance(value, dict) else enumerate(value):
        yield keys + (key,), v
        if isinstance(v, (dict, list)):
            yield from _walk(v, keys + (key,))


def _path(keys):
    """A key chain as the CLI names it: .key for an object's key, [i] for an index."""
    return "".join(f"[{k}]" if type(k) is int else f".{k}" for k in keys)[1:]


def _changed(payload, keys, change):
    """A copy of payload with change(parent, key) made at the key chain."""
    payload = json.loads(json.dumps(payload))
    parent = payload
    for key in keys[:-1]:
        parent = parent[key]
    change(parent, keys[-1])
    return payload


def _main_on_stdin(sub, payload):
    """main([sub]) with payload on stdin: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(payload))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([sub])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


# objects that map any names to values: a product's families, coords and
# parts, and an oracle's table; every other nested object has fixed fields
_NAME_MAPS = {"families", "coords", "parts", "table"}


@pytest.mark.parametrize("name", sorted(_INPUTS))
def test_nested_missing_key_or_boolean_integer_exits_2_naming_its_path(name):
    payload, cases = _INPUTS[name], []
    for keys, value in _walk(payload):
        if isinstance(value, dict) and keys[-1] not in _NAME_MAPS:
            for key in value:
                # without parts a product, and without condition a fuse link,
                # is read as a condition: exit 2, but not for a missing key
                kind = key == "parts" or key == "condition" and "frozen" in value
                cases.append((keys + (key,), dict.pop, None if kind else
                              f"missing field '{_path(keys + (key,))}'"))
        # a relation's entries are truth values: 0/1 or false/true
        elif type(value) is int and "rel" not in keys:
            cases.append((keys, lambda parent, key: parent.__setitem__(key, True),
                          f"the field {_path(keys)} must be an integer, got True"))
    assert cases
    for keys, change, message in cases:
        code, _, err = _main_on_stdin(_subcommand(name), _changed(payload, keys, change))
        assert code == 2 and "Traceback" not in err, (keys, err)
        assert message is None or err == f"error: ValueError: {message}\n", (keys, err)


_PRODUCT_AND = _INPUTS["and-product"]


@pytest.mark.parametrize("sub, payload, flags, message", [
    ("and", dict(_INPUTS["and"], eta=_INPUTS["and"]["eta"] + [[0]] * 5), [],
     "eta selects 7 levels"),
    ("and", dict(_PRODUCT_AND, eta=_PRODUCT_AND["eta"] + [[[0]]]), [],
     "eta has 3 entries for the 2 coordinates"),
    ("and", dict(_PRODUCT_AND, eta=_PRODUCT_AND["eta"][:1]), [],
     "eta has 1 entries for the 2 coordinates"),
    ("order", dict(_INPUTS["order"], mode={"at_n": -1}), [], "at_n = -1 is negative"),
    ("measure", {"slalom": _SLALOM, "window": [0, 5]}, [], "window (0, 5)"),
    ("measure", {"slalom": _SLALOM, "window": [-1, 2]}, [], "window (-1, 2)"),
    ("measure", {"slalom": _SLALOM, "window": [2, 1]}, [], "window (2, 1)"),
    ("measure", {"slalom": _SLALOM, "window": [0]}, [],
     "the field window must list two integers, got [0]"),
    ("measure", {"slalom": _SLALOM, "window": [0, 1, 1]}, [],
     "the field window must list two integers, got [0, 1, 1]"),
    ("gch", dict(_INPUTS["gch"], horizon=-1), [], "horizon -1"),
    ("fbg", dict(_INPUTS["fbg"], horizon=-1), [], "horizon -1"),
    ("family", {"seed": 3, "horizon": 0}, ["--mode", "toy"], "toy horizon 0"),
    ("schedule", {"n": -1}, [], "n = -1"),
], ids=["and", "and-product-long", "and-product-short", "order",
        "measure-long", "measure-negative", "measure-reversed", "measure-one",
        "measure-three",
        "gch", "fbg", "toy", "schedule"])
def test_index_or_size_outside_its_range_exits_2(tmp_path, capsys, sub, payload,
                                                 flags, message):
    code, body = run(tmp_path, sub, payload, *flags)
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and message in err


_GOLDEN += [(_subcommand(name), _INPUTS[name], [], 0, digest) for name, digest in [
    ("poss", "9ea57b43ecfa569299d008f9c02d1a8d67c32f598b64d9db1380436856596724"),
    ("catch", "0963e4055fe0b9642570d88164627f64fcef50b43a49da5f6bf46893c7cddc08"),
    ("fuse", "b89b2a5de48027c48c282ee8cad7ea52079e414e57ed40430be39335491ac29c"),
    ("check-reading-timely",
     "e1fe8fa8082fc3a98e6a74823b0b325da62330b125d0ab6ed91162c74d2d6d04"),
    ("check-reading-early",
     "e1fe8fa8082fc3a98e6a74823b0b325da62330b125d0ab6ed91162c74d2d6d04"),
    ("early-read", "7deacdf26182a66fdeb32256bdf3008d4f3e76cee5f112d7927dca0191221d28"),
    ("localize", "cfa474d379a97df04fcedc332640d0c44a85eb4431b85880a2d84aec5d575fcf"),
    ("modest", "b2a7dca2d5d250b1bbe3b67264eea785a8a11a7daec57970212a67bb12b58204"),
    ("product-fuse",
     "d7cca182a16c6fa2b9f4a2319076f3d38554f221eeabd63e20a117e6b7c5c917"),
    ("product-early-read",
     "d7cca182a16c6fa2b9f4a2319076f3d38554f221eeabd63e20a117e6b7c5c917"),
    ("bound", "24910a278e574e3b5ffa9abd70caf53724c95342f2f89ea19440d5b5f38b5bbc"),
    ("product-catch",
     "bcafeee5e067227af95d103abb98d6cb743700c56f0d4f80511d0394ac00c402"),
    ("restricted-localize",
     "f883da26b6d6e7708ab0f560af235084ff5c52817e2b125b4afd9adcc842165c"),
    # pinned before the family's exact/tower wrappers moved into numeric
    ("bigness", "9329d0c49d4d97624b5ed075c0b0dba8efa7e101af3332e60409740249624477"),
    ("range-refine",
     "6aca5fe7f6b4bee9d79cac893e057ac93d15c4ee5f5fb9936b5046d60fada760"),
    ("and", "d773cd7e0e2523833e66110abb7c6bd6d9677c12b523d1962283448aa053be1d"),
    ("order", "9ef687dca570afeec59719040e4eaea1b0e6ea5a03573a5a1e1614c7e77928d9"),
    ("dual", "151ee639b735d5f5263d6f9f8dce8741c03f00195d9fb39279e4e22f1188c128"),
    ("maps-l24", "b8f1a59ad9f745099a6fededcbe5f6c33a2c8c92a1a5e820b28569d0c2651c1e"),
    ("maps-l25", "ec80a016ba5b4602edb9a02e08fbcb3ccd78a0351205d4e8206d5f2c1b5c2e81"),
    ("maps-l26", "ffcafc09fae4306fc2a8d97163f3902f65b30efb5f0211ba4b99b90729fda2b5"),
    ("maps-l27", "5bf814c00631ec59b7c8d4faa3559a864ec777f1118e8ef9b79303570e879e8d"),
    ("maps-ed", "5dfb1bc05f445280ca80b29e08b30d16c1af7a3cbc3eb126b24b74e43c370edd"),
    ("partition", "8979c67ec20e3ff7ab1c934e2c5b4ed565a2dab8b2b410d0e4720354592060be"),
    ("gch", "ad4b1698e29179ee5f82f02f7623d3dc3becec26443052ae9066835f35b478d6"),
    ("fbg", "a09d261fc56f77b444683b339588cce239cb553b931d988deb8fa3be99b5ddd9"),
    # pinned before conditions and products shared one order, restriction
    # and fusion
    ("norm", "03d9914867b069c7f1a7b39ff2eb0b46eb4b839c07b295961ed10602b6656320"),
    ("lognorm", "bbaaadfee06e6d50c50ae3fc8a94979fd2c664ccb13d97911a26f3ce709b079c"),
    ("thin", "a67ae6ba6172ee23bd3cb79b9e047ae7d644c9c6260952c7b05f941c6c436f7d"),
    ("schedule", "4bd747598197ca85f7c137f7a684fd0513126e3aac324a2b2ab30f397de5b5a4"),
    ("tukey", "92bf3b42cf2b0f20e39bc7bbdcae3622a152374fa48f283c154495a6f6868fcb"),
    ("brute", "375706b7d8eaf50697ae4c582eafda6e0d2528d5c0069c49669feb62c967f53f"),
    ("measure", "2a84d6a9ad1631c86283ff0fac83a950827394a81874ecec1d4d6cd28a9fdfad"),
    # products given to the subcommands that take either kind, pinned from
    # direct library calls before the CLI took them
    ("poss-product",
     "c754fa6e7c6a797277c12d3576d51e57654fa7b7c7d3efc3216e51b0449b4ac9"),
    ("and-product",
     "067b92bd617b75630fdee16cfb0867a26b3af0721a621dacf360189d3060d67f"),
    ("order-product",
     "9ef687dca570afeec59719040e4eaea1b0e6ea5a03573a5a1e1614c7e77928d9"),
    ("check-reading-timely-product",
     "e1fe8fa8082fc3a98e6a74823b0b325da62330b125d0ab6ed91162c74d2d6d04"),
    ("check-reading-early-product",
     "e1fe8fa8082fc3a98e6a74823b0b325da62330b125d0ab6ed91162c74d2d6d04"),
    ("fuse-product",
     "b856813706050e56ca08c2a7d21f12145c35d39dde11bf32a044b3c80110eaa2"),
]]


def test_family_and_suite_output_is_byte_identical(tmp_path):
    for sub, payload, flags, expect, digest in _GOLDEN:
        code, body = run(tmp_path, sub, payload, *flags)
        assert code == expect, (sub, payload, flags)
        assert hashlib.sha256(body.encode()).hexdigest() == digest, \
            (sub, payload, flags)


# family calls at the height cap just below and at each depth's tallest
# value (the tree from d0 = 3: heights 3, 11, 27; the chain (3, 9): 2, 4, 6),
# built and verified; pinned while each numeric op still took the cap
_CAP_CASES = [(mode, dict(base, depth=depth, **(extra if mode == "verify" else {})), cap)
              for base, build, extra, tallest in [
                  ({"d0": 3}, "tree", {}, (3, 11, 27)),
                  ({"n0_minus": 3, "d0": 9}, "build", {"kind": "single"}, (2, 4, 6))]
              for depth, top in enumerate(tallest, 1)
              for mode in (build, "verify")
              for cap in (top - 1, top)]


def test_family_height_cap_is_pinned(tmp_path, capsys):
    lines = []
    for mode, payload, cap in _CAP_CASES:
        code, body = run(tmp_path, "family", payload, "--mode", mode, "--cap", str(cap))
        lines.append(f"{code}\n{body}\n{capsys.readouterr().err}")
    assert [line[0] for line in lines] == ["2", "0"] * 6 + ["2", "0", "2", "1"] * 3
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "353b97a5c2c16fb2158564dbc93d98070e39cce25beac29c1f7d99094503c04b"


@pytest.mark.parametrize("mode, payload, stage", [
    ("tree", {"d0": 3, "depth": 3}, 2),
    ("tree", {"d0": 3, "depth": 100}, 2),
    ("build", {"n0_minus": 3, "d0": 4, "depth": 60}, 12),
], ids=["tree-depth-3", "tree-depth-100", "chain-depth-60"])
def test_family_past_the_default_height_cap_exits_2_at_once(tmp_path, capsys, mode,
                                                          payload, stage):
    start = time.perf_counter()
    code, body = run(tmp_path, "family", payload, "--mode", mode)
    elapsed = time.perf_counter() - start
    assert code == 2 and body == "" and elapsed < 1.0
    assert capsys.readouterr().err == \
        f"error: TowerOverflowError: height cap 24 exceeded: stage {stage} reaches " \
        "height 25 (raise the cap field, or --cap)\n"


def test_family_verify_at_depth_3_under_cap_32(tmp_path):
    code, body = run(tmp_path, "family", {"d0": 3, "depth": 3, "cap": 32},
                     "--mode", "verify")
    assert code == 0 and json.loads(body)["summary"]["total"] == 97


def _members(sel):
    return [sorted(m) for m in sel]


def test_toy_instances_are_pinned():
    """The suites report only failures, so pin the toy generators' output
    (and with it their use of the random stream) directly: every instance
    and the oracle's value on every branch, for five seeds."""
    out = []
    for seed in range(5):
        rng = Random(seed)
        p, nu = toys.reading_instance(rng)
        q, mu, a, e = toys.localize_instance(rng)
        r, rho, a2, e2 = toy_instances.antiloc_instance(rng)
        for c, o in ((p, nu), (q, mu), (r, rho)):
            out.append([c.to_json(), [[_members(b), list(o.eval(b))]
                                      for b in branches(c)]])
        out.append([a, e, a2, e2])
        s, sig = toy_instances.product_reading_instance(rng)
        t, tau, B, xi = toys.product_catch_instance(rng)
        u, ups, Cs, a3, e3 = toys.restricted_instance(rng)
        for c, o in ((s, sig), (t, tau), (u, ups)):
            out.append([c.to_json(), [[[_members(sel) for sel in b],
                                       list(o.eval(b))]
                                      for b in branches(c)]])
        out.append([sorted(B), xi, sorted(Cs), a3, e3])
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == \
        "fb62064a6458ce6d783a9ebac93234e59a1e2ab93c0c99b14704f2edb1977aad"


# small JSON to put in place of a value: ints, floats (NaN and infinities
# too), short lists, strings, null
_SMALL = st.one_of(st.none(), st.integers(-3, 12), st.floats(),
                   st.text(max_size=3), st.lists(st.integers(-3, 12), max_size=3))


def _replaced(draw, value):
    """value with one part of it, at any depth, replaced by small JSON."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        at = draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                  else range(len(value))))
        value = dict(value) if isinstance(value, dict) else list(value)
        value[at] = _replaced(draw, value[at])
        return value
    return draw(_SMALL)


def _fields(flags):
    """Command-line flags as the JSON fields they give."""
    return {flag[2:]: value if flag == "--mode" else int(value)
            for flag, value in zip(flags[::2], flags[1::2])}


# the golden inputs, and the family and suite rows of _GOLDEN with their
# flags as fields; a suite of 12 instances takes a few hundredths of a second
_FUZZED = [(_subcommand(name), payload) for name, payload in sorted(_INPUTS.items())]
_FUZZED += [(sub, dict(payload, **_fields(flags)))
            for sub, payload, flags, *_ in _GOLDEN if sub == "family"]
_FUZZED += [(sub, dict(_fields(flags), cap=12))
            for sub, _, flags, *_ in _GOLDEN if sub == "suite"]


def test_every_subcommand_is_fuzzed():
    assert set(cli._OPS) == {sub for sub, _ in _FUZZED}


# per subcommand that can exit 1, the witness its report carries
_WITNESS = {
    "order": lambda r: r["extends"] is False,
    "check-reading": lambda r: r["reads"] is False,
    "tukey": lambda r: r["result"] == "counterexample" and "x" in r and "yp" in r,
    "maps": lambda r: "violation" in r["transfer"],
    "family": lambda r: r["summary"]["fail"] + r["summary"]["unknown"] > 0
    and any(e["status"] != "pass" for e in r["certificate"]),
    "suite": lambda r: len(r["failures"]) > 0,
}


@st.composite
def _mutated_inputs(draw):
    """A golden input with one field dropped, added or replaced."""
    sub, payload = draw(st.sampled_from(_FUZZED))
    payload = dict(payload)
    how = draw(st.sampled_from(["drop", "add", "replace"]))
    if how == "add":
        payload[draw(st.text(max_size=3))] = draw(_SMALL)
    else:
        key = draw(st.sampled_from(sorted(payload)))
        if how == "drop":
            del payload[key]
        else:
            payload[key] = _replaced(draw, payload[key])
    return sub, payload


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_mutated_inputs())
@example(("measure", dict(_INPUTS["measure"], window=[1, 7])))  # past the slalom
def test_mutated_inputs_keep_the_exit_contract(case):
    sub, payload = case
    code, out, err = _main_on_stdin(sub, payload)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
    else:
        report = json.loads(out)
        assert isinstance(report, dict) and out.count("\n") == 1
        if code == 1:
            assert _WITNESS[sub](report), report
