import hashlib
import json

from creaturelab.cli import main


def run(tmp_path, sub, payload, *flags):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(payload))
    code = main([sub, "--input", str(inp), "--output", str(out), *flags])
    body = out.read_text() if out.exists() else ""
    return code, body


def test_norm_roundtrip(tmp_path):
    payload = {"creature": {"arena": 4, "cap": 2, "members": [[0, 1], [2, 3]]}}
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


def test_thin_with_float_d_exits_2(tmp_path, capsys):
    cond = dict(_COND, d=[2, 3.0, 2])
    code, body = run(tmp_path, "thin", {"condition": cond, "gbound": [5] * 3})
    err = capsys.readouterr().err
    assert code == 2 and body == ""
    assert "Traceback" not in err and "integer" in err


# SHA-256 of the CLI output, pinned before the exact-arithmetic fast paths
# (power-of-two powers by shift, log2 quotients from the top bits) landed
_GOLDEN = [
    ("family", {"n0_minus": 3, "d0": 4}, ["--mode", "build"],
     "557ae847c1c6d73802b8f395cc4cfbe45cbeba475715526fc7452801ab33a70c"),
    ("family", {"n0_minus": 3, "d0": 5}, ["--mode", "build"],
     "36fdd1e47e208471b704e56f632515d11c378c811a5d6dea9ac82971ac6e7095"),
    ("family", {"d0": 3, "depth": 2}, ["--mode", "tree"],
     "895ed4a9c928c4ae7bebffe622d9cea274afe578d8012533755b6c0c98019323"),
    ("family", {"d0": 3, "depth": 3}, ["--mode", "tree", "--cap", "32"],
     "c4dde07d77709ffe2dbda7cab1a2863b6615453b52bfcc1dcdbf6e4a34e64229"),
    ("family", {"d0": 3, "depth": 2}, ["--mode", "verify"],
     "1ed1f4a89d344cbd1031bc35310a0e4d6bd574bd991346ca6c22adcd44091862"),
    ("suite", {}, ["--mode", "norm", "--seed", "7", "--cap", "200"],
     "942a066f86806af78bd4a5be6258712aeb9c9c8685d6a67ea39d185b2929f3b7"),
]


def test_family_and_suite_output_is_byte_identical(tmp_path):
    for sub, payload, flags, digest in _GOLDEN:
        code, body = run(tmp_path, sub, payload, *flags)
        assert code == 0
        assert hashlib.sha256(body.encode()).hexdigest() == digest, \
            (sub, payload, flags)
