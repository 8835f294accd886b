import hashlib
import json
import time
from pathlib import Path
from random import Random

from creaturelab import toys
from creaturelab.cli import main
from creaturelab.conditions import branches
from creaturelab.products import product_branches


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



def test_exact_family_count_past_the_bit_budget_exits_2(tmp_path, capsys):
    # the level-1 count sums 257 binomials of a 131,077-bit c
    payload = {"n0_minus": 3, "d0": 4, "depth": 1, "count_mode": "exact"}
    start = time.perf_counter()
    code, body = run(tmp_path, "family", payload, "--mode", "build")
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2 and body == "" and elapsed < 1.0
    assert "Traceback" not in err and "infeasible" in err

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
    # pinned before single conditions and products shared one branch engine
    ("suite", {}, ["--mode", "reading", "--seed", "3", "--cap", "30"],
     "23f7293fb33ec363c7490325cb9a2c4be1f233cf3699cbb84e7144c09ea5a531"),
    ("suite", {}, ["--mode", "localize", "--seed", "4", "--cap", "30"],
     "b0f262b69b6db75ff67ba8e2304dae970530e5789f45313834fd671a6c80c48b"),
    ("suite", {}, ["--mode", "product-catch", "--seed", "5", "--cap", "30"],
     "bad3dba191020d5faedf700e82a3990c12a86363957517eeee6bd0dbad36c670"),
    ("suite", {}, ["--mode", "restricted", "--seed", "6", "--cap", "30"],
     "08b3e5836b85cc616aab2d6627e59be0d7c00aaf89a00e307a6009df7ef40288"),
]

# one fixed input per condition/product subcommand (tests/golden_inputs.json,
# keyed by subcommand; check-reading has a timely and an early input)
_INPUTS = json.loads((Path(__file__).parent / "golden_inputs.json").read_text())
_GOLDEN += [(name.removesuffix("-timely").removesuffix("-early"),
             _INPUTS[name], [], digest) for name, digest in [
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
]]


def test_family_and_suite_output_is_byte_identical(tmp_path):
    for sub, payload, flags, digest in _GOLDEN:
        code, body = run(tmp_path, sub, payload, *flags)
        assert code == 0
        assert hashlib.sha256(body.encode()).hexdigest() == digest, \
            (sub, payload, flags)


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
        r, rho, a2, e2 = toys.antiloc_instance(rng)
        for c, o in ((p, nu), (q, mu), (r, rho)):
            out.append([c.to_json(), [[_members(b), list(o.eval(b))]
                                      for b in branches(c)]])
        out.append([a, e, a2, e2])
        s, sig = toys.product_reading_instance(rng)
        t, tau, B, xi = toys.product_catch_instance(rng)
        u, ups, Cs, a3, e3 = toys.restricted_instance(rng)
        for c, o in ((s, sig), (t, tau), (u, ups)):
            out.append([c.to_json(), [[[_members(sel) for sel in b],
                                       list(o.eval(b))]
                                      for b in product_branches(c)]])
        out.append([sorted(B), xi, sorted(Cs), a3, e3])
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == \
        "fb62064a6458ce6d783a9ebac93234e59a1e2ab93c0c99b14704f2edb1977aad"
