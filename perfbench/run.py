"""Benchmark entry point: run a workload, print its metrics, write a results
file.

    python3 perfbench/run.py --workload library --seed 1 --seconds 50
    python3 perfbench/run.py --workload all --seed 1 --seconds 50
    python3 perfbench/run.py --workload cli --seed 1 --trace 1

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Results, with an
environment record and digests of the inputs and outputs, go to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("library", "cli")
CHILD_TIMEOUT_S = 170

END_TO_END = {            # name -> unit
    "throughput_ops_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ops_ratio": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def spawn(workload, args, *extra) -> tuple[float, dict]:
    """Start a worker; returns (spawn instant, its JSON report)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--trace", str(args.trace), *extra]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.monotonic()
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"worker failed ({res.returncode}):\n{res.stderr[-3000:]}")
    return t0, json.loads(res.stdout.strip().splitlines()[-1])


def latency_stats(rounds, kinds) -> dict:
    """The end-to-end timing figures of a run.

    Each slot of the pool (one operation of a fixed kind and input shape)
    runs once per round, on that round's inputs; its latency is taken as
    the best of its executions, because on these shared cores a slower
    reading of the same work mostly adds other tenants' interference.
    Throughput is the pool size over the sum of those latencies, and the
    median latency their median.  The tail, the highest percentile with at
    least 10 samples beyond it, is taken over every execution, so stalls
    that hit some rounds still show there.  The best latencies summed by
    part (the kind's prefix) and the plain medians over rounds are kept
    beside them for reference."""
    best = [min(r[i] for r in rounds) for i in range(len(kinds))]
    lat = sorted(t for r in rounds for t in r)
    n = len(lat)
    beyond = min(10, n - 1)
    parts = {}
    for kind, t in zip(kinds, best):
        part = kind.split(".")[0]
        parts[part] = parts.get(part, 0.0) + t
    return {"throughput_ops_s": len(best) / sum(best),
            "op_p50_ms": 1000 * statistics.median(best),
            "op_tail_ms": 1000 * lat[n - 1 - beyond],
            "tail_percentile": 100 * (n - beyond) / n, "tail_samples": n,
            "part_best_s": parts,
            "median_round_ops_s": statistics.median(len(r) / sum(r) for r in rounds),
            "pooled_p50_ms": 1000 * statistics.median(lat)}


def timed_rounds(workload, args) -> dict:
    """One worker process per round, until ``--seconds`` have passed (the
    round in progress finishes); each worker also times the reference
    kernel of ``calib.py`` after its round.  Each spawn is one set-up
    sample, spread over the run like the rounds; every spawn does the same
    amount of set-up work, so set-up is the fastest of them, as latencies
    are best of rounds.

    The four timings are reported at the nominal machine speed: divided by
    the kernel's best time over the run / ``calib.NOMINAL_S`` (throughput
    multiplied).  The values as measured are kept under ``measured``."""
    deadline = time.monotonic() + args.seconds
    reps = []
    while not reps or time.monotonic() < deadline:
        t0, rep = spawn(workload, args, "--round", str(len(reps)))
        rep["setup_s"] = rep.pop("ready") - t0
        if reps and rep["kinds"] != reps[0]["kinds"]:
            raise RuntimeError("the pool changed shape between rounds")
        reps.append(rep)
    rounds = [rep["latency_s"] for rep in reps]
    measured = {**latency_stats(rounds, reps[0]["kinds"]),
                "setup_s": min(rep["setup_s"] for rep in reps)}
    kernels = [rep["kernel_s"] for rep in reps]
    slowdown = min(kernels) / calib.NOMINAL_S
    digests = lambda key: hashlib.sha256(
        "".join(rep[key] for rep in reps).encode()).hexdigest()
    out = {"rounds": len(reps), "kinds": reps[0]["kinds"],
           "attempted": sum(rep["attempted"] for rep in reps),
           "failed": sum(rep["failed"] for rep in reps),
           "errors": [e for rep in reps for e in rep["errors"]][:5],
           "throughput_ops_s": measured["throughput_ops_s"] * slowdown,
           **{k: measured[k] / slowdown
              for k in ("op_p50_ms", "op_tail_ms", "setup_s")},
           "slowdown": slowdown, "measured": measured,
           "setup_samples_s": [rep["setup_s"] for rep in reps],
           "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
           "kernel_by_round_s": kernels,
           "latency_ms": [[1000 * t for t in r] for r in rounds],
           "input_digest": digests("input_digest"),
           "output_digest": digests("output_digest")}
    out["ok_ops_ratio"] = (out["attempted"] - out["failed"]) / out["attempted"]
    return out


def environment(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "commit": git_commit(),
            "seed": seed, "loadavg": list(os.getloadavg())}


def git_commit() -> str:
    """HEAD's commit, or "unknown" outside a git repository (the benchmark
    may run in an exported tree); git does not look above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run_workload(workload, args) -> dict:
    env = environment(args.seed)
    if args.trace:
        _, rep = spawn(workload, args, "--seconds", str(args.seconds / 2))
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in sorted(rep["per_layer"].items())}
    else:
        rep = timed_rounds(workload, args)
        metrics = {k: {"value": rep[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
              "failed": rep["failed"], "metrics": metrics}
    record = {"workload": workload, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": env,
              **result, "report": rep}
    out = os.path.join(HERE, "out",
                       f"{workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    show(workload, result, rep)
    return result


def show(workload, result, rep) -> None:
    for name, m in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            meas = rep["measured"]
            note = (f"  (p{meas['tail_percentile']:.1f} of "
                    f"{meas['tail_samples']} samples)")
        print(f"{workload:>10} {name:<34} {m['value']:>14.6g} {m['unit']}{note}")
    if "details" in rep:
        d = rep["details"]
        shares = ", ".join(f"{k} {v:.1%}" for k, v in sorted(
            d["self_share"].items(), key=lambda kv: -kv[1]) if v > 0)
        print(f"{workload:>10} top layer by self time: {d['top_layer']} ({shares})")
        for part, ps in d["parts"].items():
            top = sorted(ps.items(), key=lambda kv: -kv[1])[:3]
            print(f"{workload:>10}   {part} part: " +
                  ", ".join(f"{k} {v:.1%}" for k, v in top))
    for err in rep.get("errors", []):
        print(f"{workload:>10} FAILED {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs (smoke test)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "creaturelab", "__init__.py")):
        sys.stderr.write("run from a creaturelab checkout: src/creaturelab is missing\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args)
    except (RuntimeError, subprocess.TimeoutExpired) as ex:
        sys.stderr.write(f"benchmark failed: {ex}\n")
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
