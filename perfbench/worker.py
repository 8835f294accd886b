"""One round of a workload in its own process; ``run.py`` spawns one worker
per round and reads the JSON line each prints.

A round is one pass over the workload's operation pool, built from the
round's own inputs, which are drawn from the seed ``<seed>/<round>``.  The
worker's set-up (interpreter start, ``import creaturelab``, generating the
round's inputs, a warm-up pass over tiny inputs) ends at the first timed
operation; the worker reports that instant on the monotonic clock, which
the parent shares.  Then it runs the round (one client, one thread, each
operation timed on its own) and checks every output against an oracle or
post-condition outside the timed region, and times the reference kernel of
``calib.py``, which tracks how fast the machine ran the round.  A new
process per round means
that nothing one round leaves in the process (a cache, a grown heap) can
speed up or slow down the next.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import creaturelab  # noqa: E402

import calib  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WARM_SEED_OFFSET = 7919
PROBES = 5   # bare-interpreter / import pairs in a traced run
CALIB_REPEATS = 5   # reference-kernel calls after each round


def canonical(x):
    """A JSON-able form of any library output, for digests."""
    if hasattr(x, "to_json"):
        return canonical(x.to_json())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: canonical(getattr(x, f.name))
                for f in dataclasses.fields(x)}
    if isinstance(x, bool) or x is None or isinstance(x, (float, str)):
        return x
    if isinstance(x, int):
        if x.bit_length() <= 4096:
            return x
        raw = x.to_bytes((x.bit_length() + 8) // 8, "big", signed=True)
        return {"bits": x.bit_length(), "sha256": hashlib.sha256(raw).hexdigest()}
    if isinstance(x, (Fraction, enum.Enum)):
        return str(x)
    if isinstance(x, bytes):
        return x.decode()
    if isinstance(x, (set, frozenset)):
        return sorted((canonical(v) for v in x), key=json.dumps)
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, dict):
        return sorted([canonical(k), canonical(v)] for k, v in x.items())
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(obj) -> str:
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Ledger:
    """Checks every execution's output and counts the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.outputs = hashlib.sha256()

    def check(self, ops, outs) -> None:
        """Check one round's outputs; runs outside the timed region."""
        for op, (out, err) in zip(ops, outs):
            self.attempted += 1
            if err is None:
                try:
                    if op.check(out):
                        self.outputs.update(digest(out).encode())
                        continue
                    err = "output fails its check"
                except Exception as ex:  # a check that cannot read the output
                    err = f"check raised {type(ex).__name__}: {ex}"
            else:
                err = f"{type(err).__name__}: {err}"
            self.fail(f"{op.kind}: {err}")

    def fail(self, msg) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)


def run_round(ops, call=None) -> tuple[list[float], list[tuple]]:
    """Run every op once; returns each op's latency in seconds (the timed
    region is the op call alone) and its (output, exception)."""
    lat, outs = [], []
    for op in ops:
        out = err = None
        t0 = time.perf_counter()
        try:
            out = op.run() if call is None else call(op)
        except Exception as ex:  # an op that raises is a failed op
            err = ex
        lat.append(time.perf_counter() - t0)
        outs.append((out, err))
    return lat, outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=0,
                    help="untraced time before the traced round (--trace 1)")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    inputs = lambda r: gen.GENERATORS[args.workload](
        Random(f"{args.seed}/{r}"), args.tiny)
    data = inputs(args.round)
    warm = gen.GENERATORS[args.workload](
        Random(args.seed + WARM_SEED_OFFSET), True)
    workdir = os.path.join(HERE, "out", f"cli-{os.getpid()}")
    try:
        if args.workload == "cli":
            def make(data, inproc=False):
                argvs = workloads.write_cli_inputs(data, workdir)
                return workloads.cli_ops(data, argvs, ROOT, workdir, inproc)
            warm_argvs = workloads.write_cli_inputs(warm, os.path.join(workdir, "warm"))
            warm_ops = workloads.cli_ops(warm, warm_argvs, ROOT, workdir, False)[:1]
        else:
            build = workloads.BUILDERS[args.workload]
            make = lambda data, inproc=False: build(data)
            warm_ops = build(warm)
        for op in warm_ops:
            op.run()
        ready = time.monotonic()
        if args.trace:
            out = traced(args, inputs, data, make)
        else:
            out = timed(args, data, make)
        out["ready"] = ready
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def input_digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def timed(args, data, make) -> dict:
    ledger = Ledger()
    ops = make(data)
    lat, outs = run_round(ops)
    ledger.check(ops, outs)
    kinds = [op.kind for op in ops]
    del ops, outs   # the round's library objects go before the kernel runs
    kernel_s = calib.best(CALIB_REPEATS)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" \
        else resource.RUSAGE_SELF
    return {"attempted": ledger.attempted, "failed": ledger.failed,
            "errors": ledger.errors, "kinds": kinds,
            "latency_s": lat, "kernel_s": kernel_s,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
            "input_digest": input_digest(data),
            "output_digest": ledger.outputs.hexdigest()}


def traced(args, inputs, data, make) -> dict:
    """Untraced rounds for ``--seconds``, then one traced round, all in this
    process and each on its own inputs; for cli the rounds run in process
    through ``cli.main``, and the traced round's invocations run again as
    CLI processes, timed as root spans and byte-compared with the
    in-process output, followed by bare-interpreter/import probes."""
    ledger = Ledger()
    walls = []
    deadline = time.monotonic() + args.seconds
    r = args.round
    while True:
        ops = make(data, inproc=True)
        lat, outs = run_round(ops)
        ledger.check(ops, outs)
        walls.append(sum(lat))
        r += 1
        data = inputs(r)
        if time.monotonic() >= deadline:
            break
    tracer = spans.Tracer()
    ops = make(data, inproc=True)
    after = None
    if args.workload == "cli":
        after = lambda a, out, pre: (len(out[1]), 0)
    tracer.install(creaturelab)
    try:
        lat, outs = run_round(
            ops, lambda op: tracer.call("op." + op.kind, op.run, after))
    finally:
        tracer.uninstall()
    traced_wall = sum(lat)
    ledger.check(ops, outs)
    if args.workload == "cli":
        procs = make(data, inproc=False)
        _, proc_outs = run_round(
            procs, lambda op: tracer.call("proc." + op.kind, op.run))
        ledger.check(procs, proc_outs)
        for op, (a, _), (b, _) in zip(procs, outs, proc_outs):
            if a != b:
                ledger.fail(f"{op.kind}: process output differs from cli.main")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for _ in range(PROBES):
        for name, code in (("probe.bare", "pass"),
                           ("probe.import", "import creaturelab")):
            tracer.call(name, lambda code=code: subprocess.run(
                [sys.executable, "-c", code], env=env, check=True, timeout=60,
                stdin=subprocess.DEVNULL, capture_output=True))
    path = os.path.join(HERE, "out",
                        f"spans-{args.workload}-seed{args.seed}.csv")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tracer.write(path)
    metrics, details = spans.layer_metrics(spans.read_spans(path))
    metrics["trace_overhead_ratio"] = traced_wall / statistics.median(walls)
    details.update(span_file=os.path.relpath(path, ROOT),
                   untraced_rounds=len(walls))
    return {"attempted": ledger.attempted, "failed": ledger.failed,
            "errors": ledger.errors, "per_layer": metrics, "details": details,
            "input_digest": input_digest(data),
            "output_digest": ledger.outputs.hexdigest()}


if __name__ == "__main__":
    sys.exit(main())
