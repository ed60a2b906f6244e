"""Benchmark of the meadows library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/meadows).
Each workload is a closed loop with one client: the next operation starts
when the previous one has finished.  Inputs come from --seed only, every
answer is checked against the oracle in perfbench/oracle.py after the
clock stops, and the last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (catalogue.END_TO_END),
with times scaled to reference speed (see harness.Speed); the unscaled
figures are printed above the JSON line.  With --trace 1 they are the
per-layer ones (catalogue.per_layer()), unscaled, taken from spans recorded
around every call the benchmark makes into the library and written to
.bench_build/perfbench/ as JSON lines.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import catalogue
import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MODULES = {"decide": "decide", "finite-check": "finite_check",
           "large-inputs": "large_inputs", "cli": "cli_workload"}

SETUP_PROBES = 9      # fresh processes timed for setup_s; the median is reported
WARMUP_OPS = 3        # untimed operations before the clock starts
MIN_OPS = 92          # the fewest that leave ten samples beyond the 90th percentile


def load(workload):
    return importlib.import_module(MODULES[workload])


def setup_probe(workload):
    """Child mode: time importing meadows and the workload's prebuilt state,
    and the reference computation just before and just after it."""
    refs = [harness.reference_ms() for _ in range(5)]
    t0 = time.perf_counter()
    load(workload).setup()
    seconds = time.perf_counter() - t0
    refs += [harness.reference_ms() for _ in range(5)]
    print(seconds, median(refs))


class SetupProbes:
    """setup_s: the median set-up time of fresh processes at reference speed.

    Each process scales its own set-up time by the reference timed on both
    sides of it.  The reference speeds up more than set-up work does when
    the machine speeds up, and the machine keeps one speed for seconds at
    a time, so processes run back to back would share one error; they are
    spread over the timed phase instead, between operations.
    """

    def __init__(self, workload, seconds):
        self.workload = workload
        self.every_s = seconds / SETUP_PROBES
        self.times = []

    def __call__(self, elapsed):
        if len(self.times) < SETUP_PROBES and elapsed >= len(self.times) * self.every_s:
            self.probe()

    def probe(self):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", self.workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds, ref = map(float, out.stdout.split()[-2:])
        self.times.append(seconds * harness.REFERENCE_MS / ref)

    def seconds(self):
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return median(self.times)


def percentile(values, q):
    return quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(mod, workload, seed, seconds):
    setup = SetupProbes(workload, seconds)
    ctx = mod.setup()
    warmup = mod.ops(random.Random(f"warmup-{seed}"), ctx)
    for _ in range(WARMUP_OPS):
        harness.execute(next(warmup), -1)
    speed = harness.Speed(**getattr(mod, "SPEED", {}))
    _, lat, failures = harness.closed_loop(mod.ops(random.Random(seed), ctx), seconds, speed,
                                           min_ops=MIN_OPS, between=setup)
    probes = mod.defect_probes(ctx)
    probe_failures = [harness.execute(op, -1)[1] for op, _ in probes]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    ms = speed.scale(lat)
    metrics = {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "latency_p50_ms": median(ms),
        "latency_p90_ms": percentile(ms, 90),
        "setup_s": setup.seconds(),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    beyond = sum(1 for x in ms if x > metrics["latency_p90_ms"])
    failed = sum(1 for f in failures if f)
    probes_failed = sum(1 for f in probe_failures if f)
    report(failures, probe_failures)
    attempted_all = len(lat) + len(probe_failures)
    print(f"workload {workload}  seed {seed}  {seconds} s  closed loop, 1 client")
    units = catalogue.END_TO_END
    for name, value in metrics.items():
        print(f"  {name:16s} {value:12.4f} {units[name]}")
    print(f"  samples          {len(ms)} operations, {beyond} beyond p90, "
          f"{sum(lat) / 1e9:.2f} s timed; setup_s is the median of {SETUP_PROBES} processes")
    print(f"  speed            times scaled by {sum(ms) * 1e6 / sum(lat):.4f} on the whole: "
          f"the reference took {median(speed.samples):.4f} ms (median of "
          f"{len(speed.samples)}), {speed.nominal_ms} ms at reference speed; unscaled p50 "
          f"{median(lat) / 1e6:.4f} ms, p90 {percentile([x / 1e6 for x in lat], 90):.4f} ms")
    print(f"  failed_ratio     {(failed + probes_failed) / attempted_all:.4f} "
          f"({failed} of {len(lat)} operations, {probes_failed} of "
          f"{len(probe_failures)} known-defect probes)")
    return result(len(lat), failed, probes, probe_failures, metrics, units)


def traced(mod, workload, seed, seconds):
    ctx = mod.setup()
    share = getattr(mod, "TRACE_SHARE", 0.45)
    speed0, speed1 = (harness.Speed(**getattr(mod, "SPEED", {})) for _ in range(2))
    ops, lat0, _ = harness.closed_loop(mod.ops(random.Random(seed), ctx), seconds * share,
                                       speed0, keep=True)
    tracer = harness.Tracer()
    lat1, failures = harness.replay(ops, tracer, speed1)
    probes = mod.defect_probes(ctx)
    probe_failures = [harness.execute(op, len(ops) + i, tracer)[1]
                      for i, (op, _) in enumerate(probes)]
    overhead = sum(speed1.scale(lat1)) / sum(speed0.scale(lat0))
    extra = {"trace.overhead_ratio": overhead,
             "cli.interpreter_floor_ms": 0.0, "cli.import_ms": 0.0}
    if hasattr(mod, "trace_extra"):
        extra.update(mod.trace_extra(ops, tracer, len(ops) + len(probe_failures), ctx))
    values = catalogue.layer_values(tracer.spans, tracer.failed, extra)
    out = ROOT / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w") as f:
        for i, s in enumerate(tracer.spans):
            f.write(json.dumps({"id": i, "name": s[0], "start_ns": s[1], "end_ns": s[2],
                                "parent": s[3], "op": s[4], "bucket": s[5],
                                "size": s[6], "error": s[7]}) + "\n")
    report(failures, probe_failures)
    print(f"workload {workload}  seed {seed}  traced {len(ops)} operations; "
          f"{len(tracer.spans)} spans in {path.relative_to(ROOT)}")
    units = {name: unit for name, unit, _ in catalogue.per_layer()}
    for name in units:
        print(f"  {name:44s} {values[name]:14.4f} {units[name]}")
    failed = sum(1 for f in failures if f)
    return result(len(ops), failed, probes, probe_failures, values, units)


def report(failures, probe_failures):
    for f in failures:
        if f:
            print(f"  FAILED: {f}")
    for f in probe_failures:
        if f:
            print(f"  known defect: {f}")


def result(attempted, failed, probes, probe_failures, values, units):
    """The contract's JSON line.

    attempted and failed count the timed operations.  The known-defect
    probes run outside the timed loop and are reported in failed_ratio and
    the per-layer failure counts; they make the run incorrect only when a
    probe fails otherwise than in its known way.
    """
    probes_wrong = any(f and known not in f for (_, known), f in zip(probes, probe_failures))
    return {
        "correct": failed == 0 and not probes_wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(MODULES), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "meadows" / "__init__.py").is_file():
        print(f"error: no meadows sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    mod = load(args.workload)
    run = traced if args.trace else end_to_end
    print(json.dumps(run(mod, args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
