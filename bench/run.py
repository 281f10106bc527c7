#!/usr/bin/env python3
"""turanp benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --trace 1

Each workload runs in one process with one closed-loop caller and calls
the library in-process with ``threads=1``.  The run sets up ``SETUP_REPEATS``
times (fresh import, inputs from ``--seed``, plans), then runs whole passes
over the inputs until ``--seconds`` have elapsed, checking every answer.  A
wrong answer stops the run with exit code 3.  After every operation it
times ``reference_kernel``; each timing is divided by the slowdown this
shows, so that load from other tenants of a shared machine cancels out
(bench/README.md has the details).  With ``--trace 1`` the run
then sets up and makes one more pass with the library's callables wrapped
in spans, and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in its own process and prefixes metric names with the
workload name.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from tracing import Tracer
from workloads import CERTIFY_BUDGET, WORKLOADS, GateError

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"
SETUP_REPEATS = 5
# nominal reference-kernel time: its fastest time on an idle 2-core x86-64
# machine under CPython 3.11.7; timings are scaled to this machine speed
REFERENCE_S = 40e-6
REFERENCE_SAMPLES = 15
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("finish_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

LAYER_SPANS = (
    # (span name, reported fields)
    ("graphs.g6_decode", ("calls", "self_s")),
    ("graphs.g6_encode", ("calls", "self_s")),
    ("graphs.Graph.validate", ("calls", "self_s")),
    ("graphs.canonical_code", ("calls", "self_s")),
    ("graphs.ep_value", ("calls", "self_s")),
    ("patterns.contains_through", ("calls", "self_s", "hit_ratio")),
    ("patterns.contains_path", ("calls", "self_s", "unknown")),
    ("patterns.contains_linear_forest", ("calls", "self_s", "unknown")),
    ("patterns.contains_star_forest", ("calls", "self_s", "unknown")),
    ("patterns.contains_broom", ("calls", "self_s", "unknown")),
    ("patterns.contains_forest_generic", ("calls", "self_s")),
    ("oracle.max_ep", ("calls", "self_s")),
    ("families.build", ("calls", "self_s")),
    ("formulas.formula_for_pattern", ("calls", "self_s")),
)
FIELD_UNITS = {"calls": "count", "self_s": "s", "hit_ratio": "ratio", "unknown": "count"}
EXTRA_LAYER = (
    ("oracle.graphs_visited", "count"),
    ("oracle.pruned", "count"),
    ("bench.ops_per_s_untraced", "1/s"),
    ("bench.ops_per_s_traced", "1/s"),
    ("bench.trace_overhead", "ratio"),
)
PER_LAYER = tuple((f"{span}.{f}", FIELD_UNITS[f]) for span, fields in LAYER_SPANS
                  for f in fields) + EXTRA_LAYER


# ---------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------

def tail_percentile(samples_per_pass: int) -> float:
    """Highest percentile, floored to 0.1, with at least ten of
    ``samples_per_pass`` samples beyond it.  It depends on the pass size
    only, so a faster program does not move to a higher percentile."""
    if samples_per_pass <= 10:
        raise ValueError(f"need more than 10 samples per pass, got {samples_per_pass}")
    return math.floor(1000 * (samples_per_pass - 10) / samples_per_pass) / 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered) / 100, 9)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------

def fresh_import():
    for key in [k for k in sys.modules if k == "turanp" or k.startswith("turanp.")]:
        del sys.modules[key]
    tp = importlib.import_module("turanp")
    if Path(tp.__file__).resolve().parent != SRC / "turanp":
        raise RuntimeError(f"imported turanp from {tp.__file__}, not {SRC}")
    return tp


REFERENCE_MASKS = tuple((0x9E3779B97F4A7C15 * k) & ((1 << 64) - 1) for k in range(1, 9))


def reference_kernel() -> int:
    """Fixed pure-Python work, shaped like the library's bitset loops,
    used to gauge the machine's current speed."""
    acc = 0
    for m in REFERENCE_MASKS:
        while m:
            low = m & -m
            acc += low.bit_length()
            m ^= low
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Passes:
    """Latencies and outcomes of whole passes over one workload's inputs."""

    def __init__(self):
        self.latencies: list[list[float]] = []  # [pass][input]
        self.ref: list[list[float]] = []
        self.unknown = 0
        self.errors = 0

    @property
    def attempted(self) -> int:
        return sum(map(len, self.latencies))

    def slowdowns(self) -> list[float]:
        """Per pass, the median reference-kernel time over its nominal time."""
        return [statistics.median(r) / REFERENCE_S for r in self.ref]

    def per_input(self, scaled: bool = True) -> list[float]:
        """Per input, the median of its latencies over the passes, each
        latency divided by its pass's slowdown unless ``scaled`` is false."""
        lats = self.latencies
        if scaled:
            lats = [[x / f for x in p] for p, f in zip(lats, self.slowdowns())]
        return [statistics.median(col) for col in zip(*lats)]


def measure(tp, workload, items, seconds: float, counters: Counter,
            tracer: Tracer | None = None) -> Passes:
    """Run whole passes over ``items`` until ``seconds`` have elapsed
    (at least one pass)."""
    res = Passes()
    op = workload.op
    op_span = tracer.name_id("bench.op") if tracer else None
    clock = time.perf_counter
    start = clock()
    while True:
        lat = []
        ref = []
        for item in items:
            if tracer:
                tracer.op = res.attempted + len(lat)
                frame = tracer.begin()
            t0 = clock()
            try:
                done = op(tp, item, counters)
            except GateError:
                raise
            except Exception:  # a crash is a failed operation, not a stop
                if not res.errors:
                    traceback.print_exc()
                res.errors += 1
                done = None
            t1 = clock()
            if tracer:
                tracer.end(op_span, frame)
            lat.append(t1 - t0)
            ref.append(time_reference())
            if done is False:
                res.unknown += 1
        res.latencies.append(lat)
        res.ref.append(ref)
        if clock() - start >= seconds:
            return res


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    setup_times = []
    setup_slowdowns = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tp = fresh_import()
        items = workload.setup(tp, seed)
        setup_times.append(time.perf_counter() - t0)
        ref = statistics.median(time_reference() for _ in range(REFERENCE_SAMPLES))
        setup_slowdowns.append(ref / REFERENCE_S)
    workload.op(tp, items[0], Counter())  # warm-up, not timed
    counters: Counter = Counter()
    run = measure(tp, workload, items, seconds, counters)
    attempted = run.attempted
    lat = run.per_input()
    tail_q = tail_percentile(len(lat))
    finished = attempted - run.unknown - run.errors
    values = {
        "setup_s": statistics.median(t / f for t, f in zip(setup_times, setup_slowdowns)),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * percentile(lat, tail_q),
        "finish_ratio": finished / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = run.per_input(scaled=False)
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups; unscaled "
                   f"{statistics.median(setup_times):.6g} s",
        "ops_per_s": f"{len(lat)} inputs, each at its median over {len(run.latencies)} "
                     f"passes; median slowdown {statistics.median(run.slowdowns()):.3f}; "
                     f"unscaled {len(raw) / sum(raw):.6g} 1/s",
        "op_p50_ms": f"unscaled {1000 * statistics.median(raw):.6g} ms",
        "op_tail_ms": f"p{tail_q:g} of {len(lat)} per-input latencies; unscaled "
                      f"{1000 * percentile(raw, tail_q):.6g} ms",
        "finish_ratio": f"fail_ratio {1 - finished / attempted:.4f}: "
                        f"{run.unknown} UNKNOWN, {run.errors} errors "
                        f"of {attempted} attempted",
        "peak_rss_mb": "peak resident set of this process",
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    failed = run.errors
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_items = workload.setup(tp, seed)
            traced_counters: Counter = Counter()
            traced = measure(tp, workload, traced_items, 0, traced_counters, tracer)
        finally:
            tracer.uninstall()
        spans_file = SPANS_DIR / f"spans-{name}-seed{seed}.csv"
        tracer.write(spans_file)
        attempted += traced.attempted
        failed += traced.errors
        traced_lat = traced.per_input()
        metrics = layer_metrics(tracer, traced_counters, values["ops_per_s"],
                                len(traced_lat) / sum(traced_lat))
        notes = {"per-layer": "one traced set-up plus one traced pass of "
                              f"{len(traced_items)} ops; spans in "
                              f"{spans_file.relative_to(HERE.parent)}"}
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes}


def layer_metrics(tracer: Tracer, counters: Counter, untraced: float,
                  traced: float) -> dict:
    totals = tracer.totals()
    values = {"oracle.graphs_visited": counters["oracle.graphs_visited"],
              "oracle.pruned": counters["oracle.pruned"],
              "bench.ops_per_s_untraced": untraced,
              "bench.ops_per_s_traced": traced,
              "bench.trace_overhead": (untraced - traced) / untraced}
    for span, fields in LAYER_SPANS:
        t = totals[span]
        for f in fields:
            if f == "hit_ratio":
                values[f"{span}.{f}"] = t["hits"] / t["calls"] if t["calls"] else 0.0
            else:
                values[f"{span}.{f}"] = t[f]
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER}


# ---------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------

def describe(name: str, args, result: dict) -> list[str]:
    head = (f"{name}: seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
            f"threads=1 step_budget={CERTIFY_BUDGET} "
            f"python={platform.python_version()} nproc={os.cpu_count()}")
    lines = [head, f"  why: {WORKLOADS[name].why}"]
    for key, m in result["metrics"].items():
        note = result.get("notes", {}).get(key, "")
        lines.append(f"  {key:<40} {m['value']:>14.6g} {m['unit']:<6} {note}".rstrip())
    for key, note in result.get("notes", {}).items():
        if key not in result["metrics"]:
            lines.append(f"  {key}: {note}")
    return lines


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} ran over {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines))
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "turanp" / "__init__.py").is_file():
        print(f"error: no turanp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except GateError as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        return 3
    print("\n".join(describe(args.workload, args, result)))
    result.pop("notes")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
