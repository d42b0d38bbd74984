"""One workload in one fresh process: set up, then run closed-loop passes.

run.py starts this script; it prints one JSON line. A pass runs every op of
the deck, in an order shuffled by the seed, one command at a time, each
through the click entry point ``hopfgal.cli.main`` in this process; cheap ops
run more than once a pass (see ``measure``). Passes repeat while the next one
is expected to end within ``--seconds``, and then until enough samples lie
beyond the 90th percentile.

With ``--trace 1`` each pass runs twice, untraced and then traced, in the same
order; the traced reports must match the untraced ones byte for byte, and the
work counters must repeat exactly from one traced pass to the next.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def invoke(main, args) -> tuple[int, str]:
    """Run one hopfgal command line in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args), prog_name="hopfgal")
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    return code, out.getvalue()


# Near the calibration kernel's median wall time on a 2 vCPU Xeon at 2.0 GHz
# with Python 3.11: the speed that every end-to-end time is rescaled to.
KERNEL_NOMINAL_S = 0.45e-3


def calibration_kernel():
    """A fixed mix of what the program's layers do: fractions, big integers, dicts, JSON."""
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    x = 1
    for i in range(1, 120):
        x = x * (2 * i + 1) // (i if i % 3 else 1) + i
    d = {str(i): (i * i) % 97 for i in range(200)}
    return acc, x, json.dumps(d)


def kernel_s() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def run_pass(main, ops, trace=None) -> tuple[list, list[float], list[float]]:
    """Run the ops in order; returns their (exit code, stdout) and wall times,
    and the calibration kernel's time before each op and after the last."""
    results, latencies, kernel = [], [], []
    clock = time.perf_counter
    for op in ops:
        # A user runs each command in a fresh process; collecting the previous
        # command's garbage here, untimed, keeps its collection out of this op.
        gc.collect()
        kernel.append(kernel_s())
        t0 = clock()
        if trace is None:
            result = invoke(main, op.args)
        else:
            result = trace.call("cli", invoke, (main, op.args))
        latencies.append(clock() - t0)
        results.append(result)
    kernel.append(kernel_s())
    return results, latencies, kernel


def failed_checks(ops, results) -> list[str]:
    return [op.key for op, result in zip(ops, results) if not op.check(*result)]


# The 90th percentile is reported only once at least this many samples lie beyond it.
MIN_BEYOND_P90 = 10
# Ops cheaper than the deck's mean run up to MAX_REPEATS times a pass, so long
# as their repeats take no more than REPEAT_SHARE of the mean op time.
MAX_REPEATS = 8
REPEAT_SHARE = 0.5


def measure(main, ops, rng, seconds) -> dict:
    """Closed-loop passes; each op's time is the median of its rescaled samples.

    On a shared virtual machine the CPU's speed can change by up to 1.8x, in
    phases that last from a second to several minutes, so a whole run can
    fall in a slow phase. Each
    sample is therefore rescaled to the nominal machine speed: its wall time
    times ``KERNEL_NOMINAL_S`` over the mean time of the calibration kernel
    run just before and just after it. The deck's throughput, median and 90th
    percentile are taken over the per-op medians of these rescaled times.

    The first pass runs every op once. Later passes also repeat the cheap ops
    at random places (see ``MAX_REPEATS``), so that the ops that set the
    median get more samples spread over the run; this adds at most half a
    pass. Passes go on while the next one is expected to end within
    ``seconds``. Then, while fewer than ``MIN_BEYOND_P90`` samples lie beyond
    the 90th percentile, the ops above it run again.
    """
    scaled = {op.key: [] for op in ops}
    raw = {op.key: [] for op in ops}
    repeats = {op.key: 1 for op in ops}
    pass_s, failures, kernel_times = [], [], []

    def run(order):
        results, lat, kernel = run_pass(main, order)
        kernel_times.extend(kernel)
        for i, (op, t) in enumerate(zip(order, lat)):
            raw[op.key].append(t)
            scaled[op.key].append(t * 2 * KERNEL_NOMINAL_S / (kernel[i] + kernel[i + 1]))
        failures.extend(failed_checks(order, results))
        per_op = {k: statistics.median(v) for k, v in scaled.items()}
        p90 = statistics.quantiles(per_op.values(), n=10)[8]
        beyond = sum(x > p90 for v in scaled.values() for x in v)
        return per_op, p90, beyond

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        order = [op for op in ops for _ in range(repeats[op.key])]
        rng.shuffle(order)
        per_op, p90, beyond = run(order)
        pass_s.append(time.perf_counter() - t0)
        mean = sum(per_op.values()) / len(per_op)
        repeats = {k: max(1, min(MAX_REPEATS, int(REPEAT_SHARE * mean / t))) for k, t in per_op.items()}
        if time.perf_counter() - start + pass_s[-1] > seconds:
            break
    while beyond < MIN_BEYOND_P90:
        tail = [op for op in ops if per_op[op.key] > p90]
        rng.shuffle(tail)
        per_op, p90, beyond = run(tail)
    attempted = sum(map(len, raw.values()))
    raw_min = [min(v) for v in raw.values()]
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": {
            "ops_per_s": len(per_op) / sum(per_op.values()),
            "latency_p50_ms": statistics.median(per_op.values()) * 1000.0,
            "latency_p90_ms": p90 * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "samples": {
            "passes": len(pass_s),
            "pass_s": pass_s,
            "latencies": attempted,
            "per_op": {"min": min(map(len, raw.values())), "max": max(map(len, raw.values()))},
            "beyond_p90": beyond,
            "kernel_ms": {"min": min(kernel_times) * 1000.0, "median": statistics.median(kernel_times) * 1000.0},
        },
        # The same statistics without rescaling, over each op's fastest wall time.
        "unscaled_min": {
            "ops_per_s": len(raw_min) / sum(raw_min),
            "latency_p50_ms": statistics.median(raw_min) * 1000.0,
            "latency_p90_ms": statistics.quantiles(raw_min, n=10)[8] * 1000.0,
        },
    }


def measure_traced(main, ops, rng, seconds, spans_path: Path) -> dict:
    """Pairs of passes, untraced then traced; counters from the first pair, timings as medians."""
    timings, top_level, overheads, failures = [], [], [], []
    counters = None
    spans_path.write_text("")
    start = time.perf_counter()
    while True:
        order = rng.sample(ops, len(ops))
        plain, plain_lat, _ = run_pass(main, order)
        trace = tracer.Tracer()
        trace.install()
        try:
            traced, traced_lat, _ = run_pass(main, order, trace)
        finally:
            trace.uninstall()
        failures += failed_checks(order, plain)
        failures += [f"traced output differs: {op.key}" for op, x, y in zip(order, plain, traced) if x != y]
        trace.write(spans_path, f"pass{len(overheads)}")
        m, top = tracer.aggregate(trace.spans)
        m["cli.report_bytes"] = sum(len(out.encode()) for _, out in traced)
        pass_counters = {k: v for k, v in m.items() if tracer.is_deterministic(k)}
        if counters is None:
            counters = pass_counters
        elif pass_counters != counters:
            failures.append(f"counters differ between traced passes in pass {len(overheads)}")
        timings.append({k: v for k, v in m.items() if not tracer.is_deterministic(k)})
        top_level.append(top)
        overheads.append(sum(traced_lat) / sum(plain_lat))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(overheads) > seconds:
            break
    metrics = dict(counters)
    for key in timings[0]:
        metrics[key] = statistics.median(t[key] for t in timings)
    metrics["trace.overhead_ratio"] = statistics.median(overheads)
    return {
        "attempted": 2 * len(ops) * len(overheads),
        "failures": failures,
        "metrics": metrics,
        "samples": {"passes": len(overheads), "spans_per_pass": len(trace.spans)},
        "top_level_s": {k: statistics.median(t.get(k, 0.0) for t in top_level) for k in top_level[0]},
    }


def main_worker(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() before the spawn")
    p.add_argument("--probe", action="store_true", help="stop after set-up and report its timings")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    from hopfgal.cli import main

    import_s = time.perf_counter() - t0
    workdir = OUT / f"docs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        ops, composition = workloads.build(args.workload, args.seed, ROOT, workdir)
        build_s = time.perf_counter() - t0
        invoke(main, workloads.warmup_op(args.workload, ROOT))
        setup = {"setup_s": time.monotonic() - args.spawned_at, "import_s": import_s, "build_s": build_s}
        if args.probe:
            print(json.dumps(setup))
            return 0
        rng = random.Random(args.seed)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = measure_traced(main, ops, rng, args.seconds, spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            result = measure(main, ops, rng, args.seconds)
        result.update(setup)
        result["composition"] = composition
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main_worker())
