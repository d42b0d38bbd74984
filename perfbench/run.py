"""The hopfgal benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. An op is one ``hopfgal`` command on one document, run in process
through ``hopfgal.cli.main`` in a closed loop with one client (see
worker.py). Each workload runs in a fresh worker process, so its peak RSS is
its own. Op times are rescaled to a nominal machine speed (see
``worker.measure``). Set-up is measured in eleven fresh processes, before,
during and after the measurement, and reported as the median of their wall
times.

Prints two JSON lines: the details (composition, seed, sample counts, set-up
runs, error rate, failures), then the result: ``correct``, ``attempted``,
``failed`` and the metrics. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run. The exit code
is nonzero, with no result printed, when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is measured in this many fresh processes on each side of the
# measuring worker, which also measures its own; the median of all is reported.
SETUP_PROBES_EACH_SIDE = 5
# Every worker is killed once the run has taken this long, so that the run
# ends within three minutes even if the program hangs.
RUN_BUDGET_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class WorkerFailed(RuntimeError):
    pass


def spawn(argv, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON line."""
    started = time.monotonic()
    cmd = [sys.executable, str(WORKER), *argv, "--spawned-at", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=deadline - started)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker killed at the {RUN_BUDGET_S} s run budget: {' '.join(argv)}")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hopfgal" / "cli.py").is_file():
        print(f"error: no hopfgal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        setups = [spawn([*common, "--probe"], deadline) for _ in range(SETUP_PROBES_EACH_SIDE)]
        result = spawn([*common, "--trace", str(args.trace)], deadline)
        setups.append(result)
        setups += [spawn([*common, "--probe"], deadline) for _ in range(SETUP_PROBES_EACH_SIDE)]
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    def median_of(key):
        return statistics.median(s[key] for s in setups)

    failures = result["failures"]
    attempted = result["attempted"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "composition": result["composition"],
        "samples": result["samples"],
        "setup_s_runs": [s["setup_s"] for s in setups],
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
    }
    if args.trace:
        measured = dict(result["metrics"], **{"cli.import_s": median_of("import_s"),
                                              "zoo.build_s": median_of("build_s")})
        details["spans_file"] = result["spans_file"]
        details["top_level_s"] = result["top_level_s"]
        units = dict(tracer.per_layer_metrics())
    else:
        measured = dict(result["metrics"], setup_s=median_of("setup_s"))
        details["unscaled_min"] = result["unscaled_min"]
        units = END_TO_END_UNITS
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
