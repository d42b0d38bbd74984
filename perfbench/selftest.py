"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

For each workload it makes two short traced runs with one seed and checks:

* both runs are correct: every report matched its expected output, and
  every traced report matched its untraced twin byte for byte;
* the deterministic counters (calls, cells, products, pivots, bytes) are
  exactly equal between the two runs;
* the workloads are wired as intended: ``line_classes`` makes no
  ``exact_linear`` call, ``Mat.mul`` has the largest self time on
  ``regular_scaled``, and of the library calls the CLI makes on
  ``catalogue``, ``pullback_structure`` takes the largest share of the time.

It also checks that BENCHMARK.json declares exactly the metrics run.py
reports, with the same units. Takes about two minutes.
"""

import argparse
import json
import subprocess
import sys

import run
import tracer
from workloads import WORKLOADS


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return details, result


def check_declared_metrics() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END_UNITS:
        problems.append(f"end_to_end differs from run.py: {declared} vs {run.END_TO_END_UNITS}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != dict(tracer.per_layer_metrics()):
        problems.append("per_layer differs from tracer.per_layer_metrics()")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workloads differ from workloads.WORKLOADS")
    return problems


def check_wiring(workload: str, details: dict, metrics: dict) -> list[str]:
    value = {k: v["value"] for k, v in metrics.items()}
    if workload == "line_classes":
        calls = {k: v for k, v in value.items() if k.startswith("exact_linear.") and k.endswith(".calls")}
        if any(calls.values()):
            return [f"line_classes made exact_linear calls: {calls}"]
    if workload == "regular_scaled":
        self_times = {k: v for k, v in value.items() if k.endswith(".self_s")}
        top = max(self_times, key=self_times.get)
        if top != "exact_linear.mul.self_s":
            return [f"largest self time on regular_scaled is {top}, not exact_linear.mul.self_s"]
    if workload == "catalogue":
        calls = details["top_level_s"]
        top = max(calls, key=calls.get)
        if top != "extension.pullback_structure":
            return [f"largest top-level library call on catalogue is {top}, not extension.pullback_structure"]
    return []


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args()
    problems = check_declared_metrics()
    for workload in WORKLOADS:
        (d1, r1), (d2, r2) = traced_run(workload, args.seed), traced_run(workload, args.seed)
        for r, d in ((r1, d1), (r2, d2)):
            if not r["correct"] or r["failed"]:
                problems.append(f"{workload}: traced run failed: {d['failures']}")
        counters = [{k: v["value"] for k, v in r["metrics"].items() if tracer.is_deterministic(k)}
                    for r in (r1, r2)]
        differing = sorted(k for k in counters[0] if counters[0][k] != counters[1][k])
        if differing:
            problems.append(f"{workload}: counters differ between runs: {differing}")
        problems += check_wiring(workload, d1, r1["metrics"])
        print(f"{workload}: {len(counters[0])} counters equal in two runs" if not differing
              else f"{workload}: counters differ", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest ok" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
