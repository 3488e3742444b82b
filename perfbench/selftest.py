"""Self-test of the benchmark's tracing.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it runs ``perfbench/run.py --trace 1`` briefly and
checks that

1. every per-layer metric listed for the workload records calls;
2. traced and untraced repetitions wrote byte-identical CSVs;
3. in every traced repetition the self times of the kernels and harness
   spans sum to at most the repetition's wall time;
4. BENCHMARK.json names the metrics run.py reports.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
SECONDS = 1


def check_workload(name: str) -> list[str]:
    wl = WORKLOADS[name]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        return [f"run.py exited {proc.returncode}: {proc.stderr.strip()}"]
    path = os.path.join(run.WORK, f"result-{name}-seed{SEED}-trace1.json")
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    errors = []
    for metric in wl.layers:
        if result["calls"].get(metric, 0) <= 0:
            errors.append(f"{metric} recorded no calls")
    if not (result["traced_wall_s"] and result["untraced_wall_s"]):
        errors.append("missing traced or untraced repetitions")
    if len(result["output_sha256"]) != 1:
        errors.append(f"traced and untraced outputs differ: {result['output_sha256']}")
    for share in result["self_share"]:
        if share > 1.0:
            errors.append(f"kernels+harness self time is {share:.4f} of the wall time")
    return errors


def check_names() -> list[str]:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    errors = []
    if [m["name"] for m in bench["per_layer"]] != [m[0] for m in run.LAYER_METRICS]:
        errors.append("BENCHMARK.json per_layer differs from run.LAYER_METRICS")
    if {m["name"] for m in bench["end_to_end"]} != set(run.END_TO_END_UNITS):
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return errors


def main() -> int:
    failures = 0
    for label, errors in [("names", check_names())] + [
        (name, check_workload(name)) for name in WORKLOADS
    ]:
        failures += bool(errors)
        print(f"{label}: {'ok' if not errors else 'FAIL'}")
        for error in errors:
            print(f"  {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
