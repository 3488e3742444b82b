"""Run the benchmark as two independent sets and check that they agree.

Run from the repository root:

    python3 perfbench/agree.py --runs 10

Each of two sets runs ``perfbench/run.py`` once per seed and workload of
BENCHMARK.json, at its ``run_seconds`` (seeds 1..runs, the same in both
sets; the two sets alternate which goes first).
For every end-to-end metric and workload it prints each set's median and
quartile spread (q3 - q1 over the median, as ``statistics.quantiles``
gives them) and a verdict:

* ``agree``: both spreads and the difference of the medians are within
  the metric's bound in BENCHMARK.json;
* ``unresolved``: a set's spread exceeds the bound, so its median cannot
  settle the comparison;
* ``disagree``: spreads are within the bound but the medians are not.

The exit code is 0 when every run was correct and every verdict is
``agree``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "metrics": {}, "stderr": proc.stderr}
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2 to give quartiles")

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}  # (set, workload, metric) -> list of values
    all_correct = True
    for workload in names:
        for i in range(args.runs):
            seed = i + 1
            for s in (0, 1) if i % 2 == 0 else (1, 0):
                result = run_once(workload, seed, seconds)
                all_correct &= bool(result.get("correct"))
                print(f"set {'AB'[s]} {workload} seed {seed}: correct={result.get('correct')} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                      flush=True)
                for metric, entry in result["metrics"].items():
                    values.setdefault((s, workload, metric), []).append(entry["value"])

    all_agree = True
    print(f"\n{'workload':<12} {'metric':<22} {'bound':>6} "
          f"{'median A':>12} {'spread A':>9} {'median B':>12} {'spread B':>9}  diff     verdict")
    for workload in names:
        for metric, bound in bounds.items():
            sets = [values.get((s, workload, metric), []) for s in (0, 1)]
            line = f"{workload:<12} {metric:<22} {bound:>6.3f} "
            if min(len(v) for v in sets) < 2:
                all_agree = False
                print(line + "missing values  unresolved")
                continue
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            diff = (meds[1] - meds[0]) / meds[0]
            if max(spreads) > bound:
                verdict = "unresolved"
            elif abs(diff) <= bound:
                verdict = "agree"
            else:
                verdict = "disagree"
            all_agree &= verdict == "agree"
            print(line + " ".join(f"{m:>12.5g} {sp:>9.4f}" for m, sp in zip(meds, spreads))
                  + f"  {diff:+.4f}  {verdict}")
    return 0 if all_correct and all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
