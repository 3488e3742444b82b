#!/usr/bin/env python3
"""Paired in-process A/B timing of ``run_batch`` between two source trees.

Usage:

    python scripts/ab_run_batch.py PARENT_SRC CHANGE_SRC [--trials T] [--steps N]
        [--points P] [--rounds K]

Each SRC is a directory that holds a ``csiguard`` package, such as a
checkout's ``src``.  Both trees are loaded into one process as two
packages, so they share one interpreter, one numpy and one heap.
``scipy.special``, where installed, is imported first, as perfbench's
workloads module does (without it, repeated in-process calls page-fault
heavily).  Each round calls ``run_batch`` once per side on the default
scenario (kalman detector) with T trials x N steps at P SNR points
(0, 5, 10, ... dB) on master seed 1, alternating which side goes first,
and measures each call's process time.  After one untimed call per side, the script prints
each side's median, the median of the per-round ratios change / parent,
the number of rounds the change was faster in, and whether the two sides'
statistics are identical bit for bit.  BLAS is pinned to one thread.

It is for sizing a change while writing it; a performance claim still
comes from perfbench.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

try:
    import scipy.special  # noqa: E402, F401
except ImportError:
    pass


def load(src: str, name: str):
    """The csiguard package under ``src``, imported as the package ``name``."""
    init = pathlib.Path(src) / "csiguard" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"{src}: no csiguard package there")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def runner(package, trials: int, steps: int, points: int):
    """A call that runs one batch of ``package``'s run_batch and returns its statistics."""
    cfgs = [
        package.config.ScenarioConfig(snr_db=5.0 * p, num_steps=steps, num_trials=trials)
        for p in range(points)
    ]
    seeds = [package.harness.derive_trial_seed(1, i) for i in range(trials)]
    return lambda: [batch.lam for batch in package.harness.run_batch(cfgs, seeds)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--steps", type=int, default=400)
    parser.add_argument("--points", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if min(args.trials, args.steps, args.points, args.rounds) < 1:
        parser.error("--trials, --steps, --points and --rounds must be at least 1")

    calls = [
        runner(load(src, f"_ab_side_{i}"), args.trials, args.steps, args.points)
        for i, src in enumerate((args.parent_src, args.change_src))
    ]
    outputs = [call() for call in calls]                      # untimed: caches and imports
    identical = all(
        np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(*outputs)
    )
    times: list[list[float]] = [[], []]
    for r in range(args.rounds):
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            start = time.process_time()
            calls[side]()
            times[side].append(time.process_time() - start)

    parent, change = (statistics.median(t) for t in times)
    ratio = statistics.median(c / p for p, c in zip(*times))
    wins = sum(c < p for p, c in zip(*times))
    print(f"run_batch {args.points} point(s) x {args.trials} trial(s) x {args.steps} steps, "
          f"{args.rounds} rounds, process time per call")
    print(f"parent  median {parent * 1e3:.2f} ms  ({args.parent_src})")
    print(f"change  median {change * 1e3:.2f} ms  ({args.change_src})")
    print(f"median paired ratio change/parent {ratio:.4f} ({(ratio - 1.0) * 100:+.2f}%)")
    print(f"change faster in {wins}/{args.rounds} rounds")
    print(f"statistics identical bit for bit: {'yes' if identical else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
