#!/usr/bin/env python3
"""Write the six gate CSVs and print one digest line per file and per array.

Usage, from a checkout whose ``src`` holds the csiguard to check:

    PYTHONPATH=src python scripts/check_outputs.py OUT_DIR

Each command runs through ``csiguard.cli.cli_main`` at ``--seed 3`` and
writes one CSV under OUT_DIR.  The sixth reads a config file that the
script writes to OUT_DIR first and that sets every key away from its
default.  For each file the script prints its name,
the ``config_hash`` of its first line and the sha256 of its body (every
line after the first).  The CSVs round to printed digits, so the script
then runs ``run_batch`` at four shapes (one trial over 400 steps, two
trials, 64 trials, and a sweep of 4 points x 16 trials) and prints the
sha256 of the raw bytes of its ``lam``, ``mag``, ``phase_est`` and
``mse`` arrays.  To check that a change leaves the results bit for bit,
run the script against both checkouts (point PYTHONPATH at each ``src``
in turn) and ``diff`` the two printouts: only the ``config_hash`` column
may differ.  BLAS is pinned to one thread, since a threaded BLAS may sum
in a different order.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

SEED = "3"

# (output file, CLI arguments before --seed and --out)
COMMANDS = (
    ("simulate.csv", ["simulate", "--detectors", "kalman,magnitude_diff", "--num-steps", "400"]),
    ("sweep_snr.csv", ["sweep-snr", "--values", "0,5,10,15", "--num-trials", "16",
                       "--num-steps", "100"]),
    ("roc.csv", ["roc", "--num-trials", "64", "--detectors", "kalman,magnitude_diff",
                 "--num-steps", "202"]),
    ("sweep_doppler.csv", ["sweep-doppler", "--values", "1e-4,1e-2", "--num-trials", "4",
                           "--num-steps", "60"]),
    ("simulate_m64.csv", ["simulate", "--num-steps", "300", "--set", "grid.dft_size=64",
                          "--set", "grid.pilot_spec=all"]),
)

# Every config key at a value other than its default.
CONFIG_TEXT = """\
snr_db = 7.5
doppler = 3e-4
num_steps = 240
num_trials = 3
p_fa = 0.05
seed = 3
detectors = kalman,magnitude_diff
phase.max_slope = 0.3
channel.num_paths = 6
channel.pdp_decay = 0.25
grid.dft_size = 64
grid.pilot_spec = 2-30,34-62
search.slope_points = 80
"""


# run_batch's digested arrays, and the shapes it runs at: (label, number
# of trials, steps, SNRs in dB), every run with both detectors (so at
# least 202 steps, for the magnitude baseline's 100 calibration samples),
# the phase estimates and the MSE, on trial seeds derive_trial_seed(3, i).
ARRAYS = ("lam", "mag", "phase_est", "mse")
ARRAY_RUNS = (
    ("run_batch_t1", 1, 400, (10.0,)),
    ("run_batch_t2", 2, 240, (10.0,)),
    ("run_batch_t64", 64, 202, (10.0,)),
    ("run_batch_sweep_4x16", 16, 202, (0.0, 5.0, 10.0, 15.0)),
)


def array_digests(batches) -> dict[str, str]:
    """sha256 hex of each of ARRAYS, over the raw bytes of every batch's array in turn."""
    import numpy as np

    hashes = {name: hashlib.sha256() for name in ARRAYS}
    for batch in batches:
        for name, h in hashes.items():
            h.update(np.ascontiguousarray(getattr(batch, name)).tobytes())
    return {name: h.hexdigest() for name, h in hashes.items()}


def run_arrays(num_trials: int, num_steps: int, snrs) -> list:
    """run_batch's TrialBatch for each point of one ARRAY_RUNS shape."""
    from csiguard.config import ScenarioConfig
    from csiguard.harness import derive_trial_seed, run_batch

    cfgs = [
        ScenarioConfig(snr_db=snr, num_steps=num_steps, num_trials=num_trials,
                       detectors=("kalman", "magnitude_diff"))
        for snr in snrs
    ]
    seeds = [derive_trial_seed(int(SEED), i) for i in range(num_trials)]
    return run_batch(cfgs, seeds, collect_phase=True, collect_mse=True)


def digest(path) -> tuple[str, str]:
    """(config_hash of line 1, sha256 hex of every line after the first)."""
    with open(path, "rb") as fh:
        first = fh.readline().decode("utf-8")
        body = fh.read()
    fields = dict(f.split("=", 1) for f in first.lstrip("#").split() if "=" in f)
    return fields.get("config_hash", ""), hashlib.sha256(body).hexdigest()


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: check_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    from csiguard.cli import cli_main

    out_dir = pathlib.Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "all_keys.cfg"
    config.write_text(CONFIG_TEXT, encoding="utf-8")
    for name, args in (*COMMANDS, ("roc_all_keys.csv", ["roc", "--config", str(config)])):
        path = out_dir / name
        # The CLI's "wrote ..." lines go to stderr, so stdout holds only digests.
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli_main([*args, "--seed", SEED, "--out", str(path)])
        if rc != 0:
            print(f"{name}: exit {rc}", file=sys.stderr)
            return rc
        config, body = digest(path)
        print(f"{name} config_hash={config} body_sha256={body}")
    for label, num_trials, num_steps, snrs in ARRAY_RUNS:
        for name, sha in array_digests(run_arrays(num_trials, num_steps, snrs)).items():
            print(f"{label} {name} sha256={sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
