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

The script also saves those arrays, with each shape's kalman decisions,
to ``OUT_DIR/arrays.npz``.  For a change that moves results in their last
bits, ``--against OTHER_DIR`` (a directory an earlier run wrote) then
prints one line per shape after the digests: the largest relative
deviation of ``lam`` and ``mse`` from OTHER_DIR's, the largest absolute
``phase_est`` deviation in rad (offsets compared around the circle) and
the number of kalman decisions that differ.  It exits 1 when a shape flips
any kalman decision or is missing from OTHER_DIR, so a claim of no flipped
decision needs no reading by eye.

    PYTHONPATH=src python scripts/check_outputs.py OUT_DIR --against OTHER_DIR
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

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
    hashes = {name: hashlib.sha256() for name in ARRAYS}
    for batch in batches:
        for name, h in hashes.items():
            h.update(np.ascontiguousarray(getattr(batch, name)).tobytes())
    return {name: h.hexdigest() for name, h in hashes.items()}


def saved_arrays(label: str, batches) -> dict:
    """``label.name`` -> ARRAYS and kalman decisions of one shape, stacked over its batches."""
    arrays = {f"{label}.{name}": np.stack([getattr(b, name) for b in batches]) for name in ARRAYS}
    arrays[f"{label}.kalman_decisions"] = np.stack([b.decisions("kalman") for b in batches])
    return arrays


def _max_rel(a, b) -> float:
    """Largest |a - b| / |b|: 0 where the two are equal (NaNs included), inf
    where only one is NaN or where b is 0 and a is not."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(a - b) / np.abs(b)
    rel[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    return float(np.where(np.isnan(rel), np.inf, rel).max(initial=0.0))


def compare(ours, theirs) -> list[str]:
    """One report line per shape in ``ours`` (mappings as saved_arrays builds them)."""
    lines, names = [], (*ARRAYS, "kalman_decisions")
    for label in dict.fromkeys(key.split(".")[0] for key in ours):
        a = {name: ours[f"{label}.{name}"] for name in names}
        b = {name: theirs.get(f"{label}.{name}") for name in names}
        if any(b[name] is None or b[name].shape != a[name].shape for name in names):
            lines.append(f"{label} against: missing from OTHER_DIR or of another shape")
            continue
        phase = np.abs(a["phase_est"] - b["phase_est"])
        phase = np.minimum(phase, 2.0 * np.pi - phase)  # offsets either side of -pi
        flips = np.count_nonzero(a["kalman_decisions"] != b["kalman_decisions"])
        lines.append(
            f"{label} against: lam max_rel={_max_rel(a['lam'], b['lam']):.3e}"
            f" mse max_rel={_max_rel(a['mse'], b['mse']):.3e}"
            f" phase_est max_abs={float(phase.max(initial=0.0)):.3e} rad kalman_flips={flips}"
        )
    return lines


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
    dirs, against = list(argv), None
    if len(dirs) == 3 and dirs[1] == "--against":
        dirs, against = dirs[:1], pathlib.Path(dirs[2]) / "arrays.npz"
    if len(dirs) != 1:
        print("usage: check_outputs.py OUT_DIR [--against OTHER_DIR]", file=sys.stderr)
        return 2
    from csiguard.cli import cli_main

    theirs = None
    if against is not None:
        # Read first: OTHER_DIR may be OUT_DIR, whose arrays.npz this run rewrites.
        try:
            with np.load(against) as npz:
                theirs = dict(npz)
        except OSError as exc:
            print(f"--against: cannot read {against}: {exc}", file=sys.stderr)
            return 2
    out_dir = pathlib.Path(dirs[0])
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
    ours = {}
    for label, num_trials, num_steps, snrs in ARRAY_RUNS:
        batches = run_arrays(num_trials, num_steps, snrs)
        for name, sha in array_digests(batches).items():
            print(f"{label} {name} sha256={sha}")
        ours.update(saved_arrays(label, batches))
    np.savez(out_dir / "arrays.npz", **ours)
    if theirs is not None:
        lines = compare(ours, theirs)
        print("\n".join(lines))
        failed = [line.split()[0] for line in lines if not line.endswith(" kalman_flips=0")]
        if failed:
            print(f"--against: kalman decisions differ or are missing: {', '.join(failed)}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
