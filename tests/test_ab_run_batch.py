"""The paired A/B timing script: two source trees in one process, each run
as its own package, with one line per reported figure."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_run_batch.py"
SRC = SCRIPT.parents[1] / "src"


def _run(parent, change, *options):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change), *options],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_one_tree_twice():
    lines = _run(SRC, SRC, "--trials", "2", "--steps", "3", "--rounds", "3")
    assert lines[0] == "run_batch 1 point(s) x 2 trial(s) x 3 steps, 3 rounds, process time per call"
    assert re.fullmatch(rf"parent  median \d+\.\d\d ms  \({re.escape(str(SRC))}\)", lines[1])
    assert re.fullmatch(rf"change  median \d+\.\d\d ms  \({re.escape(str(SRC))}\)", lines[2])
    assert re.fullmatch(r"median paired ratio change/parent \d\.\d{4} \([+-]\d+\.\d\d%\)", lines[3])
    assert re.fullmatch(r"change faster in [0-3]/3 rounds", lines[4])
    assert lines[5] == "statistics identical bit for bit: yes"
    assert len(lines) == 6


def test_each_side_runs_its_own_tree(tmp_path):
    # A copy whose statistic is scaled must read as a different tree.
    shutil.copytree(SRC / "csiguard", tmp_path / "csiguard",
                    ignore=shutil.ignore_patterns("__pycache__"))
    kernels = tmp_path / "csiguard" / "_kernels.py"
    text = kernels.read_text()
    assert text.count("2.0 * quad, offset, slope") == 1
    kernels.write_text(text.replace("2.0 * quad, offset, slope", "2.5 * quad, offset, slope"))
    lines = _run(SRC, tmp_path, "--trials", "1", "--steps", "2", "--points", "2", "--rounds", "1")
    assert lines[0].startswith("run_batch 2 point(s) x 1 trial(s) x 2 steps, 1 rounds")
    assert lines[5] == "statistics identical bit for bit: no"
