"""Benchmark csiguard's Kalman-residual decisions through its CLI.

Run from the repository root:

    python3 perfbench/run.py --workload simulate_t1 --seed 1 --seconds 35 --trace 0

Each repetition calls ``csiguard.cli.cli_main`` in this process with the
workload's arguments, exactly as a user runs the CLI, then checks the
CSV it wrote.  Repetitions of one run share the seed, so they must also
write identical bytes.  The first repetition warms caches and is not
timed; timed repetitions follow until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics; see README.md.  The last stdout line is one JSON
object: correct, attempted, failed, metrics.
"""

import os

# Pin BLAS before numpy loads: one thread, recorded in the provenance.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Patches, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_TIMED_REPS = 3        # per kind: untraced, and traced when tracing
MAX_RUN_S = 150.0         # stop starting repetitions after this long
SETUP_REPEATS = 5
# Set-up: import csiguard, build the config, and let the first run fill
# the grid and slope tables, through a two-step simulate.  The first
# argument, 0 or 1, turns tracing of the set-up on.
SETUP_ARGS = ("simulate", "--detectors", "kalman", "--num-steps", "2")
SETUP_CODE = """
import json, sys, time
trace = sys.argv[1] == "1"
if trace:
    from tracing import Patches, Tracer, summarize
t0 = time.perf_counter()
from csiguard.cli import cli_main
if trace:
    tracer, patches = Tracer(), Patches()
    tracer.reset("setup")
    patches.install(tracer)
    rc = tracer.call("cli.cli_main", cli_main, (sys.argv[2:],), {})
else:
    rc = cli_main(sys.argv[2:])
out = {"rc": rc, "setup_s": time.perf_counter() - t0}
if trace:
    out.update(trace=summarize(tracer.spans), missing=patches.missing)
print(json.dumps(out))
"""

# Machine-speed reference.  Other tenants of a shared host slow this box
# by up to 40% for seconds to minutes, and CPU time slows with wall time.
# A fixed task in the kernels' style (small complex numpy operations plus
# a pure Python loop) is timed before and after every repetition; a
# repetition's times are divided by the geometric mean of the two
# reference times over REF_NOMINAL_S, the task's median time on a quiet
# 2-core box.  The task runs no csiguard code, so a change to csiguard
# moves the scaled times fully.
REF_NOMINAL_S = 0.075
REF_NUMPY_ITERS = 400
REF_PYTHON_ITERS = 400_000
_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((16, 8, 114)) + 1j * _REF_RNG.standard_normal((16, 8, 114))
_REF_B = _REF_RNG.standard_normal((16, 8)) + 0j

END_TO_END_UNITS = {
    "decisions_per_s": "1/s",
    "cpu_ms_per_kdecision": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (name, unit, span, statistic, source).  Statistics
# s / self_s / calls are per repetition; "setup" metrics come from the
# traced cold set-up, the others from traced repetitions.
LAYER_METRICS = (
    ("kernels.phase_search.s", "s", "kernels.phase_search", "s", "rep"),
    ("kernels.phase_search.self_s", "s", "kernels.phase_search", "self_s", "rep"),
    ("kernels.phase_search.calls", "count", "kernels.phase_search", "calls", "rep"),
    ("kernels.phase_search.us_per_call", "us", "kernels.phase_search", "us_per_call", "rep"),
    ("kernels.phase_search.share", "fraction", "kernels.phase_search", "share", "rep"),
    ("kernels.phase_search.evals_per_search", "count", "kernels.candidate_objective",
     "per_search", "rep"),
    ("kernels.candidate_objective.s", "s", "kernels.candidate_objective", "s", "rep"),
    ("kernels.GridTables.ramp.s", "s", "kernels.GridTables.ramp", "s", "rep"),
    ("kernels.GridTables.ramp.calls", "count", "kernels.GridTables.ramp", "calls", "rep"),
    ("kernels.prepare_state.s", "s", "kernels.prepare_state", "s", "rep"),
    ("kernels.whitened_quadform.s", "s", "kernels.whitened_quadform", "s", "rep"),
    ("kernels.kalman_update.s", "s", "kernels.kalman_update", "s", "rep"),
    ("harness.run_batch.self_s", "s", "harness.run_batch", "self_s", "rep"),
    ("harness.step_ms.p50", "ms", "kernels.prepare_state", "step_p50", "rep"),
    ("harness.step_ms.p99", "ms", "kernels.prepare_state", "step_p99", "rep"),
    ("harness.trial_records.self_s", "s", "harness.trial_records", "self_s", "rep"),
    ("harness.sweep.self_s", "s", "harness.sweep", "self_s", "rep"),
    ("harness.write_csv.s", "s", "harness.write_csv", "s", "rep"),
    ("harness.write_csv.bytes", "bytes", "harness.write_csv", "bytes", "rep"),
    ("harness.roc_points.s", "s", "harness.roc_points", "s", "rep"),
    ("detector.calibrate_empirical_threshold.s", "s",
     "detector.calibrate_empirical_threshold", "s", "rep"),
    ("cli.cli_main.s", "s", "cli.cli_main", "s", "rep"),
    ("config.config_from_mapping.s", "s", "config.config_from_mapping", "s", "setup"),
    ("kernels.grid_tables.s", "s", "kernels.grid_tables", "s", "setup"),
    ("kernels.slope_tables.s", "s", "kernels.slope_tables", "s", "setup"),
    ("observation.partial_dft.s", "s", "observation.partial_dft", "s", "setup"),
    ("channel.make_profile.s", "s", "channel.make_profile", "s", "setup"),
    ("detector.threshold.s", "s", "detector.threshold", "s", "setup"),
    ("numerics.chi2_quantile.s", "s", "numerics.chi2_quantile", "s", "setup"),
    ("trace_overhead_pct", "%", None, "overhead", "rep"),
)


@dataclass
class Rep:
    traced: bool
    ok: bool = False
    wall_s: float = 0.0
    cpu_s: float = 0.0
    slowdown: float = 1.0   # reference time around the repetition / REF_NOMINAL_S
    sha256: str | None = None
    error: str | None = None
    check: dict = field(default_factory=dict)
    trace: dict | None = None


def reference_s() -> float:
    """Wall time of the fixed machine-speed reference task."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(REF_NUMPY_ITERS):
        s = np.matmul(_REF_B[:, None, :], _REF_A)[:, 0, :]
        e = np.exp(-1j * s.real)
        acc += np.einsum("tq,tq->t", e.conj(), s).real.sum()
    for i in range(REF_PYTHON_ITERS):
        acc += i * i % 7
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("reference task lost its result")
    return elapsed


def load_program():
    """Import csiguard from ./src, or exit non-zero without a result."""
    if not os.path.isfile(os.path.join(SRC, "csiguard", "__init__.py")):
        sys.exit(f"perfbench: no csiguard package under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import csiguard
    import csiguard.cli
    import csiguard.harness

    if not os.path.abspath(csiguard.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported csiguard from {csiguard.__file__}, not {SRC}")
    return csiguard


def measure_setup(seed: int, trace: bool) -> tuple[list[dict], list[str]]:
    """Set-up of fresh interpreters, timed (and traced) inside each one.

    Returns one sample per interpreter, with its set-up time, its slowdown
    from the reference times measured before and after it, and its span
    summary when tracing; and the traced names csiguard does not have.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    out_path = os.path.join(WORK, f"setup.{os.getpid()}.csv")
    samples, missing = [], set()
    before = reference_s()
    try:
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(int(trace)), *SETUP_ARGS,
                 "--seed", str(seed), "--out", out_path],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or result["rc"] != 0:
                sys.exit(f"perfbench: set-up failed:\n{proc.stdout}{proc.stderr}")
            after = reference_s()
            slowdown = math.sqrt(before * after) / REF_NOMINAL_S
            before = after
            samples.append({"setup_s": result["setup_s"] / slowdown, "slowdown": slowdown,
                            "trace": result.get("trace")})
            missing.update(result.get("missing", ()))
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)
    return samples, sorted(missing)


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_rep(csiguard, wl, seed, out_path, tracer=None, run_id=0) -> Rep:
    """One CLI call, timed, then its output checked outside the timing."""
    rep = Rep(traced=tracer is not None)
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    argv = wl.cli_args(seed, out_path)
    patches = Patches()
    if tracer is not None:
        tracer.reset(run_id)
        patches.install(tracer)
    rc = None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is not None:
                rc = tracer.call("cli.cli_main", csiguard.cli.cli_main, (argv,), {})
            else:
                rc = csiguard.cli.cli_main(argv)
    except Exception:  # a crash is a failed repetition, not a crashed benchmark
        rep.error = traceback.format_exc()
    rep.wall_s = time.perf_counter() - t0
    rep.cpu_s = _cpu_s() - cpu0
    patches.uninstall()
    if tracer is not None:
        rep.trace = summarize(tracer.spans)
        rep.trace["counters"] = dict(tracer.counters)
    if rep.error is None and rc != 0:
        rep.error = f"cli_main returned {rc}"
    if rep.error is None:
        try:
            rep.check = wl.check(csiguard, wl, out_path)
            rep.sha256 = _sha256(out_path)
            rep.ok = True
        except Exception:  # any unreadable or implausible output fails the check
            rep.error = traceback.format_exc()
    return rep


def measure(csiguard, wl, seed: int, seconds: float, trace: bool):
    """Warm-up repetition, then timed repetitions until the deadline."""
    out_path = os.path.join(WORK, f"{wl.name}.{os.getpid()}.csv")
    tracer = Tracer() if trace else None
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    deadline = start + seconds
    warm = run_rep(csiguard, wl, seed, out_path)
    reps: list[Rep] = []
    before = reference_s()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(csiguard, wl, seed, out_path, tracer if traced else None, len(reps))
        after = reference_s()
        rep.slowdown = math.sqrt(before * after) / REF_NOMINAL_S
        before = after
        reps.append(rep)
        enough = all(sum(r.traced == k for r in reps) >= MIN_TIMED_REPS for k in kinds)
        typical = statistics.median(r.wall_s for r in reps)
        now = time.perf_counter()
        if enough and (now + typical > deadline or now - start > MAX_RUN_S):
            break
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    return warm, reps


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(wl, reps, setup_samples) -> dict:
    ok = [r for r in reps if r.ok]
    return {
        "decisions_per_s": _median(wl.decisions * r.slowdown / r.wall_s for r in ok),
        "cpu_ms_per_kdecision": _median(1e6 * r.cpu_s / r.slowdown / wl.decisions for r in ok),
        "setup_s": _median(s["setup_s"] for s in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _span_stat(summary: dict, span: str, stat: str) -> float:
    return summary["spans"].get(span, {}).get(stat, 0)


def layer_metrics(reps, setup_samples) -> tuple[dict, dict]:
    """Per-layer metric values, and the calls behind each one.

    Times are scaled by the slowdown of their repetition or set-up sample,
    like the end-to-end times.
    """
    traced = [r for r in reps if r.ok and r.traced]
    plain = [r for r in reps if r.ok and not r.traced]
    gaps = sorted(g / r.slowdown for r in traced for g in r.trace["step_gaps_ms"])
    values, calls = {}, {}
    for name, _unit, span, stat, source in LAYER_METRICS:
        if source == "setup":
            runs = [(s["trace"], s["slowdown"]) for s in setup_samples]
        else:
            runs = [(r.trace, r.slowdown) for r in traced]
        if span is not None:
            calls[name] = _median(_span_stat(s, span, "calls") for s, _ in runs)
        if stat == "calls":
            value = _median(_span_stat(s, span, stat) for s, _ in runs)
        elif stat in ("s", "self_s"):
            value = _median(_span_stat(s, span, stat) / slow for s, slow in runs)
        elif stat == "us_per_call":
            value = _median(1e6 * _span_stat(s, span, "s") / slow
                            / max(1, _span_stat(s, span, "calls")) for s, slow in runs)
        elif stat == "share":
            value = _median(_span_stat(r.trace, span, "s") / r.wall_s for r in traced)
        elif stat == "per_search":
            value = _median(
                _span_stat(s, span, "calls") / max(1, _span_stat(s, "kernels.phase_search", "calls"))
                for s, _ in runs
            )
        elif stat == "bytes":
            value = _median(s["counters"].get("harness.write_csv.bytes", 0) for s, _ in runs)
        elif stat in ("step_p50", "step_p99"):
            q = 50 if stat == "step_p50" else 99
            value = statistics.quantiles(gaps, n=100)[q - 1] if len(gaps) >= 2 else 0.0
        elif stat == "overhead":
            base = _median(r.wall_s / r.slowdown for r in plain)
            traced_base = _median(r.wall_s / r.slowdown for r in traced)
            value = 100.0 * (traced_base / base - 1.0) if base else 0.0
        values[name] = value
    return values, calls


def _self_share(rep: Rep) -> float:
    """Self time of all kernels and harness spans over the repetition's wall time."""
    spans = rep.trace["spans"]
    total = sum(v["self_s"] for k, v in spans.items() if k.startswith(("kernels.", "harness.")))
    return total / rep.wall_s


def _git_state() -> tuple[str | None, bool | None]:
    """The checked-out commit and whether the working tree differs from it."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return head, bool(status.strip())


def _blas(module) -> dict:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def provenance(loadavg) -> dict:
    import numpy
    import scipy

    commit, dirty = _git_state()
    return {
        "numpy": numpy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "git_dirty": dirty,
        "loadavg_start": list(loadavg),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int,
                        help="master seed passed to the CLI as --seed (>= 0)")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    csiguard = load_program()
    os.makedirs(WORK, exist_ok=True)
    setup_samples, missing = measure_setup(args.seed, trace)
    warm, reps = measure(csiguard, wl, args.seed, args.seconds, trace)

    everything = [warm, *reps]
    failed = [r for r in everything if not r.ok]
    shas = sorted({r.sha256 for r in everything if r.sha256})
    problems = [f"repetition failed:\n{r.error}" for r in failed]
    if len(shas) > 1:
        problems.append(f"repetitions of one seed wrote different bytes: {shas}")
    if trace:
        layer, calls = layer_metrics(reps, setup_samples)
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        metrics = layer
    else:
        metrics = end_to_end_metrics(wl, reps, setup_samples)
        units = END_TO_END_UNITS
        calls = {}
    correct = not problems

    timed = [r for r in reps if not r.traced]
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "decisions_per_rep": wl.decisions,
        "attempted": len(everything),
        "failed": len(failed),
        "failed_fraction": len(failed) / len(everything),
        "output_sha256": shas,
        "checks": warm.check,
        "metrics": metrics,
        "calls": calls,
        "untraced_wall_s": [r.wall_s for r in timed],
        "traced_wall_s": [r.wall_s for r in reps if r.traced],
        "slowdown": [r.slowdown for r in reps],
        "self_share": [_self_share(r) for r in reps if r.traced and r.ok],
        "setup_samples_s": [s["setup_s"] for s in setup_samples],
        "unwrapped": missing,
        "problems": problems,
        "provenance": provenance(loadavg),
    }
    results_path = os.path.join(WORK, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if missing:
        print(f"perfbench: not traced (absent): {', '.join(missing)}", file=sys.stderr)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(timed)} untraced and {len(reps) - len(timed)} traced timed repetitions "
          f"of {wl.decisions} decisions, 1 warm-up")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_fraction = {result['failed_fraction']:.6g} "
          f"({len(failed)} of {len(everything)} repetitions)")
    walls = sorted(r.wall_s for r in timed)
    print(f"  untraced repetition wall time: median {statistics.median(walls):.4g} s, "
          f"max {walls[-1]:.4g} s over {len(walls)}; unscaled decisions_per_s = "
          f"{wl.decisions / statistics.median(walls):.6g} 1/s; median slowdown "
          f"{statistics.median(r.slowdown for r in reps):.4g}")
    for sha in shas:
        print(f"  sha256 {wl.output} {sha}")
    print(f"  checks {json.dumps(warm.check)}")
    print(f"  provenance {json.dumps(result['provenance'])}")
    print(f"  details {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
