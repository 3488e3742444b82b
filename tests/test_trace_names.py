"""The benchmark's tracer finds every kernel it names.

``perfbench/tracing.py`` wraps csiguard functions by (module, attribute)
name, and a name that no longer resolves is only listed as missing, so a
renamed kernel would silently drop out of the per-layer numbers.  The
tracer module is loaded from its file and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from csiguard import harness
from csiguard.config import ScenarioConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _tracing()


@pytest.mark.parametrize("module, attr", TRACED.FUNCTIONS)
def test_traced_function_resolves(module, attr):
    owner = importlib.import_module(f"csiguard.{module}")
    assert callable(getattr(owner, attr, None)), f"csiguard.{module}.{attr}"


@pytest.mark.parametrize("module, cls_name, attr", TRACED.METHODS)
def test_traced_method_resolves(module, cls_name, attr):
    cls = getattr(importlib.import_module(f"csiguard.{module}"), cls_name, None)
    assert cls is not None, f"csiguard.{module}.{cls_name}"
    # The tracer patches the class attribute itself, so it must be defined there.
    assert callable(cls.__dict__.get(attr)), f"csiguard.{module}.{cls_name}.{attr}"


def test_write_csv_takes_the_path_second():
    # The tracer counts the bytes written through traced(result, path, ...),
    # so harness.write_csv must keep the output path as its second parameter.
    assert list(inspect.signature(harness.write_csv).parameters)[1] == "path"


def test_sweep_records_one_batch_span_over_every_point_step():
    # perfbench reads the step gaps of a sweep from the prepare_state spans
    # directly under the run_batch span, so the points of a sweep must run
    # inside one run_batch call, one kernel chain per step for all of its
    # points: here 2 points x 5 steps give 5 spans.  Each kernel of the
    # filter step must be called through its module attribute, which the
    # tracer patches, so each records one span per step there too.
    cfg = ScenarioConfig(
        num_steps=5, num_trials=2, num_paths=4, dft_size=32, pilot_spec="first:16",
        slope_points=32,
    )
    tracer = TRACED.Tracer()
    tracer.reset("sweep")
    patches = TRACED.Patches()
    patches.install(tracer)
    try:
        harness.sweep(cfg, "snr_db", [5.0, 10.0])
    finally:
        patches.uninstall()
    assert patches.missing == []
    spans = tracer.spans
    batches = [i for i, span in enumerate(spans) if span[0] == TRACED.BATCH_SPAN]
    assert len(batches) == 1
    kernels = ("kernels.phase_search", "kernels.whitened_quadform", "kernels.kalman_update")
    for name in (TRACED.STEP_SPAN, *kernels):
        steps = [span for span in spans if span[0] == name]
        assert len(steps) == 5, name
        assert all(span[3] == batches[0] for span in steps), name
    assert TRACED.summarize(spans)["step_gaps_ms"]
