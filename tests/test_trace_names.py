"""The benchmark's tracer finds every kernel it names.

``perfbench/tracing.py`` wraps csiguard functions by (module, attribute)
name, and a name that no longer resolves is only listed as missing, so a
renamed kernel would silently drop out of the per-layer numbers.  The
tracer module is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
