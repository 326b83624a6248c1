"""The benchmark tracer patches package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_names() -> list[str]:
    """SPANS + COUNTED of perfbench/tracer.py, loaded without importing perfbench."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [*tracer.SPANS, *tracer.COUNTED]


@pytest.mark.parametrize("name", tracer_names())
def test_traced_name_resolves(name):
    # renaming or deleting a traced function otherwise fails only a traced run
    layer, func = name.split(".")
    assert callable(getattr(importlib.import_module(f"dirac_cyclotron.{layer}"), func, None))
