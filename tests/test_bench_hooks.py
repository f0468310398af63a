"""The benchmark's tracer patches minecost functions by name; keep them there."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _load_tracing()


@pytest.mark.parametrize(
    "owner, attr", [(o, a) for o, a, _ in TRACING_MODULE.SPANS + TRACING_MODULE.COUNTERS]
)
def test_traced_name_resolves_in_its_owner(owner, attr):
    assert attr in TRACING_MODULE._owner(owner).__dict__, (
        f"{owner}.{attr} is gone; the tracer looks it up there"
    )
