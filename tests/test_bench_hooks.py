"""The benchmark's tracer patches minecost functions by name; keep them there."""

import pytest

from tests.conftest import load_script

TRACING_MODULE = load_script("perfbench/tracing.py")


@pytest.mark.parametrize(
    "owner, attr", [(o, a) for o, a, _ in TRACING_MODULE.SPANS + TRACING_MODULE.COUNTERS]
)
def test_traced_name_resolves_in_its_owner(owner, attr):
    assert attr in TRACING_MODULE._owner(owner).__dict__, (
        f"{owner}.{attr} is gone; the tracer looks it up there"
    )
