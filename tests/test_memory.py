"""Memory guard: what a finished run retains per message.

tracemalloc counts the bytes a finished ``run_scenario`` result still
holds; the difference between two run sizes, divided by the difference
in messages, is what each extra message costs. It covers the fixtures
of the three benchmark workloads: batched, immediate-scalar and cloud.
"""

import gc
import tracemalloc
from dataclasses import replace

import pytest

from edgebench.config import load_fixture
from edgebench.runner import run_scenario

SMALL, LARGE = 1_000, 5_000
MAX_BYTES_PER_MSG = 150


def retained_bytes(config) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_scenario(config)  # noqa: F841 -- alive while its size is read
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fixture", ["acceptance-10k", "greengrass-scalar", "aws-cloud-image"])
def test_retained_bytes_per_message(fixture):
    config = load_fixture(f"scenarios/{fixture}")
    sized = [replace(config, workload=replace(config.workload, items=n)) for n in (SMALL, LARGE)]
    run_scenario(sized[0])  # first-use allocations of numpy and the runner are not per message
    small, large = (retained_bytes(c) for c in sized)
    per_msg = (large - small) / (LARGE - SMALL)
    assert per_msg < MAX_BYTES_PER_MSG, f"{fixture}: {per_msg:.0f} B retained per message"
