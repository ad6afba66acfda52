"""Memory guards: what a finished run retains per message, and what a run holds on top.

tracemalloc counts the bytes a finished ``run_scenario`` result still
holds; the difference between two run sizes, divided by the difference
in messages, is what each extra message costs. The transient memory of
a run, its peak minus what it retains, must not grow with the run: the
engine, the hub, the blob store and the report work on bounded blocks
of messages, so a whole-run temporary (8 B per message for one int64
array) shows up as growth. The same holds for writing a run's
artifacts. All cover the fixtures of the three benchmark workloads:
batched, immediate-scalar and cloud.
"""

import gc
import os
import tracemalloc
from dataclasses import replace

import pytest

from edgebench.config import load_fixture
from edgebench.core import SeededRng
from edgebench.metrics import CSV_CHUNK, rows_to_csv
from edgebench.runner import run_scenario, write_artifacts
from edgebench.workloads import scalar_batch_body

SMALL, LARGE = 1_000, 5_000
MAX_BYTES_PER_MSG = 150
# the run table's 41 B (five int64 columns and the dropped mask) plus slack: the blob
# store keeps a 16 B range of blob starts per batch and per run of one-message blobs;
# a 32 B row per one-message blob would make it 73 B
MAX_TABLE_BYTES_PER_MSG = 48
FIXTURES = ["acceptance-10k", "greengrass-scalar", "aws-cloud-image"]
# transient sizes: the smaller holds more than one block of every stage
TRANSIENT_SMALL, TRANSIENT_LARGE = 10_000, 40_000
MAX_TRANSIENT_GROWTH = 64 * 1024  # one whole-run int64 temporary would add ~240 KB
# the scalar sizing kernel works on slices of readings; whole-block float64
# temporaries of a 1024 x 12 block would take ~100 KB each
MAX_SCALAR_BODY_PEAK = 256 * 1024
# rows_to_csv's traced peak on one CSV_CHUNK block: ~276 KB on acceptance-10k,
# whose 8 varying columns each take two int64 rows of working space, and ~219
# and ~207 KB on greengrass-scalar and aws-cloud-image, whose 4 and 5 constant
# columns take none
MAX_CSV_CHUNK_PEAK = {"acceptance-10k": 384 * 1024, "greengrass-scalar": 256 * 1024,
                      "aws-cloud-image": 256 * 1024}


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


def transient_bytes(work) -> int:
    """Peak traced memory during ``work()`` minus what is still held after it, its result included."""
    gc.collect()
    tracemalloc.start()
    try:
        result = work()  # noqa: F841 -- alive while its size is read
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
        return peak - retained
    finally:
        tracemalloc.stop()


def sized(fixture, *items):
    config = load_fixture(f"scenarios/{fixture}")
    return [replace(config, workload=replace(config.workload, items=n)) for n in items]


def retained_bytes_per_message(fixture) -> float:
    configs = sized(fixture, SMALL, LARGE)
    run_scenario(configs[0])  # first-use allocations of numpy and the runner are not per message
    small, large = (retained_bytes(c) for c in configs)
    return (large - small) / (LARGE - SMALL)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_retained_bytes_per_message(fixture):
    per_msg = retained_bytes_per_message(fixture)
    assert per_msg < MAX_BYTES_PER_MSG, f"{fixture}: {per_msg:.0f} B retained per message"


@pytest.mark.parametrize("fixture", FIXTURES)
def test_a_run_retains_little_beyond_its_table(fixture):
    # the blob store keeps where each blob starts: acceptance-10k's batches cost it a
    # 16 B range each, and the one-message blobs of greengrass-scalar (immediate hub)
    # and aws-cloud-image (cloud function) one range for the whole run
    per_msg = retained_bytes_per_message(fixture)
    assert per_msg < MAX_TABLE_BYTES_PER_MSG, f"{fixture}: {per_msg:.1f} B retained per message"


@pytest.mark.parametrize("fixture", FIXTURES)
def test_transient_memory_does_not_grow_with_the_run(fixture):
    configs = sized(fixture, TRANSIENT_SMALL, TRANSIENT_LARGE)
    run_scenario(configs[0])  # first-use allocations of numpy and the runner are not per message
    small, large = (transient_bytes(lambda: run_scenario(c)) for c in configs)
    assert large - small < MAX_TRANSIENT_GROWTH, (
        f"{fixture}: transient {small} B at {TRANSIENT_SMALL} messages, {large} B at {TRANSIENT_LARGE}")


def test_scalar_body_sizing_works_in_bounded_slices():
    readings = SeededRng(1).random(1024 * 14).reshape(1024, 14)[:, 2:]  # one block, as run_item passes it
    scalar_batch_body(readings)  # first-use allocations of numpy
    gc.collect()
    tracemalloc.start()
    try:
        scalar_batch_body(readings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_SCALAR_BODY_PEAK, f"scalar_batch_body peaked at {peak} B on one block"


@pytest.mark.parametrize("fixture", FIXTURES)
def test_artifact_memory_does_not_grow_with_the_run(fixture, tmp_path):
    configs = sized(fixture, TRANSIENT_SMALL, TRANSIENT_LARGE)
    write_artifacts(run_scenario(configs[0]), tmp_path)  # first-use allocations
    small, large = (transient_bytes(lambda: write_artifacts(result, tmp_path))
                    for result in map(run_scenario, configs))
    assert large - small < MAX_TRANSIENT_GROWTH, (
        f"{fixture}: writing artifacts took {small} B at {TRANSIENT_SMALL} messages, {large} B at {TRANSIENT_LARGE}")


@pytest.mark.parametrize("fixture", FIXTURES)
def test_csv_writer_works_in_bounded_chunks(fixture):
    (config,) = sized(fixture, CSV_CHUNK)
    table = run_scenario(config).table
    with open(os.devnull, "wb") as sink:
        rows_to_csv(table, sink)  # first-use allocations of numpy
        gc.collect()
        tracemalloc.start()
        try:
            rows_to_csv(table, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < MAX_CSV_CHUNK_PEAK[fixture], f"{fixture}: rows_to_csv peaked at {peak} B on one {CSV_CHUNK}-row block"
