"""Blob store: creation, listing, on-disk mirror."""

import json

import numpy as np

from edgebench.metrics import UNSET, RunTable
from edgebench.storage import BlobStore


def store_of(n=10, payload=162, **kwargs):
    """A blob store over a run table of ``n`` messages of ``payload`` bytes each."""
    table = RunTable(n)
    table.started = n
    for mid in range(n):
        table.payload[mid] = payload
    return BlobStore(table, **kwargs)


class TestCreateBlob:
    def test_single_message_size(self):
        store = store_of(envelope_bytes=0)
        store.create_blob([0], [1], [100])
        (record,) = store.list_blobs()
        assert record.size_bytes == 162
        assert record.message_ids == [0]
        assert store.table.t3[0] == 100
        assert store.table.blob[0] == 0

    def test_empty_blob_is_envelope_only(self):
        store = store_of(envelope_bytes=64)
        store.create_blob([0], [0], [5])
        (record,) = store.list_blobs()
        assert record.size_bytes == 64
        assert record.message_ids == []

    def test_blob_names_are_unique(self):
        # two blobs that start with the same message still get different names
        store = store_of()
        for created_at in range(3):
            store.create_blob([0], [0], [created_at])
        store.create_blob([0], [1], [3])
        names = [r.name for r in store.list_blobs()]
        assert len(set(names)) == len(names) == 4

    def test_names_are_deterministic_and_sortable(self):
        store = store_of(route="results")
        for i in range(3):
            store.create_blob([i], [i + 1], [i])
        names = [r.name for r in store.list_blobs()]
        assert names == sorted(names)
        assert names[0] == "results/000000-0.json"


    def test_range_holds_only_delivered_messages(self):
        store = store_of(envelope_bytes=10)
        store.table.dropped[1] = True
        store.create_blob([0], [3], [5])
        (record,) = store.list_blobs()
        assert record.message_ids == [0, 2]
        assert record.size_bytes == 10 + 2 * 162
        assert store.table.t3[1] == UNSET and store.table.blob[1] == UNSET

    def test_settle_creates_due_blobs_in_time_then_id_order(self):
        store = store_of()
        store.schedule(np.array([30, 10, 10]), np.array([0, 2, 1]), np.array([1, 3, 2]))
        store.schedule(np.array([40]), np.array([3]), np.array([4]))
        assert store.latest == 40
        store.settle(30)
        assert [(r.name, r.created_at) for r in store.list_blobs()] == [
            ("results/000000-1.json", 10), ("results/000001-2.json", 10), ("results/000002-0.json", 30)]
        store.settle()
        assert [r.name for r in store.list_blobs()][-1] == "results/000003-3.json"


class TestListBlobs:
    def test_empty_store(self):
        assert store_of().list_blobs() == []

    def test_sorted_by_time_then_name(self):
        store = store_of()
        store.create_blob([0], [1], [2])
        store.create_blob([1], [2], [2])
        store.create_blob([2], [3], [1])
        assert [r.message_ids for r in store.list_blobs()] == [[2], [0], [1]]

    def test_prefix_filter(self):
        store = store_of(route="audio")
        store.create_blob([0], [1], [1])
        store.create_blob([1], [2], [2])
        assert [r.name for r in store.list_blobs("audio/")] == ["audio/000000-0.json",
                                                                "audio/000001-1.json"]
        assert store.list_blobs("image/") == []

    def test_created_at_non_decreasing_in_insertion_order(self):
        store = store_of()
        for i in range(10):
            store.create_blob([i], [i + 1], [i * 100])
        times = [r.created_at for r in store.list_blobs()]
        assert times == sorted(times)

    def test_listing_is_kept_until_the_next_blob(self):
        store = store_of()
        store.create_blob([0], [2], [1])
        first = store.list_blobs()
        first[0].message_ids.pop()
        assert store.list_blobs()[0] is first[0]
        store.create_blob([2], [3], [2])
        assert [r.message_ids for r in store.list_blobs()] == [[0, 1], [2]]


class TestPersistence:
    def test_mirror_schema(self, tmp_path):
        store = store_of(payload=10, persist_dir=tmp_path)
        store.table.t1[0], store.table.t2[0] = 42, 50
        store.bodies[0] = "x" * 10
        store.create_blob([0], [1], [99])
        path = tmp_path / "results" / "000000-0.json"
        doc = json.loads(path.read_text())
        assert doc["name"] == "results/000000-0.json"
        assert doc["created_at"] == 99
        assert doc["messages"] == [{"id": 0, "t1": 42, "t2": 50, "body": "x" * 10}]
        assert store.bodies == {}

    def test_no_mirror_without_dir(self, tmp_path):
        store = store_of()
        store.create_blob([0], [1], [1])
        assert list(tmp_path.iterdir()) == []
