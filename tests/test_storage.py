"""Blob store: creation, listing, on-disk mirror."""

import json

import numpy as np

from edgebench.metrics import UNSET, RunTable
from edgebench.storage import BlobStore
from edgebench.workloads import DEVICE, synthesize_body


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
        assert store.table.t3[1] == UNSET

    def test_blobs_numbered_by_creation_time_then_first_id(self):
        # blobs are created in any order; T3 is stamped at once, the ordinals when listed
        store = store_of()
        store.create_blob([3], [4], [40])
        store.create_blob(np.array([0, 2]), np.array([1, 3]), np.array([30, 10]))
        store.create_blob([1], [2], [10])
        assert store.latest == 40
        assert store.table.t3[:4].tolist() == [30, 10, 10, 40]
        assert [(r.name, r.created_at, r.message_ids) for r in store.list_blobs()] == [
            ("results/000000-1.json", 10, [1]), ("results/000001-2.json", 10, [2]),
            ("results/000002-0.json", 30, [0]), ("results/000003-3.json", 40, [3])]

    def test_empty_input_creates_nothing(self):
        store = store_of()
        store.create_blob(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
        assert len(store) == 0 and store.latest == 0
        assert store.list_blobs() == []


def records(store):
    return [(r.name, r.created_at, r.message_ids, r.size_bytes) for r in store.list_blobs()]


class TestOneMessageBlobs:
    """Calls of one blob per delivered id, ascending, are kept as id ranges and listed as rows would be."""

    def test_gaps_left_by_dropped_ids(self):
        # a lossy immediate hub: ids 1 and 4 never arrive
        store = store_of(n=7, envelope_bytes=10)
        store.table.dropped[[1, 4]] = True
        store.create_blob([0, 2, 3], [1, 3, 4], [50, 40, 60])
        store.create_blob([5, 6], [6, 7], [70, 70])
        assert store.table.t3.tolist() == [50, UNSET, 40, 60, UNSET, 70, 70]
        assert records(store) == [
            ("results/000000-2.json", 40, [2], 172), ("results/000001-0.json", 50, [0], 172),
            ("results/000002-3.json", 60, [3], 172), ("results/000003-5.json", 70, [5], 172),
            ("results/000004-6.json", 70, [6], 172)]
        assert len(store) == 5 and store.latest == 70

    def test_ranges_separated_only_by_dropped_ids_merge(self):
        store = store_of(n=10)
        store.table.dropped[[3, 4, 8]] = True
        for first in ([0, 1], [2], [5], [6, 7], [9]):  # one call per block, as the hub makes them
            store.create_blob(first, np.add(first, 1), np.add(first, 100))
        assert store._singles == [[0, 10]]
        assert [(r[1], r[2]) for r in records(store)] == [
            (100, [0]), (101, [1]), (102, [2]), (105, [5]), (106, [6]), (107, [7]), (109, [9])]

    def test_ranges_separated_by_a_delivered_id_stay_apart(self):
        store = store_of(n=3)
        store.create_blob([0], [1], [7])
        store.create_blob([2], [3], [7])  # id 1 is delivered but in no blob
        assert store._singles == [[0, 1], [2, 3]]
        assert [(r[1], r[2]) for r in records(store)] == [(7, [0]), (7, [2])]

    def test_non_ascending_calls_keep_rows(self):
        store = store_of(n=3)
        store.create_blob([2, 0], [3, 1], [5, 9])
        store.create_blob([1, 1], [2, 2], [7, 8])  # the same id twice
        assert store._singles == []
        assert records(store) == [
            ("results/000000-2.json", 5, [2], 162), ("results/000001-1.json", 7, [1], 162),
            ("results/000002-1.json", 8, [1], 162), ("results/000003-0.json", 9, [0], 162)]

    def test_blob_of_a_dropped_id_is_envelope_only(self):
        store = store_of(n=3, envelope_bytes=64)
        store.table.dropped[1] = True
        store.create_blob([0, 1, 2], [1, 2, 3], [5, 6, 7])
        assert records(store) == [
            ("results/000000-0.json", 5, [0], 226), ("results/000001-1.json", 6, [], 64),
            ("results/000002-2.json", 7, [2], 226)]
        assert store.table.t3[1] == UNSET

    def test_mixed_with_range_blobs(self):
        store = store_of(n=8)
        store.create_blob([0, 1], [1, 2], [5, 6])
        store.create_blob([2], [5], [8])  # ids 2-4 in one blob
        store.create_blob([5, 6], [6, 7], [9, 3])
        store.create_blob([1], [2], [20])  # restamps id 1: its first blob keeps its creation time
        assert store.table.t3[:7].tolist() == [5, 20, 8, 8, 8, 9, 3]
        assert records(store) == [
            ("results/000000-6.json", 3, [6], 162), ("results/000001-0.json", 5, [0], 162),
            ("results/000002-1.json", 6, [1], 162), ("results/000003-2.json", 8, [2, 3, 4], 3 * 162),
            ("results/000004-5.json", 9, [5], 162), ("results/000005-1.json", 20, [1], 162)]
        assert len(store) == 6 and store.latest == 20

    def test_listing_is_rebuilt_after_a_one_message_call(self):
        store = store_of(n=3)
        store.create_blob([0], [1], [4])
        assert [r[2] for r in records(store)] == [[0]]
        store.create_blob([1, 2], [2, 3], [4, 3])
        assert [(r[1], r[2]) for r in records(store)] == [(3, [2]), (4, [0]), (4, [1])]

    def test_mirror(self, tmp_path):
        store = store_of(n=3, payload=10, persist_dir=tmp_path, envelope_bytes=5)
        store.table.dropped[1] = True
        store.table.t1[:], store.table.t2[:] = [1, 2, 3], [11, 12, 13]
        store.bodies[2] = "y" * 10
        store.create_blob([0, 2], [1, 3], [30, 20])
        store.mirror()
        docs = [json.loads(p.read_text()) for p in sorted((tmp_path / "results").iterdir())]
        assert docs == [
            {"name": "results/000000-2.json", "created_at": 20,
             "messages": [{"id": 2, "t1": 3, "t2": 13, "body": "y" * 10}]},
            {"name": "results/000001-0.json", "created_at": 30,
             "messages": [{"id": 0, "t1": 1, "t2": 11, "body": synthesize_body(DEVICE, 0, 10)}]}]


class TestListBlobs:
    def test_empty_store(self):
        assert store_of().list_blobs() == []

    def test_sorted_by_time_then_name(self):
        store = store_of()
        store.create_blob([0], [1], [2])
        store.create_blob([1], [2], [2])
        store.create_blob([2], [3], [1])
        assert [r.message_ids for r in store.list_blobs()] == [[2], [0], [1]]

    def test_names_carry_the_route(self):
        store = store_of(route="audio")
        store.create_blob([0], [1], [1])
        store.create_blob([1], [2], [2])
        assert [r.name for r in store.list_blobs()] == ["audio/000000-0.json", "audio/000001-1.json"]

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
        assert not path.exists()  # mirrored when the run ends
        store.mirror()
        doc = json.loads(path.read_text())
        assert doc["name"] == "results/000000-0.json"
        assert doc["created_at"] == 99
        assert doc["messages"] == [{"id": 0, "t1": 42, "t2": 50, "body": "x" * 10}]
        assert store.bodies == {}

    def test_modeled_body_is_synthesized_from_its_size(self, tmp_path):
        store = store_of(payload=40, persist_dir=tmp_path)
        store.create_blob([0, 1], [1, 2], [5, 5])
        store.bodies[1] = "text"
        store.mirror()
        docs = [json.loads(p.read_text()) for p in sorted((tmp_path / "results").iterdir())]
        bodies = [m["body"] for doc in docs for m in doc["messages"]]
        assert bodies == [synthesize_body(DEVICE, 0, 40), "text"]
        assert len(bodies[0].encode()) == 40

    def test_dir_is_made_with_the_store(self, tmp_path):
        store_of(persist_dir=tmp_path / "a" / "b")
        assert (tmp_path / "a" / "b").is_dir()

    def test_no_mirror_without_dir(self, tmp_path):
        store = store_of()
        store.create_blob([0], [1], [1])
        assert list(tmp_path.iterdir()) == []
