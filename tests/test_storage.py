"""Blob store: creation, listing, on-disk mirror."""

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from edgebench.metrics import UNSET, IncompleteRecord, RunTable
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

    def test_empty_blob_is_rejected(self):
        store = store_of(envelope_bytes=64)
        with pytest.raises(ValueError, match="ascending and disjoint"):
            store.create_blob([0], [0], [5])
        assert len(store) == 0 and store.list_blobs() == []

    def test_blob_names_are_unique(self):
        # blobs created at the same time get different names; no two blobs start with one message
        store = store_of()
        store.create_blob([0, 1], [1, 2], [3, 3])
        store.create_blob([2, 5], [5, 6], [3, 3])
        names = [r.name for r in store.list_blobs()]
        assert len(set(names)) == len(names) == 4
        with pytest.raises(ValueError, match="disjoint from id 6 on"):
            store.create_blob([5], [7], [4])

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
        # blobs are created in id order at any times; T3 is stamped at once, the ordinals when listed
        store = store_of()
        store.create_blob([0], [1], [30])
        store.create_blob(np.array([1, 2]), np.array([2, 3]), np.array([10, 10]))
        store.create_blob([3], [4], [40])
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
    """Calls of one blob per delivered id add one range of blob starts; they list as other blobs do."""

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
        assert [(r[1], r[2]) for r in records(store)] == [
            (100, [0]), (101, [1]), (102, [2]), (105, [5]), (106, [6]), (107, [7]), (109, [9])]

    def test_ranges_separated_by_a_delivered_id_stay_apart(self):
        # the batch's ids 1 and 2 start no blob, so the one-message ranges around it stay apart
        store = store_of(n=5)
        store.create_blob([0], [1], [7])
        store.create_blob([1], [3], [8])
        store.create_blob([3, 4], [4, 5], [7, 9])
        assert [(r[1], r[2]) for r in records(store)] == [(7, [0]), (7, [3]), (8, [1, 2]), (9, [4])]

    def test_delivered_id_in_no_blob_is_rejected(self):
        store = store_of(n=4)
        store.create_blob([0], [1], [7])
        with pytest.raises(IncompleteRecord, match="message 1: delivered but in no blob"):
            store.create_blob([2], [3], [7])
        with pytest.raises(IncompleteRecord, match="message 2: delivered but in no blob"):
            store.create_blob([1, 3], [2, 4], [7, 7])
        assert records(store) == [("results/000000-0.json", 7, [0], 162)]

    def test_non_ascending_calls_are_rejected(self):
        store = store_of(n=3)
        with pytest.raises(ValueError, match="ascending and disjoint"):
            store.create_blob([2, 0], [3, 1], [5, 9])
        with pytest.raises(ValueError, match="ascending and disjoint"):
            store.create_blob([0, 0], [1, 1], [7, 8])  # the same id twice
        store.create_blob([0], [2], [5])
        with pytest.raises(ValueError, match="disjoint from id 2 on"):
            store.create_blob([1], [2], [6])
        assert records(store) == [("results/000000-0.json", 5, [0, 1], 2 * 162)]
        assert store.table.t3[:3].tolist() == [5, 5, UNSET]

    def test_blob_starting_with_a_dropped_id_is_rejected(self):
        store = store_of(n=3, envelope_bytes=64)
        store.table.dropped[1] = True
        with pytest.raises(ValueError, match="each starting with a delivered id"):
            store.create_blob([0, 1, 2], [1, 2, 3], [5, 6, 7])
        assert store.table.t3[:3].tolist() == [UNSET] * 3
        store.create_blob([0, 2], [2, 3], [5, 7])  # dropped ids may end a blob
        assert records(store) == [("results/000000-0.json", 5, [0], 226),
                                  ("results/000001-2.json", 7, [2], 226)]

    def test_mixed_with_range_blobs(self):
        store = store_of(n=8)
        store.create_blob([0, 1], [1, 2], [5, 6])
        store.create_blob([2], [5], [8])  # ids 2-4 in one blob
        store.create_blob([5, 6], [6, 7], [9, 3])
        with pytest.raises(ValueError, match="disjoint from id 7 on"):
            store.create_blob([1], [2], [20])  # a blob holds id 1 already
        assert store.table.t3[:7].tolist() == [5, 6, 8, 8, 8, 9, 3]
        assert records(store) == [
            ("results/000000-6.json", 3, [6], 162), ("results/000001-0.json", 5, [0], 162),
            ("results/000002-1.json", 6, [1], 162), ("results/000003-2.json", 8, [2, 3, 4], 3 * 162),
            ("results/000004-5.json", 9, [5], 162)]
        assert len(store) == 5 and store.latest == 9

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


@st.composite
def partitioned_calls(draw):
    """A run table with random drops and payloads, and calls that partition its delivered ids.

    Each delivered id may start a blob; a blob's range ends anywhere from
    one past its last delivered id to the next blob's start, so dropped
    ids may trail it; the blobs are cut into calls of random lengths.
    Returns (table, calls), each call a list of (first, end, created_at).
    """
    n = draw(st.integers(1, 24))
    table = RunTable(n)
    table.started = n
    table.dropped[:] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    table.payload[:] = draw(st.lists(st.integers(0, 300), min_size=n, max_size=n))
    delivered = np.flatnonzero(~table.dropped).tolist()
    if not delivered:
        return table, []
    starts = [delivered[0]] + [mid for mid in delivered[1:] if draw(st.booleans())]
    blobs = []
    for first, after in zip(starts, starts[1:] + [n]):
        last = max(mid for mid in delivered if first <= mid < after)
        blobs.append((first, draw(st.integers(last + 1, after)), draw(st.integers(0, 50))))
    calls, rest = [], blobs
    while rest:
        size = draw(st.integers(1, len(rest)))
        calls.append(rest[:size])
        rest = rest[size:]
    return table, calls


def reference_listing(table, blobs, envelope_bytes):
    """The listing of ``blobs`` [(first, end, created_at)], built one message at a time."""
    held = []
    for first, end, created_at in blobs:
        ids = [mid for mid in range(first, end) if not table.dropped[mid]]
        held.append((created_at, first, ids, envelope_bytes + sum(int(table.payload[m]) for m in ids)))
    return [(f"results/{index:06d}-{first}.json", created_at, ids, size)
            for index, (created_at, first, ids, size) in enumerate(sorted(held))]


def create(store, call):
    store.create_blob(*(np.array(column, dtype=np.int64) for column in zip(*call)))


class TestPartition:
    """Any partition of the delivered ids, cut into any calls, lists like a per-message reference."""

    @given(partitioned_calls(), st.integers(0, 64))
    @example((store_of(n=4).table, [[(0, 1, 5), (1, 2, 3)], [(2, 3, 4), (3, 4, 4)]]), 0)
    def test_listing_matches_the_reference(self, case, envelope_bytes):
        table, calls = case
        store = BlobStore(table, envelope_bytes=envelope_bytes)
        for call in calls:
            create(store, call)
        blobs = [blob for call in calls for blob in call]
        assert records(store) == reference_listing(table, blobs, envelope_bytes)
        assert len(store) == len(blobs)
        assert store.latest == max((created_at for _, _, created_at in blobs), default=0)
        for first, end, created_at in blobs:
            for mid in range(first, end):
                assert table.t3[mid] == (UNSET if table.dropped[mid] else created_at)

    @given(partitioned_calls(), st.data())
    def test_a_call_that_breaks_the_partition_raises(self, case, data):
        table, calls = case
        k = data.draw(st.integers(0, max(0, len(calls) - 1)))
        call = calls[k] if calls else []
        kinds = ["again"] * (k > 0) + ["empty"] * bool(call) + ["gap", "reversed"] * (len(call) > 1)
        if not kinds:
            return
        store = BlobStore(table)
        for done in calls[:k]:
            create(store, done)
        before = records(store), table.t3.tolist()
        kind = data.draw(st.sampled_from(kinds))
        if kind == "again":  # repeats the previous call
            bad, error = calls[k - 1], ValueError
        elif kind == "empty":  # its first blob holds no id
            bad, error = [(call[0][0], call[0][0], call[0][2])] + call[1:], ValueError
        elif kind == "gap":  # leaves its first blob's ids out
            bad, error = call[1:], IncompleteRecord
        else:
            bad, error = call[::-1], ValueError
        with pytest.raises(error):
            create(store, bad)
        assert (records(store), table.t3.tolist()) == before
