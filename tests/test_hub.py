"""Hub write policies: T2 stamping, immediate blobs, window/chunk batching."""

import numpy as np
import pytest

from edgebench.core import SeededRng, constant
from edgebench.hub import Hub, HubPolicy
from edgebench.metrics import RunTable
from edgebench.storage import BlobStore


def run_hub(policy, arrivals, payload_bytes=100, seed=0, block=3):
    """Drive a hub with messages arriving at the given times, ``block`` arrivals per ingest.

    Returns (table, blobs): the run table the hub stamped T2 into, and a
    list of (message ids, created_at) per blob, in numbering order.
    """
    table = RunTable(len(arrivals))
    table.started = len(arrivals)
    table.payload[:] = payload_bytes
    store = BlobStore(table)
    hub = Hub(policy, SeededRng(seed).substream("hub"), table, store.create_blob)
    arrivals = np.array(arrivals, dtype=np.int64)
    for first in range(0, len(arrivals), block):
        ids = np.arange(first, min(first + block, len(arrivals)))
        hub.ingest(ids, arrivals[ids])
    hub.close(int(arrivals[-1]))
    by_index = sorted(store.list_blobs(), key=lambda b: b.name)
    return table, [(b.message_ids, b.created_at) for b in by_index]


def residences(table, blobs):
    return {mid: created_at - table.t2[mid] for ids, created_at in blobs for mid in ids}


class TestIngest:
    def test_t2_is_arrival(self):
        table, _ = run_hub(HubPolicy(mode="immediate"), [1000])
        assert table.t2[0] == 1000

    def test_fifo_order_preserved(self):
        table, _ = run_hub(HubPolicy(mode="immediate"), [1000, 1005])
        assert table.t2[0] < table.t2[1]

    def test_skew_never_touches_t2(self):
        # arrival times are cloud-side; an edge skew shifts t1 only
        table, _ = run_hub(HubPolicy(mode="immediate"), [1000])
        assert table.t2[0] == 1000


class TestImmediate:
    def test_zero_latency_identity(self):
        _, blobs = run_hub(HubPolicy(mode="immediate", write_latency_ms=constant(0)), [500])
        assert blobs[0][1] == 500

    def test_write_latency_added(self):
        _, blobs = run_hub(HubPolicy(mode="immediate", write_latency_ms=constant(120)), [1000])
        assert blobs[0][1] == 1120

    def test_one_blob_per_message(self):
        _, blobs = run_hub(HubPolicy(mode="immediate"), list(range(0, 5000, 10)))
        assert len(blobs) == 500
        assert all(len(ids) == 1 for ids, _ in blobs)


class TestBatched:
    def windowed(self, window_s=60, holdback_s=0, chunk=None):
        return HubPolicy(mode="batched", window_s=window_s, holdback_s=holdback_s,
                         chunk_bytes=chunk)

    def test_message_at_window_start_waits_full_window(self):
        table, blobs = run_hub(self.windowed(60, holdback_s=0), [0])
        assert blobs[0][1] == 60_000
        assert residences(table, blobs)[0] == 60_000

    def test_boundary_tie_joins_closing_batch(self):
        # 59.999 s and exactly 60 s flush together; 60.001 s opens the next window
        table, blobs = run_hub(self.windowed(60), [59_999, 60_000, 60_001])
        assert blobs[0][0] == [0, 1]
        assert blobs[1][0] == [2]
        assert blobs[0][1] == 60_000
        assert blobs[1][1] == 120_000

    def test_holdback_added_after_flush(self):
        table, blobs = run_hub(self.windowed(60, holdback_s=60), [30_000])
        assert blobs[0][1] == 120_000
        assert residences(table, blobs)[0] == 90_000

    def test_open_window_batch_handed_over_in_a_later_block(self):
        # the batch of window (100, 200] is still open after the first block; the
        # next block, whose message arrives at 600, flushes it, due at 250, and it
        # is numbered after the blob created at 150 and before the one at 650
        table = RunTable(3)
        table.started = 3
        table.payload[:] = 100
        store = BlobStore(table)
        hub = Hub(self.windowed(0.1, holdback_s=0.05), SeededRng(0).substream("hub"), table,
                  store.create_blob)
        hub.ingest(np.array([0, 1]), np.array([10, 150]))
        assert [(b.message_ids, b.created_at) for b in store.list_blobs()] == [([0], 150)]
        hub.ingest(np.array([2]), np.array([600]))
        assert store.latest == 250
        hub.close(600)
        blobs = sorted(store.list_blobs(), key=lambda b: b.name)
        assert [(b.message_ids, b.created_at) for b in blobs] == [([0], 150), ([1], 250), ([2], 650)]
        assert table.t3.tolist() == [150, 250, 650]

    def test_blobs_are_handed_over_in_id_order(self):
        # the second block closes the open batch of window (0, 1000] and completes the
        # windows (1000, 2000] and (2000, 3000]: the closed batch is handed over first
        table = RunTable(5)
        table.started = 5
        calls = []
        hub = Hub(self.windowed(1), SeededRng(0).substream("hub"), table,
                  lambda first, end, created_at: calls.append((first.tolist(), end.tolist())))
        hub.ingest(np.array([0]), np.array([500]))
        hub.ingest(np.array([1, 2, 3, 4]), np.array([900, 1500, 2500, 3500]))
        hub.close(3500)
        blobs = [blob for first, end in calls for blob in zip(first, end)]
        assert blobs == [(0, 2), (2, 3), (3, 4), (4, 5)]

    def test_chunk_trigger_flushes_mid_window(self):
        policy = self.windowed(60, chunk=250)
        table, blobs = run_hub(policy, [1000, 2000, 3000], payload_bytes=100)
        # 100+100+100 crosses 250 at the third arrival: immediate flush
        assert blobs[0][1] == 3000
        assert blobs[0][0] == [0, 1, 2]

    def test_window_phase_unchanged_by_chunk_flush(self):
        policy = self.windowed(60, chunk=250)
        table, blobs = run_hub(policy, [1000, 2000, 3000, 10_000], payload_bytes=100)
        # the message after the chunk flush still flushes at the original boundary
        assert blobs[1][1] == 60_000
        assert blobs[1][0] == [3]

    def test_every_message_in_exactly_one_blob(self):
        rng = SeededRng(2)
        arrivals = sorted(int(rng.uniform(0, 600_000)) for _ in range(500))
        table, blobs = run_hub(self.windowed(60, holdback_s=60), arrivals)
        stored = [mid for ids, _ in blobs for mid in ids]
        assert sorted(stored) == list(range(500))
        assert all(len(ids) >= 1 for ids, _ in blobs)

    def test_residence_bounded_without_chunk_trigger(self):
        rng = SeededRng(3)
        arrivals = sorted(int(rng.uniform(0, 600_000)) for _ in range(300))
        table, blobs = run_hub(self.windowed(60, holdback_s=60), arrivals)
        for r in residences(table, blobs).values():
            assert 0 <= r <= (60 + 60) * 1000

    def test_mean_residence_converges_to_half_window_plus_holdback(self):
        # closed-form oracle: uniform arrivals => mean residence W/2 + H
        rng = SeededRng(4)
        n = 10_000
        arrivals = sorted(int(rng.uniform(0, n * 1000)) for _ in range(n))
        table, blobs = run_hub(self.windowed(60, holdback_s=60), arrivals)
        values = list(residences(table, blobs).values())
        mean = sum(values) / len(values)
        expected = (60 / 2 + 60) * 1000
        assert abs(mean - expected) / expected < 0.02

    def test_blob_contents_in_t2_order(self):
        # arrivals come in time order (per-source FIFO), ties included
        table, blobs = run_hub(self.windowed(60), [1000, 5000, 5000, 9000, 61_000, 61_000, 130_000])
        assert [ids for ids, _ in blobs] == [[0, 1, 2, 3], [4, 5], [6]]
        for ids, _ in blobs:
            t2s = [table.t2[mid] for mid in ids]
            assert t2s == sorted(t2s)


class TestPolicyvalidation:
    def test_batched_needs_a_trigger(self):
        with pytest.raises(ValueError):
            HubPolicy(mode="batched")

    def test_platform_minimum_window(self):
        with pytest.raises(ValueError, match="60"):
            HubPolicy(mode="batched", window_s=30, platform_faithful=True)

    def test_platform_minimum_chunk(self):
        with pytest.raises(ValueError, match="10000000"):
            HubPolicy(mode="batched", chunk_bytes=1024, platform_faithful=True)

    def test_small_windows_allowed_without_flag(self):
        assert HubPolicy(mode="batched", window_s=0.5).window_s == 0.5

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            HubPolicy(mode="streaming")

    @pytest.mark.parametrize("key, value", [
        ("window_s", 60), ("chunk_bytes", 5), ("holdback_s", 3600), ("platform_faithful", True),
    ])
    def test_immediate_hub_rejects_batch_fields(self, key, value):
        # an immediate hub writes each message after write_latency_ms and reads none of these
        with pytest.raises(ValueError, match=f"an immediate hub does not use {key}"):
            HubPolicy(mode="immediate", **{key: value})

    def test_batched_hub_rejects_write_latency(self):
        # a batched hub creates each blob holdback_s after its flush and never reads write_latency_ms
        with pytest.raises(ValueError, match="a batched hub does not use write_latency_ms"):
            HubPolicy(mode="batched", window_s=60, write_latency_ms=constant(99999))

    def test_unused_fields_at_their_defaults_are_accepted(self):
        assert HubPolicy(mode="immediate", holdback_s=0.0).holdback_s == 0
        assert HubPolicy(mode="batched", window_s=60, write_latency_ms=constant(0.0)).window_s == 60
