"""Cloud ingestion hub: stamp T2 on arrival, route messages to blob storage.

Two write policies: immediate (one blob per message, written as soon as
the message is processed) and batched (accumulate over a time window or
until a chunk-size trigger, then write one blob per batch after a
constant hold-back delay).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_CONFIG_MS, Distribution, SeededRng, constant, sample_rows, to_ms

PLATFORM_MIN_WINDOW_S = 60
PLATFORM_MIN_CHUNK_BYTES = 10 * 1000 * 1000


@dataclass(frozen=True)
class HubPolicy:
    """The hub's write policy.

    An immediate hub writes each message after ``write_latency_ms``; a
    batched one flushes by ``window_s``/``chunk_bytes`` (at least one of
    them) and creates each blob ``holdback_s`` later. Each mode rejects
    the fields only the other reads.
    With ``platform_faithful`` set, the batched platform's minimums
    (60 s window, 10 MB chunk) are enforced at validation time.
    Hold-back is the observed extra delay between batch flush and blob
    creation; it is a per-scenario calibration knob, not a derived value.
    """

    mode: str = "immediate"
    window_s: float | None = None
    chunk_bytes: int | None = None
    holdback_s: float = 0.0
    write_latency_ms: Distribution = constant(0)
    platform_faithful: bool = False

    def __post_init__(self):
        if self.mode not in ("immediate", "batched"):
            raise ValueError(f"unknown hub mode: {self.mode!r}")
        if self.mode == "immediate":
            for key, is_set in (("window_s", self.window_s is not None),
                                ("chunk_bytes", self.chunk_bytes is not None),
                                ("holdback_s", self.holdback_s != 0),
                                ("platform_faithful", self.platform_faithful)):
                if is_set:
                    raise ValueError(f"an immediate hub does not use {key}, got {getattr(self, key)!r}")
        elif self.write_latency_ms != constant(0):
            raise ValueError(f"a batched hub does not use write_latency_ms, "
                             f"got {self.write_latency_ms.to_spec()!r}")
        if self.mode == "batched":
            if self.window_s is None and self.chunk_bytes is None:
                raise ValueError("batched hub needs window_s or chunk_bytes")
            if self.window_s is not None and round(self.window_s * 1000) < 1:
                raise ValueError(f"window_s must be at least 1 ms once rounded to whole ms, "
                                 f"got {self.window_s}")
            if self.window_s is not None and round(self.window_s * 1000) > MAX_CONFIG_MS:
                raise ValueError(f"window_s must be at most 2**53 ms, got {self.window_s}")
            if self.chunk_bytes is not None and self.chunk_bytes <= 0:
                raise ValueError("chunk_bytes must be positive")
            if self.holdback_s < 0:
                raise ValueError("holdback_s must be >= 0")
            if round(self.holdback_s * 1000) > MAX_CONFIG_MS:
                raise ValueError(f"holdback_s must be at most 2**53 ms, got {self.holdback_s}")
            if self.platform_faithful:
                if self.window_s is not None and self.window_s < PLATFORM_MIN_WINDOW_S:
                    raise ValueError(
                        f"window_s={self.window_s} below the platform minimum of "
                        f"{PLATFORM_MIN_WINDOW_S} s"
                    )
                if self.chunk_bytes is not None and self.chunk_bytes < PLATFORM_MIN_CHUNK_BYTES:
                    raise ValueError(
                        f"chunk_bytes={self.chunk_bytes} below the platform minimum of "
                        f"{PLATFORM_MIN_CHUNK_BYTES} bytes"
                    )


class Hub:
    """Hub state machine, fed the arrivals of one block of messages at a time.

    ``ingest`` stamps each message's T2 into the run table and decides
    which blob holds it. Decided blobs are handed to ``on_blob`` as
    on_blob(first, end, created_at), arrays with one entry per blob: the
    id range ``[first, end)`` whose delivered messages it holds and its
    creation time (the T3 source).
    """

    def __init__(self, policy: HubPolicy, rng: SeededRng, table, on_blob):
        self.policy = policy
        self.rng = rng
        self.table = table
        self.on_blob = on_blob
        self._window = None if policy.window_s is None else round(policy.window_s * 1000)
        self._holdback = round(policy.holdback_s * 1000)
        self._flushed: list[tuple] = []  # (first, end, t3) of batches not yet handed over
        self._open: list[int] | None = None  # [first, end) id range of the open batch
        self._open_bytes = 0
        self._boundary: int | None = None  # the window boundary of the latest arrival
        self._last_arrival = 0

    def ingest(self, ids: np.ndarray, arrival: np.ndarray) -> None:
        """Stamp T2 (cloud clock, no skew) of messages ``ids``, which arrive in that order, and route them."""
        self.table.t2[ids] = arrival
        if not ids.size:
            return
        self._last_arrival = int(arrival[-1])
        if self.policy.mode == "immediate":
            write = to_ms(sample_rows(self.rng, (self.policy.write_latency_ms,), ids.size)[:, 0])
            self.on_blob(ids, ids + 1, arrival + write)
            return
        if self.policy.chunk_bytes is None:
            self._route_windows(ids, arrival)
        else:
            self._route_chunks(ids, arrival)
        self._hand_over()

    # --- batched policy: window tiling with hold-back --------------------

    def _boundaries(self, t2: np.ndarray) -> np.ndarray:
        """Flush boundary of each arrival: windows tile time from route
        creation (t=0); a message exactly on a boundary joins the batch
        closing there."""
        window = self._window
        return window * np.maximum(1, -(-t2 // window))

    def _route_windows(self, ids: np.ndarray, t2: np.ndarray) -> None:
        """Window batching: a batch is the arrivals of one window, flushed at its boundary."""
        boundary = self._boundaries(t2)
        # arrivals come in time order, so boundaries never decrease
        before = np.concatenate(([-1 if self._boundary is None else self._boundary], boundary[:-1]))
        opens = np.flatnonzero(boundary != before)  # arrivals that open a new window's batch
        if self._open is not None:  # it takes the arrivals before the first new window
            taken = opens[0] if opens.size else ids.size
            if taken:
                self._open[1] = int(ids[taken - 1]) + 1
            if not opens.size:
                return
            self._flush(self._boundary)
            self._hand_over()  # before the windows after it, so blobs come in id order
        closes = opens[1:] - 1  # the last arrival of each window that ends within the block
        self.on_blob(ids[opens[:-1]], ids[closes] + 1, boundary[closes] + self._holdback)
        self._open = [int(ids[opens[-1]]), int(ids[-1]) + 1]
        self._boundary = int(boundary[-1])

    def _route_chunks(self, ids: np.ndarray, t2: np.ndarray) -> None:
        """Chunk batching, within windows if one is set: a batch also flushes once it holds chunk_bytes."""
        chunk = self.policy.chunk_bytes
        boundaries = self._boundaries(t2).tolist() if self._window is not None else [None] * ids.size
        for mid, t, size, boundary in zip(ids.tolist(), t2.tolist(),
                                          self.table.payload[ids].tolist(), boundaries):
            if boundary != self._boundary:
                if self._open is not None:
                    self._flush(self._boundary)
                self._boundary = boundary
            if self._open is None:
                self._open = [mid, mid]
            self._open[1] = mid + 1
            self._open_bytes += size
            if self._open_bytes >= chunk:
                self._flush(t)

    def _flush(self, flush_time: int) -> None:
        self._flushed.append((*self._open, flush_time + self._holdback))
        self._open, self._open_bytes = None, 0

    def _hand_over(self) -> None:
        """Pass the batches flushed since the last hand-over to ``on_blob``."""
        if self._flushed:
            self.on_blob(*np.array(self._flushed, dtype=np.int64).T)
            self._flushed = []

    @property
    def latest(self) -> int:
        """The time of the latest arrival or window boundary."""
        return max(self._last_arrival, self._boundary or 0)

    def close(self, end: int) -> None:
        """Flush the open batch once no message is left to arrive.

        It flushes at its window boundary or, on a chunk-only route, at
        ``end``, the run's latest event.
        """
        if self._open is not None:
            self._flush(end if self._window is None else self._boundary)
            self._hand_over()
