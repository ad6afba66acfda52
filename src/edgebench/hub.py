"""Cloud ingestion hub: stamp T2 on arrival, route messages to blob storage.

Two write policies: immediate (one blob per message, written as soon as
the message is processed) and batched (accumulate over a time window or
until a chunk-size trigger, then write one blob per batch after a
constant hold-back delay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Distribution, SeededRng, constant

PLATFORM_MIN_WINDOW_S = 60
PLATFORM_MIN_CHUNK_BYTES = 10 * 1000 * 1000


@dataclass(frozen=True)
class HubPolicy:
    """The hub's write policy.

    Batched mode needs at least one of ``window_s``/``chunk_bytes``.
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
        if self.mode == "batched":
            if self.window_s is None and self.chunk_bytes is None:
                raise ValueError("batched hub needs window_s or chunk_bytes")
            if self.window_s is not None and self.window_s <= 0:
                raise ValueError("window_s must be positive")
            if self.chunk_bytes is not None and self.chunk_bytes <= 0:
                raise ValueError("chunk_bytes must be positive")
            if self.holdback_s < 0:
                raise ValueError("holdback_s must be >= 0")
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
    """Hub state machine driven by the event loop.

    ``ingest`` stamps each message's T2 into the run table. ``on_blob``
    is called as on_blob(ids, created_at) whenever the routed messages
    reach storage; blob creation time is the T3 source.
    """

    def __init__(self, policy: HubPolicy, loop, rng: SeededRng, table, on_blob):
        self.policy = policy
        self.loop = loop
        self.rng = rng
        self.table = table
        self.on_blob = on_blob
        self._window = None if policy.window_s is None else round(policy.window_s * 1000)
        self._open_batch: list[int] = []
        self._open_bytes = 0
        self._boundary: int | None = None  # the latest boundary with a scheduled flush

    def ingest(self, msg_id: int, arrival: int) -> None:
        """Stamp T2 (cloud clock, no skew) and route per policy."""
        self.table.t2[msg_id] = arrival
        if self.policy.mode == "immediate":
            self.route_immediate(msg_id, arrival)
        else:
            self.route_batched(msg_id, arrival)

    # --- immediate policy: one blob per message -------------------------

    def route_immediate(self, msg_id: int, t2: int) -> None:
        write_ms = self.policy.write_latency_ms.sample_int(self.rng)
        t3 = t2 + write_ms
        self.loop.schedule(t3, lambda ids=(msg_id,), t=t3: self.on_blob(ids, t), priority=2)

    # --- batched policy: window tiling with hold-back --------------------

    def _boundary_for(self, t2: int) -> int | None:
        """Flush boundary for an arrival: windows tile time from route
        creation (t=0); a message exactly on a boundary joins the batch
        closing there."""
        window = self._window
        if window is None:
            return None
        return window * max(1, math.ceil(t2 / window))

    def route_batched(self, msg_id: int, t2: int) -> None:
        boundary = self._boundary_for(t2)
        self._open_batch.append(msg_id)
        self._open_bytes += self.table.payload[msg_id]
        if boundary is not None and boundary != self._boundary:
            # arrivals come in time order, so boundaries never decrease
            self._boundary = boundary
            self.loop.schedule(boundary, lambda b=boundary: self._window_flush(b), priority=1)
        chunk = self.policy.chunk_bytes
        if chunk is not None and self._open_bytes >= chunk:
            self._flush(t2)

    def _window_flush(self, boundary: int) -> None:
        # a chunk flush may already have emptied this window's batch; an
        # open batch at a window flush holds only that window's arrivals
        if self._open_batch:
            self._flush(boundary)

    def _flush(self, flush_time: int) -> None:
        batch = self._open_batch
        self._open_batch = []
        self._open_bytes = 0
        t3 = flush_time + round(self.policy.holdback_s * 1000)
        self.loop.schedule(t3, lambda b=batch, t=t3: self.on_blob(b, t), priority=2)

    def flush_open(self, flush_time: int) -> bool:
        """Flush any open batch (end of run on a chunk-only route).

        With a window configured every batch already has a scheduled
        boundary flush, so this is a no-op then.
        """
        if not self._open_batch:
            return False
        self._flush(flush_time)
        return True
