"""Edge-to-cloud link model: flight time and exact byte accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TypedDict

import numpy as np

from .core import Distribution, SeededRng, constant, sample_rows, to_ms


@dataclass(frozen=True)
class LinkModel:
    """Propagation delay plus serialization over bounded bandwidth.

    ``bandwidth_bytes_per_s`` of ``None`` means unlimited (serialization
    term vanishes). ``per_message_overhead_bytes`` is the framing/header
    cost added to every message for both delay and byte accounting.
    """

    propagation_ms: Distribution = constant(0)
    bandwidth_bytes_per_s: float | None = None
    per_message_overhead_bytes: int = 0
    drop_probability: float = 0.0

    def __post_init__(self):
        if self.bandwidth_bytes_per_s is not None and self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bounded bandwidth must be positive")
        if self.per_message_overhead_bytes < 0:
            raise ValueError("per-message overhead must be non-negative")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")

    def serialization_ms(self, total_bytes):
        """Whole-ms time to push ``total_bytes`` (an int or an int64 array) through the link.

        Ceiling keeps the integer clock; the <=1 ms error is far below
        the tens-of-ms flight times being modeled.
        """
        if self.bandwidth_bytes_per_s is None:
            return 0
        return np.ceil(total_bytes * 1000 / self.bandwidth_bytes_per_s).astype(np.int64)


@dataclass
class ByteLedger:
    """Per-source running payload and overhead byte totals, updated on every delivery."""

    sources: dict[str, list[int]] = field(default_factory=dict)  # source -> [payload, overhead]

    def record(self, source: str, payload_bytes: int, overhead_bytes: int) -> None:
        totals = self.sources.setdefault(source, [0, 0])
        totals[0] += payload_bytes
        totals[1] += overhead_bytes


class Link:
    """A LinkModel bound to its ledger and per-source FIFO state."""

    def __init__(self, model: LinkModel, ledger: ByteLedger, rng: SeededRng):
        self.model = model
        self.ledger = ledger
        self._rng = rng
        self._last_arrival: dict[str, int] = {}

    def deliver(self, source: str, payload_bytes: np.ndarray, send_time: np.ndarray):
        """Send messages from ``source``, in order; returns ``(kept, arrival)``.

        ``kept`` is a bool mask of the messages the link delivered, and
        ``arrival`` the arrival timestamps (ms) of those messages. Each
        message draws its drop (when the drop probability is nonzero),
        then, if delivered, its propagation delay. The ledger counts only
        delivered messages. Delivery is FIFO per source: a message never
        overtakes an earlier one from the same device, matching ordered
        MQTT-style sessions, so arrival is the running maximum of send
        time plus flight (the Lindley recursion).
        """
        model = self.model
        n = len(payload_bytes)
        kept = np.ones(n, dtype=bool)
        if model.drop_probability > 0 and model.propagation_ms.kind != "constant":
            flights = []
            for k in range(n):
                if self._rng.random() < model.drop_probability:
                    kept[k] = False
                else:
                    flights.append(model.propagation_ms.sample(self._rng))
            flight = to_ms(np.array(flights, dtype=float))
            payload_bytes, send_time = payload_bytes[kept], send_time[kept]
        else:
            if model.drop_probability > 0:  # a constant propagation draws nothing: the drops are one block
                kept = self._rng.random(n) >= model.drop_probability
                payload_bytes, send_time = payload_bytes[kept], send_time[kept]
            flight = to_ms(sample_rows(self._rng, (model.propagation_ms,), len(send_time))[:, 0])
        overhead = model.per_message_overhead_bytes
        flight += model.serialization_ms(payload_bytes + overhead)
        last = self._last_arrival.get(source, 0)
        arrival = np.maximum.accumulate(np.maximum(send_time + flight, last))
        if arrival.size:
            self._last_arrival[source] = int(arrival[-1])
            self.ledger.record(source, int(payload_bytes.sum()), overhead * arrival.size)
        return kept, arrival


class ByteTotals(TypedDict):
    payload_bytes: int
    overhead_bytes: int
    transmitted_bytes: int  # payload + overhead


class Ledger(TypedDict):
    """The ledger section of report.json: byte totals per source and over all sources."""

    sources: dict[str, ByteTotals]
    total: ByteTotals


def ledger_report(ledger: ByteLedger) -> Ledger:
    """Per-source and grand byte totals; transmitted = payload + overhead."""
    sources = sorted(ledger.sources.items())
    return {
        "sources": {name: _byte_totals(*totals) for name, totals in sources},
        "total": _byte_totals(sum(totals[0] for _, totals in sources),
                              sum(totals[1] for _, totals in sources)),
    }


def _byte_totals(payload_bytes: int, overhead_bytes: int) -> ByteTotals:
    return {
        "payload_bytes": payload_bytes,
        "overhead_bytes": overhead_bytes,
        "transmitted_bytes": payload_bytes + overhead_bytes,
    }
