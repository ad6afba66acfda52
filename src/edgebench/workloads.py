"""Benchmark workload drivers.

The audio/image/scalar pipelines are driven by calibrated compute-time
and payload-size profiles instead of real decoders or classifiers; an
optional per-item hook lets live mode plug in real work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

import numpy as np

from .core import Distribution, SeededRng, SimulationError, constant, sample_rows, to_ms, uniform

WORKLOAD_KINDS = ("scalar", "image", "audio", "custom")


class InvalidRate(SimulationError, ValueError):
    """Raised for a non-positive scalar emission rate or interval."""


class ExhaustedWorkload(SimulationError):
    """Raised when an item index is past the end of the workload."""


@dataclass
class WorkloadSpec:
    """A benchmark driver definition.

    ``items`` is the number of messages a run emits (for scalar, the
    number of batch messages). ``warmup_delay_s`` delays the first item
    so startup network noise is excluded from byte accounting.
    ``item_hook`` (live mode only) does an item's real work in place of
    the modeled compute time and payload: it is called with the item
    index and returns the result text. It is set from code and is not a
    config key.
    """

    kind: str = "custom"
    items: int = 1
    input_bytes_per_item: Distribution = constant(0)
    compute_ms: Distribution = constant(0)
    result_payload_bytes: Distribution = constant(0)
    inter_item_gap_ms: Distribution = constant(0)
    scalar_freq_hz: float = 1.0
    scalar_interval_s: float = 1.0
    warmup_delay_s: float = 0.0
    item_hook: Callable[[int], str] | None = field(default=None, metadata={"config": False})

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind: {self.kind!r}")
        if self.items < 0:
            raise ValueError("items must be >= 0")
        if self.warmup_delay_s < 0:
            raise ValueError("warmup_delay_s must be >= 0")
        if self.kind == "scalar":
            if self.scalar_freq_hz <= 0:
                raise InvalidRate(f"scalar_freq_hz must be > 0, got {self.scalar_freq_hz}")
            if self.scalar_interval_s <= 0:
                raise InvalidRate(f"scalar_interval_s must be > 0, got {self.scalar_interval_s}")


@dataclass
class ResourceProfile:
    """Device CPU/RAM usage replayed into reports in virtual mode."""

    cpu_pct: Distribution = constant(0)
    ram_mb: Distribution = constant(0)
    platform_ram_delta_mb: float = 0.0
    cores: int = 4

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")

    def sample(self, rng: SeededRng, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``n`` successive (cpu, ram) samples as two float64 arrays.

        Each sample draws cpu then ram; cpu is clamped to
        [0, 100 * cores], ram at zero before the platform delta is added.
        The samples equal ``n`` single draws value for value
        (:func:`core.sample_rows`).
        """
        cpu, ram = sample_rows(rng, (self.cpu_pct, self.ram_mb), n).T
        cpu = np.minimum(np.maximum(cpu, 0.0), 100.0 * self.cores)
        ram = np.maximum(ram, 0.0) + self.platform_ram_delta_mb
        return cpu, ram


def scalar_batch_body(readings: np.ndarray) -> np.ndarray:
    """Byte size of each row's body: the JSON array of its sensor readings.

    A body is ``json.dumps(row, separators=(",", ":"))``, the reprs of
    its readings joined by commas inside brackets, so a row of
    ``count >= 1`` readings takes ``2 + (count - 1) + sum(len(repr(x)))``
    bytes and an empty one 2. The reprs are ASCII.
    """
    n, count = readings.shape
    values = chain.from_iterable(map(np.ndarray.tolist, readings))  # a row at a time: no block-sized list
    chars = np.fromiter(map(len, map(repr, values)), np.int64, n * count)
    return chars.reshape(n, count).sum(axis=1) + 2 + max(count - 1, 0)


def synthesize_body(source: str, msg_id: int, payload_bytes: int) -> str:
    """Deterministic placeholder result text of exactly payload_bytes bytes."""
    stem = f"result {source}/{msg_id} "
    if payload_bytes <= len(stem):
        return stem[:payload_bytes]
    filler = "0123456789abcdef"
    pad = filler * ((payload_bytes - len(stem)) // len(filler) + 1)
    return stem + pad[: payload_bytes - len(stem)]


def run_item(
    spec: WorkloadSpec,
    first: int,
    count: int,
    clock,
    rng: SeededRng,
    texts: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str] | None, int | None]:
    """Process items ``[first, first + count)`` back to back from the current clock time.

    Returns ``(c_edge, t1, payload, bodies, next_start)``: each item's
    edge compute time (ms), send timestamp and result size as int64
    arrays, the items' result texts (or None), and the time the item
    after the block starts (None after the run's last item).

    Per item the workload stream draws compute time, input size (unused
    at the edge, drawn to keep the stream's order), payload size or
    scalar readings, then the gap to the next item; the run's last item
    draws no gap, and a scalar item's gap is its interval. Items run
    sequentially: t1 = edge_stamp(start + c_edge), and the next item
    starts a gap after that. The drawn compute time is spent through
    ``clock.compute`` (a virtual clock takes it as drawn, a wall clock
    busy-waits it). A spec with an ``item_hook`` (live mode, one item per
    block) does the item's real work instead, and its result text is the
    body. A modeled payload has only a size; a scalar item's body is its
    readings' JSON, returned only when ``texts`` is set.
    """
    if count < 1 or first + count > spec.items:
        raise ExhaustedWorkload(f"items [{first}, {first + count}) out of range (items={spec.items})")
    last = first + count == spec.items
    scalar = spec.kind == "scalar"
    if spec.item_hook is not None:
        result = []
    elif scalar:
        result = [uniform(0.0, 1.0)] * int(spec.scalar_freq_hz * spec.scalar_interval_s)
    else:
        result = [spec.result_payload_bytes]
    dists = [spec.compute_ms, spec.input_bytes_per_item, *result]
    gap = [] if scalar else [spec.inter_item_gap_ms]
    rows = sample_rows(rng, dists + gap, count, omit_last=len(gap) if last else 0)

    start = clock.now
    bodies = None
    if spec.item_hook is not None:
        bodies = [spec.item_hook(first)]
        c_edge = np.array([clock.now - start])
        payload = np.array([len(bodies[0].encode("utf-8"))])
    else:
        c_edge = clock.compute(to_ms(rows[:, 0]))
        if scalar:
            readings = rows[:, 2:2 + len(result)]
            payload = scalar_batch_body(readings)
            if texts:
                bodies = [json.dumps(row, separators=(",", ":")) for row in readings.tolist()]
        else:
            payload = to_ms(rows[:, 2])
    gaps = np.full(count, round(spec.scalar_interval_s * 1000)) if scalar else to_ms(rows[:, -1])
    steps = c_edge + gaps
    send = start + np.cumsum(steps) - gaps
    next_start = None if last else int(send[-1] + gaps[-1])
    return c_edge, clock.edge_stamp(send), payload, bodies, next_start
