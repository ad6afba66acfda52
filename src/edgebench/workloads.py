"""Benchmark workload drivers.

The audio/image/scalar pipelines are driven by calibrated compute-time
and payload-size profiles instead of real decoders or classifiers; an
optional per-item hook lets live mode plug in real work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Distribution, SeededRng, SimulationError, constant, uniform_span

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

    def gap_ms(self, rng: SeededRng) -> int:
        """Gap before the next item; scalar cadence follows its interval."""
        if self.kind == "scalar":
            return round(self.scalar_interval_s * 1000)
        return self.inter_item_gap_ms.sample_int(rng)


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
        Constant and uniform kinds are drawn as one block, equal value
        for value to ``n`` single draws; other kinds are drawn one sample
        at a time.
        """
        dists = (self.cpu_pct, self.ram_mb)
        if all(d.kind in ("constant", "uniform") for d in dists):
            spans = [uniform_span(*d.params) for d in dists if d.kind == "uniform"]
            # row i holds sample i's uniform draws, cpu's first, as single draws take them
            draws = rng.random_array(n * len(spans)).reshape(n, len(spans)).T
            columns = iter(low + span * u for (low, span), u in zip(spans, draws))
            cpu, ram = (next(columns) if d.kind == "uniform" else np.full(n, float(d.params[0]))
                        for d in dists)
        else:
            cpu, ram = np.array([[d.sample(rng) for d in dists] for _ in range(n)],
                                dtype=float).reshape(n, 2).T
        cpu = np.minimum(np.maximum(cpu, 0.0), 100.0 * self.cores)
        ram = np.maximum(ram, 0.0) + self.platform_ram_delta_mb
        return cpu, ram


def scalar_batch_body(freq_hz: float, interval_s: float, rng: SeededRng) -> str:
    """UTF-8 JSON array of floor(freq*interval) sensor readings."""
    if freq_hz <= 0:
        raise InvalidRate(f"freq_hz must be > 0, got {freq_hz}")
    if interval_s <= 0:
        raise InvalidRate(f"interval_s must be > 0, got {interval_s}")
    count = int(freq_hz * interval_s)
    values = [rng.random() for _ in range(count)]
    return json.dumps(values, separators=(",", ":"))


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
    idx: int,
    clock,
    rng: SeededRng,
) -> tuple[int, int, int, str | None]:
    """Process one workload item starting at the current clock time.

    Returns ``(c_edge, t1, payload_bytes, body)``: the item's edge
    compute time (ms), its send timestamp, the size of its result and
    the result text. The drawn compute time is spent through
    ``clock.compute`` (a virtual clock takes it as drawn, a wall clock
    busy-waits it), or, when the spec has an ``item_hook``, the hook does
    the item's real work and its result text is the body. A modeled
    payload has only a size: its body is None. Items run sequentially:
    t1 = edge_stamp(start + c_edge), the instant the edge finishes
    computing and stamps the send timestamp.
    """
    if idx >= spec.items:
        raise ExhaustedWorkload(f"item {idx} out of range (items={spec.items})")
    start = clock.now
    c_edge = spec.compute_ms.sample_int(rng)
    spec.input_bytes_per_item.sample_int(rng)  # drawn to keep the stream's order; unused at the edge
    body = None
    if spec.item_hook is not None:
        body = spec.item_hook(idx)
        c_edge = clock.now - start
        payload = len(body.encode("utf-8"))
    else:
        c_edge = clock.compute(c_edge)
        if spec.kind == "scalar":
            body = scalar_batch_body(spec.scalar_freq_hz, spec.scalar_interval_s, rng)
            payload = len(body.encode("utf-8"))
        else:
            payload = spec.result_payload_bytes.sample_int(rng)
    return c_edge, clock.edge_stamp(start + c_edge), payload, body
