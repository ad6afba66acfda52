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

from .core import (MAX_CONFIG_MS, Distribution, SeededRng, SimulationError, constant, sample_rows, to_ms,
                   uniform)

WORKLOAD_KINDS = ("scalar", "image", "audio", "custom")
MAX_SCALAR_READINGS = 10 ** 4  # readings in one scalar message


class InvalidRate(SimulationError, ValueError):
    """Raised for a non-positive scalar emission rate or interval."""


class ExhaustedWorkload(SimulationError):
    """Raised when an item index is past the end of the workload."""


@dataclass(frozen=True)
class WorkloadSpec:
    """A benchmark driver definition.

    ``items`` (required, at least 1) is the number of messages a run
    emits (for scalar, the number of batch messages). ``warmup_delay_s``
    delays the first item so startup network noise is excluded from byte
    accounting.
    ``item_hook`` (live mode only) does an item's real work in place of
    the modeled compute time and payload: it is called with the item
    index and returns the result text. It is set from code and is not a
    config key.
    """

    kind: str = "custom"
    items: int = field(kw_only=True)
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
        if self.items < 1:
            raise ValueError(f"items must be >= 1, got {self.items}")
        if self.warmup_delay_s < 0:
            raise ValueError("warmup_delay_s must be >= 0")
        if round(self.warmup_delay_s * 1000) > MAX_CONFIG_MS:
            raise ValueError(f"warmup_delay_s must be at most 2**53 ms, got {self.warmup_delay_s}")
        if self.kind == "scalar":
            if self.scalar_freq_hz <= 0:
                raise InvalidRate(f"scalar_freq_hz must be > 0, got {self.scalar_freq_hz}")
            if self.scalar_interval_s <= 0:
                raise InvalidRate(f"scalar_interval_s must be > 0, got {self.scalar_interval_s}")
            if round(self.scalar_interval_s * 1000) > MAX_CONFIG_MS:
                raise ValueError(f"scalar_interval_s must be at most 2**53 ms, got {self.scalar_interval_s}")
            readings = self.scalar_freq_hz * self.scalar_interval_s  # a message holds int(readings)
            if readings >= MAX_SCALAR_READINGS + 1:
                raise ValueError(f"scalar_freq_hz * scalar_interval_s must be at most "
                                 f"{MAX_SCALAR_READINGS} readings a message, got {readings}")


@dataclass(frozen=True)
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


# Readings the length kernel works on at a time. Its ten buffers of this
# many 8-byte values (16 KB each) stay below glibc's mmap threshold (see
# metrics.CSV_CHUNK); sizing a 1024 x 12 block peaks at ~180 KB of traced
# memory, which tests/test_memory.py bounds.
SIZE_SLICE = 2048
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
# 10**(15 - e) for decade index i = searchsorted(_DECADES, x, "right"), e = i - 5;
# 1.0 for the values outside [1e-4, 1), which go to repr
_SCALE = np.array([1.0] + [10.0 ** (20 - i) for i in range(1, 5)] + [1.0])
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's splitter for 53-bit significands
_PHI = 2.0 ** 52 + 1  # Rump's ufp: with q = _PHI * x, q - (1 - 2**-53) * q is 2**floor(log2(x))
_TIE = 2.0 ** -40  # relative half-width of the band around h that goes to repr


def _multiple_distance(q: np.ndarray, f: np.ndarray, step: float, out: np.ndarray) -> np.ndarray:
    """``|q + f - k * step|`` for ``k = rint(q / step)``, into ``out``.

    ``q`` is integral and below 2**54, ``|f| <= 1.5`` and ``step`` is 10
    or 100. This is the distance from ``q + f`` to the nearest multiple of
    ``step`` whenever that distance is below 1.2, the most ``h`` can be.
    ``q - k * step`` is exact, so the one rounding is of its sum with ``f``.
    """
    np.multiply(q, 1 / step, out=out)
    np.rint(out, out=out)
    out *= -step
    out += q
    out += f
    return np.abs(out, out=out)


def _positional_lengths(x: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Write ``len(repr(v))`` for each value of ``x`` into ``length``; True where repr must decide.

    ``x`` is a contiguous float64 array. The returned mask marks the
    values whose ``length`` entry is not set: values outside [1e-4, 1),
    values with 14 or fewer significant digits, and near-ties.

    ``a < b`` is computed from the sign of ``a - b``, exact for finite
    values: as ``signbit`` for a mask, and as the sign bit shifted across
    the int64 word (-1 or 0) for a digit count. A run calls no ordered
    float64 comparison or bool-to-int64 loop elsewhere, and the first
    call of each maps ~64 KiB more of numpy's code into the resident set,
    ~3 B per message of edge-scalar's peak RSS.
    """
    idx = np.searchsorted(_DECADES, x, side="right")
    s = _SCALE.take(idx)
    np.subtract(23, idx, out=length)  # 1 - e + 17 digits
    back = np.signbit(s - 2.0)  # s == 1: outside [1e-4, 1)
    # Dekker's TwoProduct: x * s == p + err exactly
    sh = s * _SPLIT
    sl = sh - s
    sh -= sl
    np.subtract(s, sh, out=sl)
    xh = x * _SPLIT
    xl = xh - x
    xh -= xl
    np.subtract(x, xh, out=xl)
    p = x * s
    err = xh * sh
    err -= p
    sh *= xl
    err += sh
    xh *= sl
    err += xh
    xl *= sl
    err += xl
    q = np.rint(p, out=sh)
    f = np.subtract(p, q, out=sl)
    f += err
    # h: half an ulp of x, times s
    h = np.multiply(x, _PHI, out=p)
    h -= np.multiply(h, 1 - 2.0 ** -53, out=xh)
    h *= s
    h *= 2.0 ** -53
    # 16 and 15 digits: distance from P to the nearest integer and multiple of 10, each
    # taking a digit off when below h; tie keeps the smaller distance to h
    tie = np.rint(f, out=err)
    np.subtract(f, tie, out=tie)
    np.abs(tie, out=tie)
    tie -= h
    length += np.right_shift(tie.view(np.int64), 63, out=idx)
    np.abs(tie, out=tie)
    r = _multiple_distance(q, f, 10.0, xl)
    r -= h
    length += np.right_shift(r.view(np.int64), 63, out=idx)
    np.abs(r, out=r)
    np.minimum(tie, r, out=tie)
    h *= _TIE
    tie -= h
    back |= np.signbit(tie)
    h *= 1 / _TIE + 1  # h plus the band: 14 digits or fewer, or a near-tie
    _multiple_distance(q, f, 100.0, r)
    r -= h
    back |= np.signbit(r)
    return back


def scalar_batch_body(readings: np.ndarray) -> np.ndarray:
    """Byte size of each row's body: the JSON array of its sensor readings.

    A body is ``json.dumps(row, separators=(",", ":"))``, the reprs of
    its readings joined by commas inside brackets, so a row of
    ``count >= 1`` readings takes ``2 + (count - 1) + sum(len(repr(x)))``
    bytes and an empty one 2. The reprs are ASCII.

    ``len(repr(x))`` is computed exactly by array arithmetic, SIZE_SLICE
    readings at a time, and no text is built. repr prints the fewest
    significant digits ``d`` whose decimal rounds back to ``x``. For
    1e-4 <= x < 1 the text is positional, ``1 - e + d`` characters, where
    ``e`` is x's decimal exponent (exact by comparison with the doubles
    nearest 1e-4, ..., 1e-1). With ``s = 15 - e``, a d-digit decimal
    rounds back to ``x`` iff a multiple of ``10**(16 - d)`` lies within
    ``h = ulp(x) * 10**s / 2`` of ``P = x * 10**s``: strictly, since a
    midpoint of two doubles below 1 has at least 54 decimal places, so no
    decimal of 17 or fewer digits lies at exactly ``h``.

    - ``10**s`` (s <= 19) and ``h`` are exact doubles; ``ulp(x)`` comes
      from Rump's ufp, 2**floor(log2(x)), by two products.
    - Dekker's TwoProduct gives ``P = p + err`` exactly. With
      ``q = rint(p)``, ``P = q + f`` and ``f = (p - q) + err`` rounds
      once. Since ``P < 10**16``, ``p`` may exceed 2**53, where ``q`` is
      ``p`` and ``|f|`` may exceed 1/2: the nearest integer is
      ``q + rint(f)``.
    - The distances to the nearest integer (d = 16), multiple of 10
      (15) and of 100 (14) come from ``f`` and from ``q`` minus an exact
      multiple of 10 or 100, each with one rounding: off by under 4e-15.
      ``h >= 10**15 * 2**-54``, so a distance within ``2**-40 * h`` of
      ``h`` is a near-tie. A comparison is the sign of a difference,
      which rounding never changes.

    repr decides the near-ties, the values with 14 or fewer digits
    (about 1% of uniform draws, every power of two among them, whose
    lower rounding gap is half the upper one) and every value outside
    [1e-4, 1).
    """
    n, count = readings.shape
    if not n * count:
        return np.full(n, 2, dtype=np.int64)
    slices = -(-n * count // SIZE_SLICE)
    rows = -(-n // slices)  # balanced: no short last slice
    sums = np.empty(n, np.int64)
    x_buf = np.empty((rows, count))
    length_buf = np.empty((rows, count), np.int64)
    with np.errstate(all="ignore"):  # values outside [1e-4, 1) go through as garbage; repr sizes them
        for first in range(0, n, rows):
            x, length = x_buf[:n - first], length_buf[:n - first]
            np.copyto(x, readings[first:first + rows])
            back = np.flatnonzero(_positional_lengths(x, length))
            if back.size:
                length.ravel()[back] = [len(repr(v)) for v in x.ravel()[back].tolist()]
            length.sum(axis=1, out=sums[first:first + len(x)])
    sums += 1 + count
    return sums


DEVICE = "device-0"  # the run's one source: it sends the messages and names their bodies


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str] | None, int]:
    """Process items ``[first, first + count)`` back to back from the current clock time.

    Returns ``(c_edge, send, payload, bodies, next_start)``: each item's
    edge compute time (ms), true send instant and result size as int64
    arrays, the items' result texts (or None), and the time the item
    after the block starts.

    Per item the workload stream draws compute time, input size (unused
    at the edge, drawn to keep the stream's order), payload size or
    scalar readings, then the gap to the next item; a scalar item's gap
    is its interval. Items run sequentially: send = start + c_edge, and
    the next item starts a gap after that. The drawn compute time is
    spent through ``clock.compute`` (a virtual clock takes it as drawn, a
    wall clock busy-waits it). A spec with an ``item_hook`` (live mode,
    one item per block) does the item's real work instead, and its
    result text is the body. A modeled payload has only a size; a scalar
    item's body is its readings' JSON, returned only when ``texts`` is set.
    """
    if count < 1 or first + count > spec.items:
        raise ExhaustedWorkload(f"items [{first}, {first + count}) out of range (items={spec.items})")
    scalar = spec.kind == "scalar"
    if spec.item_hook is not None:
        result = []
    elif scalar:
        result = [uniform(0.0, 1.0)] * int(spec.scalar_freq_hz * spec.scalar_interval_s)
    else:
        result = [spec.result_payload_bytes]
    dists = [spec.compute_ms, spec.input_bytes_per_item, *result]
    rows = sample_rows(rng, dists if scalar else dists + [spec.inter_item_gap_ms], count)

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
    return c_edge, send, payload, bodies, int(send[-1] + gaps[-1])
