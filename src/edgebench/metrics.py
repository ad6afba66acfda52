"""Per-message run table, metric rows, aggregation, and report serialization.

The five metrics per message: edge compute time, time-in-flight
(t2 - t1), hub/storage residence (t3 - t2), end-to-end latency
(c_edge + t3 - t1), and payload size. In virtual runs with zero skew
the decomposition e2e = c_edge + flight + residence is an exact integer
identity, which the tests lean on heavily.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import BinaryIO, Iterator, TypedDict

import numpy as np

from .config import ParseError, ScenarioConfig, _build_section, _section_dict
from .core import SimulationError
from .network import Ledger

CSV_COLUMNS = ("id", "c_edge_ms", "t1", "t2", "t3", "flight_ms", "residence_ms", "e2e_ms", "payload_bytes")
SCHEMA_VERSION = 1
UNSET = -(2**63)  # a RunTable cell not yet written; timestamps can be negative under skew
# Rows formatted per write; bounds the export's memory. At 1024 rows each
# of a chunk's buffers stays below glibc's 128 KiB mmap threshold: the
# writer's int64 matrix of the chunk's 9 columns (74 KB), two int64
# matrices of working space over its varying columns (66 KB each on
# edge-batched, whose 8 columns vary), its text (58 KB on edge-batched; a
# line reaches 128 B only when fields average 13 or more digits) and, if a
# field is padded, the text without NULs (57 KB). Larger ones were mapped
# and unmapped, which moves that threshold, and peak RSS then varied by
# ~4% with the heap's layout alone. One edge-batched chunk peaks at ~276 KB
# of traced memory; tests/test_memory.py bounds it.
CSV_CHUNK = 1024
GROUP = 10_000  # the CSV writer's digit groups: four decimal digits each
# Started rows a report scan reads at a time; bounds its memory. A report
# makes three or more scans, whose cost is mostly numpy's per-call
# overhead per block: aggregating the 2e4 messages of acceptance-10k took
# 2.7 ms at 2048 rows and 4.0 ms at CSV_CHUNK's 1024 (2-vCPU x86-64 KVM
# guest). Each column of a block (16 KB) stays below the mmap threshold.
SCAN_ROWS = 2048
BUCKETS = 4096  # value buckets per order-statistic pass


class IncompleteRecord(SimulationError):
    """A message without all three timestamps reached reporting."""


class EmptyRun(SimulationError):
    pass


class RunTable:
    """A run's per-message state: one int64 column per quantity, indexed by message id.

    ``c_edge``, ``t1``, ``t2``, ``t3`` (ms) and ``payload`` (bytes)
    start as ``UNSET``; ``dropped`` is True for a message the link lost.
    Rows ``[0, started)`` are the items the run has started. The engine,
    the hub and the blob store write blocks of rows; reports read the
    started rows through :meth:`column`, or the delivered ones a block
    at a time through :meth:`delivered_blocks`.
    """

    COLUMNS = ("c_edge", "t1", "t2", "t3", "payload")

    def __init__(self, capacity: int):
        for name in self.COLUMNS:
            setattr(self, name, np.full(capacity, UNSET, dtype=np.int64))
        self.dropped = np.zeros(capacity, dtype=bool)
        self.started = 0

    def column(self, name: str) -> np.ndarray:
        """The started rows of a column, as a numpy view."""
        return getattr(self, name)[:self.started]

    def delivered(self) -> np.ndarray:
        """Ids of the started messages the link did not drop, ascending."""
        return np.flatnonzero(~self.column("dropped"))

    def delivered_blocks(self, size: int) -> Iterator[np.ndarray]:
        """The ids of the delivered messages, ascending, from ``size`` started rows at a time."""
        for start in range(0, self.started, size):
            yield start + np.flatnonzero(~self.dropped[start:min(start + size, self.started)])


@dataclass(frozen=True)
class MetricRow:
    id: int
    c_edge_ms: int
    t1: int
    t2: int
    t3: int
    flight_ms: int
    residence_ms: int
    e2e_ms: int
    payload_bytes: int


def finalize_row(table: RunTable) -> None:
    """Check that every delivered message carries all three timestamps.

    Raises IncompleteRecord naming the first message that misses one, so
    a run never hides a lost message.
    """
    for ids in table.delivered_blocks(SCAN_ROWS):
        missing = {name: getattr(table, name)[ids] == UNSET for name in ("t1", "t2", "t3")}
        incomplete = np.flatnonzero(np.logical_or.reduce(list(missing.values())))
        if incomplete.size:
            first = incomplete[0]
            names = [name for name, mask in missing.items() if mask[first]]
            raise IncompleteRecord(f"message {ids[first]}: missing timestamps {names}")


def _columns(table: RunTable, ids: np.ndarray) -> dict[str, np.ndarray]:
    """The CSV_COLUMNS of the messages ``ids``, as int64 arrays by name.

    The metrics are computed from one read of each table column, so the
    id, t1, t2 and t3 columns cost nothing more.
    """
    c_edge, t1, t2, t3, payload = (getattr(table, name)[ids]
                                   for name in ("c_edge", "t1", "t2", "t3", "payload"))
    return {"id": ids, "c_edge_ms": c_edge, "t1": t1, "t2": t2, "t3": t3, "flight_ms": t2 - t1,
            "residence_ms": t3 - t2, "e2e_ms": c_edge + (t3 - t1), "payload_bytes": payload}


def metric_rows(table: RunTable) -> list[MetricRow]:
    """One MetricRow per delivered message, in id order."""
    columns = [column.tolist() for column in _columns(table, table.delivered()).values()]
    return [MetricRow(*values) for values in zip(*columns)]


class _Rank:
    """The ``k``-th smallest value (1-based) of one metric of a run, found without sorting.

    Each pass over the metric counts the values in ``[lo, hi]``, the
    range known to hold it, into BUCKETS equal buckets and narrows the
    range to the bucket that holds the ``k``-th value, until one value is
    left. ``below`` counts the values under ``lo``.
    """

    def __init__(self, name: str, k: int, lo: int, hi: int):
        self.name, self.k, self.lo, self.hi, self.below = name, k, lo, hi, 0

    def narrow(self, counts: np.ndarray, width: int) -> None:
        cum = self.below + np.cumsum(counts)
        j = int(np.searchsorted(cum, self.k))  # the first bucket whose count reaches k
        self.below = int(cum[j] - counts[j])
        self.lo += j * width
        self.hi = min(self.hi, self.lo + width - 1)


def _scan(table: RunTable, visit) -> None:
    """Call ``visit`` with the columns of the delivered messages, SCAN_ROWS started rows at a time.

    Only one block's columns are alive at a time.
    """
    for ids in table.delivered_blocks(SCAN_ROWS):
        visit(_columns(table, ids))


def aggregate(table: RunTable) -> Aggregates:
    """Mean, nearest-rank median and p95 of each metric over the delivered messages of a run.

    The mean divides the exact integer sum. The median and p95 are
    selected by :class:`_Rank` passes, so memory stays one block and one
    histogram per rank, whatever the run's length.
    """
    n = table.started - int(np.count_nonzero(table.column("dropped")))
    if not n:
        raise EmptyRun("cannot aggregate an empty run")
    total = dict.fromkeys(METRIC_NAMES, 0)
    low, high = {}, {}

    def add(block):
        for name in METRIC_NAMES:
            column = block[name]
            if column.size:
                lo, hi = int(column.min()), int(column.max())
                exact = max(-lo, hi) <= (2**63 - 1) // column.size  # its int64 sum cannot overflow
                total[name] += int(column.sum()) if exact else sum(column.tolist())
                low[name] = min(low.get(name, lo), lo)
                high[name] = max(high.get(name, hi), hi)

    _scan(table, add)
    # nearest rank: the value at rank ceil(pct/100 * n), 1-based
    ranks = {(name, pct): _Rank(name, max(1, math.ceil(pct / 100.0 * n)), low[name], high[name])
             for name in METRIC_NAMES for pct in (50, 95)}
    while unresolved := [r for r in ranks.values() if r.lo < r.hi]:
        # ranks of one metric that are in the same range share one count
        widths = {(r.name, r.lo, r.hi): (r.hi - r.lo) // BUCKETS + 1 for r in unresolved}
        counts = {key: np.zeros(BUCKETS, dtype=np.int64) for key in widths}

        def count(block):
            for (name, lo, hi), width in widths.items():
                column = block[name]
                inside = column[(column >= lo) & (column <= hi)]
                # offsets from lo as unsigned, so a range wider than int64 cannot overflow
                buckets = (inside - lo).view(np.uint64) // np.uint64(width)
                counts[name, lo, hi] += np.bincount(buckets.astype(np.intp), minlength=BUCKETS)

        _scan(table, count)
        for r in unresolved:
            key = (r.name, r.lo, r.hi)
            r.narrow(counts[key], widths[key])
    return {name: {"mean": total[name] / n, "median": float(ranks[name, 50].lo),
                   "p95": float(ranks[name, 95].lo)} for name in METRIC_NAMES}


# --- report.json: RunReport is its schema, read by config.py's reader like a
# config. Its sections are TypedDicts (Ledger is network.py's), so they stay
# plain dicts in memory.

class Summary(TypedDict):
    mean: float
    median: float
    p95: float


class Aggregates(TypedDict):
    """A Summary of each metric over the delivered messages."""

    c_edge_ms: Summary
    flight_ms: Summary
    residence_ms: Summary
    e2e_ms: Summary
    payload_bytes: Summary


METRIC_NAMES = tuple(Aggregates.__annotations__)


class Resources(TypedDict, total=False):
    """``mode`` modeled or measured with the rest, or unavailable with a ``reason``."""

    mode: str
    cpu_pct_mean: float
    ram_mb_mean: float
    samples: int
    reason: str


@dataclass
class RunReport:
    """Aggregated outcome of one run, reproducible from seed + config."""

    label: str
    pipeline: str
    seed: int
    config: ScenarioConfig
    aggregates: Aggregates
    ledger: Ledger
    message_count: int
    blob_count: int
    dropped_count: int
    duration_ms: int
    resources: Resources | None = None
    fingerprint: str = ""
    schema: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema != SCHEMA_VERSION:
            raise ValueError(f"schema must be {SCHEMA_VERSION}, got {self.schema}")
        if not self.fingerprint:
            self.fingerprint = config_fingerprint(self.config.to_dict())


def config_fingerprint(config: dict) -> str:
    """Stable hash of a resolved config; invariant under re-serialization."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def rows_to_csv(table: RunTable, out: BinaryIO) -> None:
    """Write the fixed-column CSV of the delivered messages to ``out``.

    Rows are formatted CSV_CHUNK at a time by :func:`_csv_text`, whose
    bytes are those of ``"%d,%d,...\\n" % row`` for every row; the bytes
    are identical for identical runs.
    """
    out.write((",".join(CSV_COLUMNS) + "\n").encode())
    for ids in table.delivered_blocks(CSV_CHUNK):
        if ids.size:
            out.write(_csv_text(np.stack(list(_columns(table, ids).values()))))


def _group_words(zero: bytes) -> np.ndarray:
    """The text of base-10**4 digit groups: a uint8 matrix with one four-byte row per group.

    Row ``q`` in [0, GROUP) is a group below a value's leading group:
    ``%04d`` of q. Row ``q - GROUP``, negative, is a leading group q:
    the same text with its leading zeros NUL bytes, and ``zero`` for
    q = 0, which is a units group of 0 or a group above the leading one.
    """
    n = np.arange(GROUP)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    text = (digits + ord("0")).astype(np.uint8)
    lead = np.where(np.cumsum(digits, axis=1) > 0, text, 0).astype(np.uint8)
    lead[0] = np.frombuffer(zero, np.uint8)
    return np.concatenate([text, lead])  # row q - GROUP counts from the end: lead[q]


def _words(table: np.ndarray, width: int) -> np.ndarray:
    """The last ``width`` bytes of each row of ``table``, one contiguous ``V<width>`` item per row.

    ``take`` copies a table that is not contiguous on every call, so a
    narrower word is its own small array, not a strided view.
    """
    return np.ascontiguousarray(table[:, 4 - width:]).view(f"V{width}")[:, 0]


_UNITS = _group_words(b"\0\0\0" b"0")
_UPPER = _group_words(b"\0\0\0\0")
# by k > 0 (is the group above the units): the text of a group below a field's top group ...
_LOWER = (_words(_UNITS, 4), _words(_UPPER, 4))
# ... and of a top group of r digits, indexed by its value in [0, 10**r): the leading-group rows
_TOP = tuple({r: _words(table[GROUP:GROUP + 10**r], r) for r in (1, 2, 3, 4)} for table in (_UNITS, _UPPER))


def _csv_text(x: np.ndarray) -> bytearray:
    """The CSV lines of an int64 matrix's rows, one row per field, as ``%d`` formats them.

    A field whose row holds one value is that value's ``%d`` text in the
    line template, which also holds the commas and the newline. Every
    other field is a fixed number of bytes in every line, as many as the
    row's widest ``%d`` text has: a sign byte if the row has a negative
    value, ``-`` or NUL, then the magnitude's digits, written by
    :func:`_fill`. A value with fewer digits than its field has NUL
    bytes in their place, and ``%d`` text has no NUL, so deleting every
    NUL leaves exactly the ``%d`` lines. When every varying row has one
    sign and one digit count, no field is padded and the text is kept as
    it is. ``x`` is overwritten.
    """
    template, fields = bytearray(), []  # fields: (end, sign, digits) of each varying row
    for row, (lo, hi) in enumerate(zip(x.min(axis=1).tolist(), x.max(axis=1).tolist())):
        if lo == hi:
            template += b"%d," % lo
            continue
        sign, digits = lo < 0, len(str(max(hi, -lo)))
        template += bytes(sign + digits) + b","
        if row != len(fields):
            x[len(fields)] = x[row]  # the varying rows, in order, become the first rows of x
        fields.append((len(template) - 1, sign, digits))
    template[-1:] = b"\n"
    text = template * x.shape[1]
    if fields:
        _fill(np.frombuffer(text, np.uint8).reshape(x.shape[1], len(template)), x[:len(fields)], fields)
    return text.translate(None, b"\0") if b"\0" in text else text


def _fill(lines: np.ndarray, x: np.ndarray, fields: list[tuple[int, bool, int]]) -> None:
    """Write row ``i`` of ``x`` into the field ``fields[i]`` = (end, sign, digits) of each line.

    The digits are split from the exact magnitude into base-10**4
    groups, units first, by integer division of all rows at once. A
    field of ``digits`` digits has ``g = ceil(digits / 4)`` groups; its
    top group holds the ``r`` digits left over above the lower ones, 1
    to 4, and what is left of a value at that group is already below
    10**r, so it is looked up with no division as the ``r``-byte
    leading-group text in ``_TOP``. A lower group is looked up in
    ``_LOWER``, one ``take`` over all rows per group; a value's leading
    group has its leading zeros as NUL bytes and every group above it is
    all NUL (:func:`_group_words`).
    """

    def field(start, width):
        return lines[:, start:start + width].view(f"V{width}")[:, 0]

    if any(sign for _, sign, _ in fields):
        minus = x < 0
        x = x.view(np.uint64)
        np.negative(x, out=x, where=minus)  # the magnitudes, exact for -2**63 too
        for (end, sign, digits), negative in zip(fields, minus):
            if sign:
                np.multiply(negative, ord("-"), out=lines[:, end - digits - 1], casting="unsafe")
        del minus
    groups = [(digits + 3) // 4 for _, _, digits in fields]
    low, high, step = x, np.empty_like(x), np.empty_like(x)
    for k in range(max(groups)):
        for (end, _, digits), g, value in zip(fields, groups, low):
            if g == k + 1:
                r = digits - 4 * k
                _TOP[k > 0][r].take(value, out=field(end - 4 * k - r, r), mode="clip")
        if k + 1 == max(groups):
            break
        np.floor_divide(low, GROUP, out=high)
        np.maximum(high, 1, out=step)
        step *= GROUP
        low -= step  # group q, or q - GROUP if no higher group is nonzero: a row of _group_words
        words = step.reshape(-1).view("V4")[:step.size].reshape(step.shape)  # step's bytes, free now
        _LOWER[k > 0].take(low.view(np.int64), out=words, mode="wrap")
        for (end, _, _), g, word in zip(fields, groups, words):
            if g > k + 1:
                field(end - 4 * (k + 1), 4)[:] = word
        low, high = high, low


def report_to_json(report: RunReport) -> bytes:
    """Round-trippable JSON with explicit nulls for absent fields."""
    return (json.dumps(_section_dict(report), indent=2, sort_keys=True) + "\n").encode("utf-8")


def report_from_json(data: bytes | str) -> RunReport:
    """The RunReport that :func:`report_to_json` wrote; else ParseError naming a bad key's dotted path."""
    try:
        doc = json.loads(data)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ParseError(f"not a JSON text: {exc}") from None
    return _build_section(RunReport, doc, "report")
