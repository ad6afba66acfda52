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
from array import array
from dataclasses import asdict, dataclass, fields
from typing import BinaryIO, Iterator

import numpy as np

from .core import SimulationError

CSV_COLUMNS = ("id", "c_edge_ms", "t1", "t2", "t3", "flight_ms", "residence_ms", "e2e_ms", "payload_bytes")
METRIC_NAMES = ("c_edge_ms", "flight_ms", "residence_ms", "e2e_ms", "payload_bytes")
SCHEMA_VERSION = 1
UNSET = -(2**63)  # a RunTable cell not yet written; timestamps can be negative under skew
# Rows formatted per write; bounds the export's memory. At 1024 rows a
# chunk's buffers (~74 KB of int64, its tuple, the formatted text) stay
# below glibc's 128 KiB mmap threshold. Larger ones were mapped and
# unmapped, which moves that threshold, and peak RSS then varied by ~4%
# with the heap's layout alone.
CSV_CHUNK = 1024


class IncompleteRecord(SimulationError):
    """A message without all three timestamps reached reporting."""


class EmptyRun(SimulationError):
    pass


class RunTable:
    """A run's per-message state: one int64 column per quantity, indexed by message id.

    ``c_edge``, ``t1``, ``t2``, ``t3`` (ms), ``payload`` (bytes) and
    ``blob`` (the index of the blob that holds the message) start as
    ``UNSET``; ``dropped`` is 1 for a message the link lost. Rows
    ``[0, started)`` are the items the run has started. The drivers, the
    hub and the blob store write single cells; reports read whole columns
    through :meth:`column`.
    """

    COLUMNS = ("c_edge", "t1", "t2", "t3", "payload", "blob")

    def __init__(self, capacity: int):
        unset = array("q", [UNSET])
        for name in self.COLUMNS:
            setattr(self, name, unset * capacity)
        self.dropped = bytearray(capacity)
        self.started = 0

    def column(self, name: str) -> np.ndarray:
        """The started rows of a column, as a numpy view (``dropped`` as bool)."""
        dtype = bool if name == "dropped" else np.int64
        return np.frombuffer(getattr(self, name), dtype=dtype)[:self.started]

    def delivered(self) -> np.ndarray:
        """Ids of the started messages the link did not drop, ascending."""
        return np.flatnonzero(~self.column("dropped"))


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
    ids = table.delivered()
    missing = {name: table.column(name)[ids] == UNSET for name in ("t1", "t2", "t3")}
    incomplete = np.flatnonzero(np.logical_or.reduce(list(missing.values())))
    if incomplete.size:
        first = incomplete[0]
        names = [name for name, mask in missing.items() if mask[first]]
        raise IncompleteRecord(f"message {ids[first]}: missing timestamps {names}")


def _metric_columns(table: RunTable, ids: np.ndarray) -> Iterator[np.ndarray]:
    """The CSV_COLUMNS of messages ``ids``, one int64 array at a time."""
    def take(name):
        return table.column(name)[ids]

    yield ids
    yield take("c_edge")
    yield take("t1")
    yield take("t2")
    yield take("t3")
    yield take("t2") - take("t1")
    yield take("t3") - take("t2")
    yield take("c_edge") + (take("t3") - take("t1"))
    yield take("payload")


def metric_rows(table: RunTable) -> list[MetricRow]:
    """One MetricRow per delivered message, in id order."""
    columns = [column.tolist() for column in _metric_columns(table, table.delivered())]
    return [MetricRow(*values) for values in zip(*columns)]


def nearest_rank(sorted_values: list, pct: float):
    """Nearest-rank percentile: value at rank ceil(pct/100 * n), 1-based."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1]


def _summary(column: np.ndarray) -> dict:
    """Mean, nearest-rank median and p95 of an int64 column, which is sorted in place.

    The mean divides the exact integer sum, as a sum of Python ints would.
    """
    n = column.size
    exact = max(-int(column.min()), int(column.max())) <= (2**63 - 1) // n  # no int64 overflow
    total = int(column.sum()) if exact else sum(column.tolist())
    column.sort()
    return {"mean": total / n, "median": float(nearest_rank(column, 50)),
            "p95": float(nearest_rank(column, 95))}


@dataclass
class RunReport:
    """Aggregated outcome of one run, reproducible from seed + config."""

    label: str
    pipeline: str
    seed: int
    config: dict
    aggregates: dict[str, dict]
    ledger: dict
    resources: dict | None
    message_count: int
    blob_count: int
    dropped_count: int
    duration_ms: int
    fingerprint: str = ""
    schema: int = SCHEMA_VERSION

    def __post_init__(self):
        if not self.fingerprint:
            self.fingerprint = config_fingerprint(self.config)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunReport":
        return cls(**{f.name: doc[f.name] for f in fields(cls)})


def config_fingerprint(config: dict) -> str:
    """Stable hash of a resolved config; invariant under re-serialization."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def aggregate(
    table: RunTable,
    *,
    label: str = "run",
    pipeline: str = "edge",
    seed: int = 0,
    config: dict | None = None,
    ledger: dict | None = None,
    resources: dict | None = None,
    blob_count: int = 0,
    duration_ms: int = 0,
) -> RunReport:
    """Aggregate the delivered messages of a run table into a RunReport (mean / median / p95)."""
    ids = table.delivered()
    if not ids.size:
        raise EmptyRun("cannot aggregate an empty run")
    columns = zip(CSV_COLUMNS, _metric_columns(table, ids))
    aggregates = {name: _summary(column) for name, column in columns if name in METRIC_NAMES}
    return RunReport(
        label=label,
        pipeline=pipeline,
        seed=seed,
        config=config or {},
        aggregates=aggregates,
        ledger=ledger or {"sources": {}, "total": {"payload_bytes": 0, "overhead_bytes": 0, "transmitted_bytes": 0}},
        resources=resources,
        message_count=ids.size,
        blob_count=blob_count,
        dropped_count=int(table.column("dropped").sum()),
        duration_ms=duration_ms,
    )


def rows_to_csv(table: RunTable, out: BinaryIO) -> None:
    """Write the fixed-column CSV of the delivered messages to ``out``.

    Rows are formatted CSV_CHUNK at a time; the bytes are identical for
    identical runs.
    """
    out.write((",".join(CSV_COLUMNS) + "\n").encode())
    line = ",".join(["%d"] * len(CSV_COLUMNS)) + "\n"
    ids = table.delivered()
    for start in range(0, ids.size, CSV_CHUNK):
        chunk = np.column_stack(list(_metric_columns(table, ids[start:start + CSV_CHUNK])))
        out.write((line * len(chunk) % tuple(chunk.ravel().tolist())).encode())


def report_to_json(report: RunReport) -> bytes:
    """Round-trippable JSON with explicit nulls for absent fields."""
    return (json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n").encode("utf-8")


def report_from_json(data: bytes | str) -> RunReport:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return RunReport.from_dict(json.loads(data))
