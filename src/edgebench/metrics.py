"""Per-message metric rows, aggregation, and report serialization.

The five metrics per message: edge compute time, time-in-flight
(t2 - t1), hub/storage residence (t3 - t2), end-to-end latency
(c_edge + t3 - t1), and payload size. In virtual runs with zero skew
the decomposition e2e = c_edge + flight + residence is an exact integer
identity, which the tests lean on heavily.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

from .core import SimulationError, TimestampRecord

CSV_COLUMNS = ("id", "c_edge_ms", "t1", "t2", "t3", "flight_ms", "residence_ms", "e2e_ms", "payload_bytes")
METRIC_NAMES = ("c_edge_ms", "flight_ms", "residence_ms", "e2e_ms", "payload_bytes")
SCHEMA_VERSION = 1


class IncompleteRecord(SimulationError):
    """A message without all three timestamps reached reporting."""


class EmptyRun(SimulationError):
    pass


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


def finalize_row(ts: TimestampRecord, payload_bytes: int, msg_id: int) -> MetricRow:
    """Compute one metric row from a completed timestamp record."""
    if not ts.complete():
        missing = [n for n in ("t1", "t2", "t3") if getattr(ts, n) is None]
        raise IncompleteRecord(f"message {msg_id}: missing timestamps {missing}")
    return MetricRow(
        id=msg_id,
        c_edge_ms=ts.c_edge,
        t1=ts.t1,
        t2=ts.t2,
        t3=ts.t3,
        flight_ms=ts.t2 - ts.t1,
        residence_ms=ts.t3 - ts.t2,
        e2e_ms=ts.c_edge + (ts.t3 - ts.t1),
        payload_bytes=payload_bytes,
    )


def nearest_rank(sorted_values: list, pct: float):
    """Nearest-rank percentile: value at rank ceil(pct/100 * n), 1-based."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class Aggregate:
    mean: float
    median: float
    p95: float

    @classmethod
    def of(cls, values: list) -> "Aggregate":
        ordered = sorted(values)
        return cls(
            mean=sum(values) / len(values),
            median=float(nearest_rank(ordered, 50)),
            p95=float(nearest_rank(ordered, 95)),
        )


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
        return {
            "schema": self.schema,
            "label": self.label,
            "pipeline": self.pipeline,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "config": self.config,
            "aggregates": self.aggregates,
            "ledger": self.ledger,
            "resources": self.resources,
            "message_count": self.message_count,
            "blob_count": self.blob_count,
            "dropped_count": self.dropped_count,
            "duration_ms": self.duration_ms,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunReport":
        return cls(
            label=doc["label"],
            pipeline=doc["pipeline"],
            seed=doc["seed"],
            config=doc["config"],
            aggregates=doc["aggregates"],
            ledger=doc["ledger"],
            resources=doc["resources"],
            message_count=doc["message_count"],
            blob_count=doc["blob_count"],
            dropped_count=doc["dropped_count"],
            duration_ms=doc["duration_ms"],
            fingerprint=doc["fingerprint"],
            schema=doc["schema"],
        )


def config_fingerprint(config: dict) -> str:
    """Stable hash of a resolved config; invariant under re-serialization."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def aggregate(
    rows: list[MetricRow],
    *,
    label: str = "run",
    pipeline: str = "edge",
    seed: int = 0,
    config: dict | None = None,
    ledger: dict | None = None,
    resources: dict | None = None,
    blob_count: int = 0,
    dropped_count: int = 0,
    duration_ms: int = 0,
) -> RunReport:
    """Aggregate metric rows into a RunReport (mean / median / p95)."""
    if not rows:
        raise EmptyRun("cannot aggregate an empty run")
    aggregates = {}
    for name in METRIC_NAMES:
        values = [getattr(r, name) for r in rows]
        agg = Aggregate.of(values)
        aggregates[name] = {"mean": agg.mean, "median": agg.median, "p95": agg.p95}
    return RunReport(
        label=label,
        pipeline=pipeline,
        seed=seed,
        config=config or {},
        aggregates=aggregates,
        ledger=ledger or {"sources": {}, "total": {"payload_bytes": 0, "overhead_bytes": 0, "transmitted_bytes": 0}},
        resources=resources,
        message_count=len(rows),
        blob_count=blob_count,
        dropped_count=dropped_count,
        duration_ms=duration_ms,
    )


def rows_to_csv(rows: list[MetricRow]) -> bytes:
    """Fixed-column CSV; byte-identical for identical runs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([getattr(row, col) for col in CSV_COLUMNS])
    return buf.getvalue().encode("utf-8")


def report_to_json(report: RunReport) -> bytes:
    """Round-trippable JSON with explicit nulls for absent fields."""
    return (json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n").encode("utf-8")


def report_from_json(data: bytes | str) -> RunReport:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return RunReport.from_dict(json.loads(data))
