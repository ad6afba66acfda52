"""Metric rows, aggregation, and export round-trips."""

import json

import numpy as np
import pytest

from edgebench.core import SeededRng, TimestampRecord
from edgebench.metrics import (
    EmptyRun,
    IncompleteRecord,
    MetricRow,
    aggregate,
    config_fingerprint,
    finalize_row,
    nearest_rank,
    report_from_json,
    report_to_json,
    rows_to_csv,
)


def row_from(c_edge, t1, t2, t3, payload=100, mid=0):
    return finalize_row(TimestampRecord(t1=t1, t2=t2, t3=t3, c_edge=c_edge), payload, mid)


def synthetic_rows(n, seed=0):
    rng = SeededRng(seed)
    rows = []
    t = 0
    for i in range(n):
        c = int(rng.uniform(0, 500))
        flight = int(rng.uniform(0, 100))
        residence = int(rng.uniform(0, 2000))
        t1 = t + c
        rows.append(row_from(c, t1, t1 + flight, t1 + flight + residence,
                             payload=int(rng.uniform(50, 800)), mid=i))
        t += int(rng.uniform(0, 50))
    return rows


class TestFinalizeRow:
    def test_direct_formula(self):
        row = row_from(4770, t1=0, t2=20, t3=80)
        assert row.e2e_ms == 4850
        assert row.flight_ms == 20
        assert row.residence_ms == 60

    def test_degenerate_zero(self):
        row = row_from(0, t1=100, t2=100, t3=100)
        assert row.flight_ms == row.residence_ms == row.e2e_ms == 0

    def test_incomplete_record(self):
        with pytest.raises(IncompleteRecord, match="t3"):
            finalize_row(TimestampRecord(t1=0, t2=10, t3=None), 10, 7)

    def test_decomposition_identity(self):
        for row in synthetic_rows(2000, seed=9):
            assert row.e2e_ms == row.c_edge_ms + row.flight_ms + row.residence_ms


class TestAggregate:
    def rows_with_e2e(self, values):
        return [row_from(0, 0, 0, v, mid=i) for i, v in enumerate(values)]

    def test_simple_mean_median(self):
        report = aggregate(self.rows_with_e2e([10, 20, 30]))
        assert report.aggregates["e2e_ms"]["mean"] == 20
        assert report.aggregates["e2e_ms"]["median"] == 20

    def test_single_row(self):
        report = aggregate(self.rows_with_e2e([42]))
        agg = report.aggregates["e2e_ms"]
        assert agg["mean"] == agg["median"] == agg["p95"] == 42

    def test_uniform_flight_mean_against_oracle(self):
        rng = SeededRng(12)
        flights = [int(rng.uniform(0, 100)) for _ in range(10_000)]
        rows = [row_from(0, 0, f, f, mid=i) for i, f in enumerate(flights)]
        report = aggregate(rows)
        assert abs(report.aggregates["flight_ms"]["mean"] - 50) <= 1
        assert abs(report.aggregates["flight_ms"]["mean"] - float(np.mean(flights))) < 1e-9

    def test_permutation_invariance(self):
        rows = synthetic_rows(500, seed=3)
        fwd = aggregate(rows).aggregates
        rev = aggregate(list(reversed(rows))).aggregates
        assert fwd == rev

    def test_empty_run(self):
        with pytest.raises(EmptyRun):
            aggregate([])

    def test_nearest_rank_definition(self):
        values = sorted([15, 20, 35, 40, 50])
        assert nearest_rank(values, 50) == 35
        assert nearest_rank(values, 95) == 50
        assert nearest_rank(values, 100) == 50


class TestExport:
    def test_csv_structure(self):
        rows = synthetic_rows(25)
        lines = rows_to_csv(rows).decode().splitlines()
        assert len(lines) == 26  # header + one line per message
        assert lines[0] == "id,c_edge_ms,t1,t2,t3,flight_ms,residence_ms,e2e_ms,payload_bytes"

    def test_json_round_trip(self):
        report = aggregate(synthetic_rows(50), label="rt", seed=5,
                           config={"pipeline": "edge", "workload": {"kind": "audio"}})
        assert report_from_json(report_to_json(report)) == report

    def test_explicit_nulls(self):
        report = aggregate(synthetic_rows(3))
        doc = json.loads(report_to_json(report))
        assert doc["resources"] is None  # absent optional serialized as null


class TestFingerprint:
    def test_stable_under_reserialization(self):
        config = {"b": 2, "a": {"y": [1, 2], "x": 1}}
        reserialized = json.loads(json.dumps(config))
        assert config_fingerprint(config) == config_fingerprint(reserialized)

    def test_differs_for_different_configs(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})
