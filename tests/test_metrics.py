"""Metric rows, aggregation, and export round-trips."""

import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from edgebench.config import load_fixture
from edgebench.core import SeededRng
from edgebench.metrics import (
    CSV_CHUNK,
    CSV_COLUMNS,
    EmptyRun,
    IncompleteRecord,
    SCAN_ROWS,
    RunTable,
    _columns,
    aggregate,
    config_fingerprint,
    finalize_row,
    metric_rows,
    report_from_json,
    report_to_json,
    rows_to_csv,
)
from edgebench.runner import run_scenario


def table_of(messages):
    """A RunTable of started messages, one (c_edge, t1, t2, t3, payload) per id; None stays unset."""
    table = RunTable(len(messages))
    table.started = len(messages)
    for mid, values in enumerate(messages):
        for name, value in zip(("c_edge", "t1", "t2", "t3", "payload"), values):
            if value is not None:
                getattr(table, name)[mid] = value
    return table


def small_report(**overrides):
    config = load_fixture("scenarios/greengrass-audio")
    return run_scenario(replace(config, workload=replace(config.workload, items=50), **overrides)).report


def row_from(c_edge, t1, t2, t3, payload=100):
    (row,) = metric_rows(table_of([(c_edge, t1, t2, t3, payload)]))
    return row


def synthetic_messages(n, seed=0):
    rng = SeededRng(seed)
    messages = []
    t = 0
    for _ in range(n):
        c = int(rng.uniform(0, 500))
        flight = int(rng.uniform(0, 100))
        residence = int(rng.uniform(0, 2000))
        t1 = t + c
        messages.append((c, t1, t1 + flight, t1 + flight + residence, int(rng.uniform(50, 800))))
        t += int(rng.uniform(0, 50))
    return messages


INT64_MAX = 2**63 - 1
# 0, the int64 extremes and the edges of a four-digit group
EDGES = (0, 1, -1, 9999, 10_000, -10_000, INT64_MAX, -INT64_MAX, -INT64_MAX - 1)


@st.composite
def int64_tables(draw):
    """A RunTable of any int64 values, some of its rows dropped.

    Each column is arbitrary int64, values of at most one digit count and
    either sign, values of exactly one digit count and one sign (a field
    with no padding), one value (a field the line template holds), EDGES,
    or a timeline shifted below zero as negative clock skew leaves it,
    with a few cells set to drawn int64 values.
    """
    n = draw(st.sampled_from([1, 2, 9, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 2 * CSV_CHUNK + 3]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = RunTable(n)
    table.started = n
    for name in ("c_edge", "t1", "t2", "t3", "payload"):
        kind = draw(st.sampled_from(["int64", "digits", "exact", "constant", "edges", "skewed"]))
        if kind == "int64":
            values = gen.integers(-INT64_MAX - 1, INT64_MAX, n, endpoint=True)
        elif kind == "digits":
            bound = 10 ** draw(st.integers(1, 18))
            values = gen.integers(1 - bound, bound, n)
        elif kind == "exact":
            digits = draw(st.integers(1, 19))
            values = gen.integers(10 ** (digits - 1), min(10**digits - 1, INT64_MAX), n, endpoint=True)
            values = -values if draw(st.booleans()) else values
        elif kind == "constant":
            values = draw(st.one_of(st.sampled_from(EDGES), st.integers(-INT64_MAX - 1, INT64_MAX)))
        elif kind == "edges":
            values = gen.choice(EDGES, n)
        else:
            values = np.cumsum(gen.integers(0, 50, n)) - draw(st.integers(0, 10**6))
        column = getattr(table, name)
        column[:] = values
        for i, value in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-INT64_MAX - 1, INT64_MAX)),
                                      max_size=3)):
            column[i] = value
    drops = draw(st.sampled_from(["none", "some", "block"]))
    if drops == "some":
        table.dropped[:] = gen.random(n) < 0.3
    elif drops == "block":  # a CSV_CHUNK block with no delivered row
        start = CSV_CHUNK * draw(st.integers(0, (n - 1) // CSV_CHUNK))
        table.dropped[start:start + CSV_CHUNK] = True
    return table


def one_delivered_per_chunk(messages):
    """A RunTable whose every CSV_CHUNK block delivers one message, so all nine CSV columns are constant in it."""
    table = table_of([messages[i // CSV_CHUNK] if i % CSV_CHUNK == 7 else (0, 0, 0, 0, 0)
                      for i in range(CSV_CHUNK * (len(messages) - 1) + 8)])
    table.dropped[:] = True
    table.dropped[7::CSV_CHUNK] = False
    return table


def crossing_table(n=10 * CSV_CHUNK):
    """A RunTable whose columns cross a digit count inside one chunk: 9999 -> 10000, or -9999 -> -10000.

    id, t1 and t2 cross in the chunk of ids 9216..10239; c_edge,
    residence_ms and payload_bytes alternate across it in every chunk.
    """
    table = RunTable(n)
    table.started = n
    i = np.arange(n)
    alternate = 9999 + i % 2
    table.c_edge[:], table.t1[:], table.t2[:], table.t3[:], table.payload[:] = (
        alternate, i, i + 1, i + 1 + alternate, -alternate)
    return table


def percent_d_csv(table):
    """The oracle: the delivered rows of ``_columns``, formatted by ``%``."""
    ids = table.delivered()
    line = ",".join(["%d"] * len(CSV_COLUMNS)) + "\n"
    values = np.column_stack(list(_columns(table, ids).values())).ravel().tolist()
    return (",".join(CSV_COLUMNS) + "\n" + line * ids.size % tuple(values)).encode()


def csv_bytes(table):
    out = io.BytesIO()
    rows_to_csv(table, out)
    return out.getvalue()


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
        messages = [(0, 0, 10, 20, 10)] * 7 + [(0, 0, 10, None, 10)]
        with pytest.raises(IncompleteRecord, match=r"message 7: missing timestamps \['t3'\]"):
            finalize_row(table_of(messages))

    def test_decomposition_identity(self):
        for row in metric_rows(table_of(synthetic_messages(2000, seed=9))):
            assert row.e2e_ms == row.c_edge_ms + row.flight_ms + row.residence_ms


class TestAggregate:
    def rows_with_e2e(self, values):
        return table_of([(0, 0, 0, v, 100) for v in values])

    def test_simple_mean_median(self):
        agg = aggregate(self.rows_with_e2e([10, 20, 30]))["e2e_ms"]
        assert agg["mean"] == 20
        assert agg["median"] == 20

    def test_single_row(self):
        agg = aggregate(self.rows_with_e2e([42]))["e2e_ms"]
        assert agg["mean"] == agg["median"] == agg["p95"] == 42

    def test_uniform_flight_mean_against_oracle(self):
        rng = SeededRng(12)
        flights = [int(rng.uniform(0, 100)) for _ in range(10_000)]
        mean = aggregate(table_of([(0, 0, f, f, 100) for f in flights]))["flight_ms"]["mean"]
        assert abs(mean - 50) <= 1
        assert abs(mean - float(np.mean(flights))) < 1e-9

    def test_permutation_invariance(self):
        messages = synthetic_messages(500, seed=3)
        fwd = aggregate(table_of(messages))
        rev = aggregate(table_of(messages[::-1]))
        assert fwd == rev

    def test_means_divide_exact_integer_sums(self):
        values = [2**62, 2**62 + 1, 3, 2**61]  # their sum overflows int64
        assert aggregate(self.rows_with_e2e(values))["e2e_ms"]["mean"] == sum(values) / len(values)

    @pytest.mark.parametrize("n", [1, 2, 7, SCAN_ROWS, SCAN_ROWS + 1, 3 * SCAN_ROWS + 5])
    @pytest.mark.parametrize("spread", [0, 3, 10**6, 2**61])
    def test_median_and_p95_are_the_sorted_column_ranks(self, n, spread):
        # selected without a sort, over every block, with some messages dropped
        gen = np.random.default_rng(n + spread)
        e2e = gen.integers(-spread, spread + 1, size=n)
        table = self.rows_with_e2e(e2e.tolist())
        table.dropped[gen.random(n) < 0.1] = True
        table.dropped[0] = False
        values = sorted(e2e[~table.dropped].tolist())
        agg = aggregate(table)["e2e_ms"]
        # nearest rank: the value at rank ceil(pct/100 * n), 1-based
        assert agg["median"] == float(values[max(1, math.ceil(50 / 100.0 * len(values))) - 1])
        assert agg["p95"] == float(values[max(1, math.ceil(95 / 100.0 * len(values))) - 1])
        assert agg["mean"] == sum(values) / len(values)

    def test_empty_run(self):
        with pytest.raises(EmptyRun):
            aggregate(RunTable(0))

    def test_nearest_rank_definition(self):
        # ranks ceil(0.5 * 5) = 3 and ceil(0.95 * 5) = 5, whatever the order of the rows
        agg = aggregate(self.rows_with_e2e([40, 15, 50, 35, 20]))["e2e_ms"]
        assert agg["median"] == 35
        assert agg["p95"] == 50


class TestExport:
    def test_csv_structure(self):
        lines = csv_bytes(table_of(synthetic_messages(25))).decode().splitlines()
        assert len(lines) == 26  # header + one line per message
        assert lines[0] == "id,c_edge_ms,t1,t2,t3,flight_ms,residence_ms,e2e_ms,payload_bytes"

    def test_csv_equals_csv_module_across_chunks(self):
        # the chunked writer against the csv module over MetricRows, with a dropped message
        messages = synthetic_messages(CSV_CHUNK + 3, seed=4)
        table = table_of(messages)
        table.dropped[5] = 1
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([getattr(r, c) for c in CSV_COLUMNS] for r in metric_rows(table))
        assert csv_bytes(table) == reference.getvalue().encode("utf-8")
        assert len(metric_rows(table)) == CSV_CHUNK + 2

    @given(int64_tables())
    @example(table_of([  # 0, +-INT64_MAX and -2**63 in every derived column too
        (0, 0, 0, 0, 0),
        (0, 0, INT64_MAX, INT64_MAX, 0),
        (0, 0, -INT64_MAX, -INT64_MAX, -INT64_MAX),
        (0, 0, -INT64_MAX - 1, -INT64_MAX - 1, -INT64_MAX - 1),
        (0, 0, 0, INT64_MAX, INT64_MAX),
        (0, 0, 0, -INT64_MAX, 0),
        (0, 0, 0, -INT64_MAX - 1, 0),
        (-INT64_MAX - 1, INT64_MAX, INT64_MAX, INT64_MAX, INT64_MAX),
        (INT64_MAX, -INT64_MAX - 1, -INT64_MAX - 1, -INT64_MAX - 1, -INT64_MAX - 1),
    ]))
    @example(one_delivered_per_chunk([  # every field of every chunk is in its line template
        (5, 10, 20, 40, 500),
        (0, -INT64_MAX - 1, INT64_MAX, -1, 0),
        (INT64_MAX, 9999, 10_000, -10_000, -INT64_MAX - 1),
    ]))
    @example(crossing_table())
    def test_csv_equals_percent_d_on_any_int64_table(self, table):
        assert csv_bytes(table) == percent_d_csv(table)

    def test_json_round_trip(self):
        report = small_report()
        assert report_from_json(report_to_json(report)) == report

    def test_explicit_nulls(self):
        doc = json.loads(report_to_json(small_report(resources=None)))
        assert doc["resources"] is None  # absent optional serialized as null


class TestFingerprint:
    def test_stable_under_reserialization(self):
        config = {"b": 2, "a": {"y": [1, 2], "x": 1}}
        reserialized = json.loads(json.dumps(config))
        assert config_fingerprint(config) == config_fingerprint(reserialized)

    def test_differs_for_different_configs(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})
