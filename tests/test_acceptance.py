"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Absolute hardware latencies are not reproducible by a simulator,
so these checks combine exact structural properties with calibrated
fixture reproduction of the derived quantities.
"""

import io
import re
import time
from decimal import Decimal

from edgebench.cli import main as cli_main
from edgebench.config import load_fixture
from edgebench.core import SeededRng
from edgebench.metrics import RunTable, aggregate, finalize_row, metric_rows, report_to_json, rows_to_csv
from edgebench.network import LinkModel
from edgebench.runner import run_scenario


def _criterion(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail}")
    assert ok, detail


def run_fixture(name):
    return run_scenario(load_fixture(f"scenarios/{name}"))


def csv_bytes(result):
    out = io.BytesIO()
    rows_to_csv(result.table, out)
    return out.getvalue()


def test_criterion_1_decomposition_identity():
    # every row of a 10^4-message run satisfies e2e = c_edge + flight + residence
    start = time.monotonic()
    result = run_fixture("acceptance-10k")
    elapsed = time.monotonic() - start
    exact = all(r.e2e_ms == r.c_edge_ms + r.flight_ms + r.residence_ms for r in result.rows)
    _criterion(1, exact and len(result.rows) == 10_000 and elapsed < 5.0,
               f"identity exact over {len(result.rows)} rows in {elapsed:.2f} s (< 5 s)")


def test_criterion_2_determinism(tmp_path):
    for name in ("greengrass-image", "azureedge-audio", "aws-cloud-scalar"):
        a = run_fixture(name)
        b = run_fixture(name)
        if csv_bytes(a) != csv_bytes(b):
            _criterion(2, False, f"{name}: metrics.csv differs between runs")
        if report_to_json(a.report) != report_to_json(b.report):
            _criterion(2, False, f"{name}: report.json differs between runs")
    _criterion(2, True, "equal seeds give byte-identical metrics.csv and report.json")


def test_criterion_3_batching_residence():
    mean60 = run_fixture("batch-window-60").report.aggregates["residence_ms"]["mean"]
    mean90 = run_fixture("batch-window-90").report.aggregates["residence_ms"]["mean"]
    ok60 = abs(mean60 - 90_000) <= 2_000
    ok90 = abs(mean90 - (45_000 + 60_000)) <= 2_000
    _criterion(3, ok60 and ok90,
               f"60 s window: mean residence {mean60 / 1000:.2f} s (90 +/- 2); "
               f"90 s window: {mean90 / 1000:.2f} s (45 + holdback +/- 2)")


def test_criterion_4_message_conservation():
    batched = run_fixture("acceptance-10k")
    emitted = list(range(batched.table.started))
    stored = sorted(mid for blob in batched.store.list_blobs() for mid in blob.message_ids)
    immediate = run_fixture("greengrass-image")
    ok = (stored == emitted
          and immediate.report.blob_count == immediate.report.message_count)
    _criterion(4, ok,
               f"batched: {len(stored)}/{len(emitted)} messages in exactly one blob; "
               f"immediate: {immediate.report.blob_count} blobs for "
               f"{immediate.report.message_count} messages")


def test_criterion_5_bandwidth_ratios():
    pairs = [
        ("greengrass-audio", "aws-cloud-audio", 36, 4),
        ("greengrass-image", "aws-cloud-image", 81, 8),
        ("azureedge-image", "azure-cloud-image", 77, 8),
    ]
    details = []
    ok = True
    for edge, cloud, target, tol in pairs:
        e = run_fixture(edge).report.ledger["total"]["transmitted_bytes"]
        c = run_fixture(cloud).report.ledger["total"]["transmitted_bytes"]
        ratio = c / e
        ok = ok and abs(ratio - target) <= tol
        details.append(f"{cloud.split('-')[-1]}: {ratio:.1f} (target {target} +/- {tol})")
    _criterion(5, ok, "cloud/edge transmitted-byte ratios " + ", ".join(details))


def test_criterion_6_cost_model(capsys):
    code = cli_main(["cost", "--rate-card", "us-east-2018", "--scenario", "traffic-camera"])
    out = capsys.readouterr().out
    totals = [float(m) for m in re.findall(r"= \$([\d.]+) / month", out)]
    ratio = float(re.search(r"ratio: ([\d.]+)", out).group(1))
    bandwidth = re.search(r"bandwidth: edge ([\d.]+) MB vs cloud ([\d.]+) GB", out)
    edge_mb = float(bandwidth.group(1))
    cloud_gb = float(bandwidth.group(2))
    ok = (code == 0
          and abs(totals[0] - 1.5584) <= 0.001
          and abs(totals[1] - 8.027) <= 0.005
          and abs(ratio - 5.2) <= 0.05
          and abs(edge_mb - 253.125) / 253.125 <= 0.01
          and abs(cloud_gb - 35.38) / 35.38 <= 0.01)
    _criterion(6, ok,
               f"edge ${totals[0]}, cloud ${totals[1]}, ratio {ratio}, "
               f"bandwidth {edge_mb} MB vs {cloud_gb} GB")


def test_criterion_7_flight_time_proportionality():
    # zero propagation, bounded bandwidth: flight = bytes * 1000 / bandwidth
    bandwidth = 1000  # 1000 B/s makes the slope exactly 1 ms/byte
    model = LinkModel(bandwidth_bytes_per_s=bandwidth, per_message_overhead_bytes=0)
    slope = 1000 / bandwidth
    exact = all(model.serialization_ms(n) == n * slope for n in range(1, 20_000, 7))
    # and with a bandwidth that does not divide evenly, within one ms ceiling
    rough = LinkModel(bandwidth_bytes_per_s=1250)
    ceiling_ok = all(0 <= rough.serialization_ms(n) - n * 1000 / 1250 < 1
                     for n in range(1, 5_000, 3))
    _criterion(7, exact and ceiling_ok,
               f"flight linear in bytes with slope {slope} ms/byte, exact up to ceiling")


def test_criterion_8_platform_ordering():
    means = {
        name: run_fixture(name).report.aggregates["e2e_ms"]["mean"]
        for name in ("aws-cloud-audio", "greengrass-audio", "azure-cloud-audio",
                     "azureedge-audio")
    }
    ok = (means["aws-cloud-audio"] < means["greengrass-audio"]
          < means["azure-cloud-audio"] < means["azureedge-audio"])
    _criterion(8, ok,
               "audio mean e2e ordering "
               + " < ".join(f"{k}={v / 1000:.2f}s" for k, v in sorted(means.items(), key=lambda kv: kv[1])))


def test_criterion_9_mean_statistics_oracle():
    rng = SeededRng(31)
    n = 10_000
    table = RunTable(n)
    table.started = n
    for i in range(n):
        c = int(rng.uniform(0, 5000))
        flight = int(rng.uniform(0, 150))
        residence = int(rng.uniform(0, 120_000))
        t1 = i * 10
        table.c_edge[i], table.t1[i], table.t2[i] = c, t1, t1 + flight
        table.t3[i], table.payload[i] = t1 + flight + residence, int(rng.uniform(100, 1000))
    finalize_row(table)
    aggregates = aggregate(table)
    rows = metric_rows(table)
    ok = True
    for metric in ("c_edge_ms", "flight_ms", "residence_ms", "e2e_ms", "payload_bytes"):
        values = [getattr(r, metric) for r in rows]
        brute_mean = sum(values) / len(values)  # independent recomputation
        brute_median = sorted(values)[(len(values) + 1) // 2 - 1]
        agg = aggregates[metric]
        ok = ok and abs(agg["mean"] - brute_mean) < 0.5 and agg["median"] == brute_median
    _criterion(9, ok, "aggregate mean/median match brute-force recomputation to the ms")
