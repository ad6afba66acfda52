"""Virtual-mode scenario orchestration: one event loop, end-to-end.

Wires the workload driver, link, hub (or cloud function), and blob store
together over the virtual clock, then aggregates metric rows into a
RunReport. Identical seed and config produce identical results,
field-for-field and byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cloud import time_cloud_item
from .config import ScenarioConfig
from .core import Clock, EventLoop, Message, SeededRng, TimestampRecord, to_ms
from .hub import Hub
from .metrics import MetricRow, RunReport, aggregate, finalize_row, report_to_json, rows_to_csv
from .network import DROPPED, ByteLedger, Link, ledger_report
from .storage import BlobStore
from .workloads import run_item, synthesize_body

DEVICE = "device-0"
CLOUD_FUNCTION_SOURCE = "cloud-function"
RESOURCE_CHUNK = 1024  # resource samples drawn per block; bounds the replay's memory


@dataclass
class RunResult:
    report: RunReport
    rows: list[MetricRow]
    store: BlobStore
    records: dict[int, TimestampRecord]


def run_scenario(config: ScenarioConfig, persist_blobs: str | Path | None = None) -> RunResult:
    """Execute one scenario in virtual time and aggregate its report."""
    if config.mode != "virtual":
        from .live import run_live

        return run_live(config, persist_blobs=persist_blobs)
    if config.seed is None:
        raise ValueError("virtual mode requires a seed")

    clock = Clock("virtual", skew_edge_ms=config.skew_edge_ms)
    loop = EventLoop(clock)
    root = SeededRng(config.seed)
    ledger = ByteLedger()
    link = Link(config.link, ledger, root.substream("link"))
    store = BlobStore(envelope_bytes=config.blob_envelope_bytes, persist_dir=persist_blobs)

    records: dict[int, TimestampRecord] = {}
    payloads: dict[int, int] = {}
    dropped: set[int] = set()

    if config.pipeline == "edge":
        hub = _drive_edge(config, clock, loop, root, link, store, records, payloads, dropped)
    else:
        hub = None
        _drive_cloud(config, clock, loop, root, link, store, records, payloads, dropped)

    duration_ms = loop.run()
    if hub is not None and hub.flush_open(clock.now):
        duration_ms = loop.run()  # chunk-only routes: write the tail batch

    rows = [
        finalize_row(ts, payloads[mid], mid)
        for mid, ts in sorted(records.items())
        if mid not in dropped
    ]
    resources = _replay_resources(config, root, duration_ms)
    report = aggregate(
        rows,
        label=config.label,
        pipeline=config.pipeline,
        seed=config.seed,
        config=config.to_dict(),
        ledger=ledger_report(ledger),
        resources=resources,
        blob_count=len(store),
        dropped_count=len(dropped),
        duration_ms=duration_ms,
    )
    return RunResult(report=report, rows=rows, store=store, records=records)


def _drive_edge(config, clock, loop, root, link, store, records, payloads, dropped) -> None:
    spec = config.workload
    wl_rng = root.substream("workload")
    hub_rng = root.substream("hub")

    def on_blob(messages, created_at):
        t2_by_id = {m.id: records[m.id].t2 for m in messages}
        name = store.next_name(config.route, messages)
        store.create_blob(name, messages, created_at, t2_by_id)
        for m in messages:
            records[m.id].t3 = created_at

    hub = Hub(config.hub, loop, hub_rng, on_blob)

    def start_item(idx):
        record, msg = run_item(spec, idx, clock, wl_rng, source=DEVICE)
        records[msg.id] = TimestampRecord(t1=msg.t1, c_edge=record.c_edge_ms)
        payloads[msg.id] = msg.payload_bytes
        send_time = clock.now + record.c_edge_ms  # true instant, skew-free

        def emit(m=msg, st=send_time):
            arrival = link.deliver(m.source, m.payload_bytes, st)
            if arrival is DROPPED:
                dropped.add(m.id)
                return
            loop.schedule(arrival, lambda: _arrive(m, arrival), priority=0)

        loop.schedule(send_time, emit, priority=0)
        if idx + 1 < spec.items:
            gap = spec.gap_ms(wl_rng)
            loop.schedule(send_time + gap, lambda i=idx + 1: start_item(i), priority=0)

    def _arrive(msg, arrival):
        records[msg.id].t2 = arrival
        hub.ingest(msg, arrival)

    loop.schedule(round(spec.warmup_delay_s * 1000), lambda: start_item(0), priority=0)
    return hub


def _drive_cloud(config, clock, loop, root, link, store, records, payloads, dropped) -> None:
    spec = config.workload
    profile = config.cloud_function
    wl_rng = root.substream("workload")
    cloud_rng = root.substream("cloud")

    def start_upload(idx):
        input_bytes = spec.input_bytes_per_item.sample_int(wl_rng)
        result_bytes = spec.result_payload_bytes.sample_int(wl_rng)
        timing = time_cloud_item(spec, profile, config.link, clock.now, input_bytes, cloud_rng)
        records[idx] = TimestampRecord(t1=clock.edge_stamp(clock.now), c_edge=0)
        payloads[idx] = result_bytes

        def upload_done(i=idx):
            link.ledger.record(DEVICE, input_bytes, config.link.per_message_overhead_bytes)
            records[i].t2 = clock.now

        def write_result(i=idx, rb=result_bytes):
            link.ledger.record(CLOUD_FUNCTION_SOURCE, rb, 0)
            msg = Message(id=i, source=DEVICE, payload_bytes=rb, overhead_bytes=0,
                          body=synthesize_body(DEVICE, i, rb))
            msg.stamp_t1(records[i].t1)
            name = store.next_name(config.route, [msg])
            store.create_blob(name, [msg], clock.now, {i: records[i].t2})
            records[i].t3 = clock.now

        loop.schedule(timing.t2, upload_done, priority=0)
        loop.schedule(timing.t3, write_result, priority=2)
        if idx + 1 < spec.items:
            gap_ms = to_ms(profile.inter_upload_gap_s.sample(cloud_rng) * 1000)
            loop.schedule(timing.t2 + gap_ms, lambda i=idx + 1: start_upload(i), priority=0)

    loop.schedule(round(spec.warmup_delay_s * 1000), lambda: start_upload(0), priority=0)


def _replay_resources(config: ScenarioConfig, root: SeededRng, duration_ms: int) -> dict | None:
    """Replay the configured resource profile at 1 s virtual cadence."""
    profile = config.resources
    if profile is None:
        return None
    rng = root.substream("resources")
    n = max(1, math.ceil(duration_ms / 1000))
    cpu_total = 0.0
    ram_total = 0.0
    for start in range(0, n, RESOURCE_CHUNK):
        cpu, ram = profile.sample(rng, min(RESOURCE_CHUNK, n - start))
        cpu_total = _running_sum(cpu_total, cpu)
        ram_total = _running_sum(ram_total, ram)
    return {
        "mode": "modeled",
        "cpu_pct_mean": cpu_total / n,
        "ram_mb_mean": ram_total / n,
        "samples": n,
    }


def _running_sum(total: float, values: np.ndarray) -> float:
    """``total`` plus each value in turn, left to right like ``+=``.

    ``np.sum`` adds pairwise, which rounds differently.
    """
    return float(np.add.accumulate(np.concatenate(([total], values)))[-1])


def write_artifacts(result: RunResult, out_dir: str | Path, charts: bool = True) -> dict[str, Path]:
    """Write metrics.csv, report.json, and charts under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    csv_path = out / "metrics.csv"
    csv_path.write_bytes(rows_to_csv(result.rows))
    paths["csv"] = csv_path
    json_path = out / "report.json"
    json_path.write_bytes(report_to_json(result.report))
    paths["json"] = json_path
    if charts:
        from .charts import emit_charts

        chart_dir = out / "charts"
        for path in emit_charts([result.report], chart_dir):
            paths[path.stem] = path
    return paths
