"""Scenario orchestration: one edge driver and one cloud driver for both clocks.

The drivers wire the workload, link, hub (or cloud function) and blob
store together over one ``EventLoop``. Virtual mode runs the loop on
``Clock``; live mode (``live.py``) runs the same loop, on the same
thread, on a wall clock. Both write each message's timestamps, payload
size and blob into one RunTable, run the loop to its end in the same
step and finish in the same step, which checks the table and aggregates
its delivered messages into a RunReport. In virtual mode identical seed
and config produce identical results, field-for-field and byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .cloud import time_cloud_item
from .config import ScenarioConfig
from .core import Clock, EventLoop, SeededRng, to_ms
from .hub import Hub
from .metrics import (MetricRow, RunReport, RunTable, aggregate, finalize_row, metric_rows,
                      report_to_json, rows_to_csv)
from .network import DROPPED, ByteLedger, Link, ledger_report
from .storage import BlobStore
from .workloads import run_item, synthesize_body

DEVICE = "device-0"
CLOUD_FUNCTION_SOURCE = "cloud-function"
RESOURCE_CHUNK = 1024  # resource samples drawn per block; bounds the replay's memory


@dataclass
class RunResult:
    report: RunReport
    table: RunTable
    store: BlobStore

    @cached_property
    def rows(self) -> list[MetricRow]:
        """One MetricRow per delivered message, in id order; built on first access."""
        return metric_rows(self.table)


@dataclass
class Run:
    """What a run's drivers write and :func:`finish_run` reads."""

    config: ScenarioConfig
    root: SeededRng
    link: Link
    table: RunTable
    store: BlobStore
    hub: Hub | None = None


def run_scenario(config: ScenarioConfig, persist_blobs: str | Path | None = None) -> RunResult:
    """Execute one scenario, in virtual time unless its mode is live, and aggregate its report."""
    if config.mode != "virtual":
        from .live import run_live

        return run_live(config, persist_blobs=persist_blobs)
    if config.seed is None:
        raise ValueError("virtual mode requires a seed")
    if config.workload.item_hook is not None:
        raise ValueError("workload.item_hook does real work, which needs live mode")

    loop = EventLoop(Clock(skew_edge_ms=config.skew_edge_ms))
    run = start_run(config, loop, config.seed, persist_blobs)
    duration_ms = run_to_end(run, loop)
    return finish_run(run, duration_ms, _replay_resources(config, run.root, duration_ms))


def start_run(config: ScenarioConfig, loop: EventLoop, seed: int,
              persist_blobs: str | Path | None) -> Run:
    """Set up a run and schedule its first item on ``loop``.

    The loop runs both the device's item chain (compute, send, next
    item) and the cloud side (arrivals, hub, uploads, result writes).
    Its clock has ``now``, ``advance``, ``edge_stamp`` and ``compute``.
    """
    root = SeededRng(seed)
    link = Link(config.link, ByteLedger(), root.substream("link"))
    table = RunTable(config.workload.items)
    store = BlobStore(table, config.route, config.blob_envelope_bytes, persist_blobs)
    run = Run(config, root, link, table, store)
    drive = _drive_edge if config.pipeline == "edge" else _drive_cloud
    drive(run, loop)
    return run


def run_to_end(run: Run, loop: EventLoop) -> int:
    """Run the loop until no event is left; returns the clock's time then.

    On a chunk-only route the open tail batch is then written, which
    takes a second pass.
    """
    duration_ms = loop.run()
    if run.hub is not None and run.hub.flush_open(loop.clock.now):
        duration_ms = loop.run()
    return duration_ms


def finish_run(run: Run, duration_ms: int, resources: dict | None) -> RunResult:
    """Aggregate the run table's delivered messages into the report.

    A delivered message that misses a timestamp raises IncompleteRecord,
    so a run never hides a lost message.
    """
    config = run.config
    finalize_row(run.table)
    report = aggregate(
        run.table,
        label=config.label,
        pipeline=config.pipeline,
        seed=config.seed if config.seed is not None else 0,
        config=config.to_dict(),
        ledger=ledger_report(run.link.ledger),
        resources=resources,
        blob_count=len(run.store),
        duration_ms=duration_ms,
    )
    return RunResult(report=report, table=run.table, store=run.store)


def _drive_edge(run: Run, loop: EventLoop) -> None:
    clock = loop.clock
    spec = run.config.workload
    wl_rng = run.root.substream("workload")
    link, table, store = run.link, run.table, run.store
    c_edge_col, t1_col, payload_col, dropped = table.c_edge, table.t1, table.payload, table.dropped
    bodies = store.bodies if store.persist_dir is not None else None
    hub = run.hub = Hub(run.config.hub, loop, run.root.substream("hub"), table, store.create_blob)

    def start_item(idx):
        c_edge, t1, payload, body = run_item(spec, idx, clock, wl_rng)
        table.started = idx + 1
        c_edge_col[idx], t1_col[idx], payload_col[idx] = c_edge, t1, payload
        if bodies is not None:
            bodies[idx] = synthesize_body(DEVICE, idx, payload) if body is None else body
        send_time = t1 - clock.skew_edge_ms  # true instant: the edge stamp without skew

        def emit():
            arrival = link.deliver(DEVICE, payload, send_time)
            if arrival is DROPPED:
                dropped[idx] = 1
                return
            loop.schedule(arrival, lambda: hub.ingest(idx, arrival), priority=0)

        loop.schedule(send_time, emit, priority=0)
        if idx + 1 < spec.items:
            gap = spec.gap_ms(wl_rng)
            loop.schedule(send_time + gap, lambda i=idx + 1: start_item(i), priority=0)

    loop.schedule(round(spec.warmup_delay_s * 1000), lambda: start_item(0), priority=0)


def _drive_cloud(run: Run, loop: EventLoop) -> None:
    clock = loop.clock
    config = run.config
    spec = config.workload
    profile = config.cloud_function
    wl_rng = run.root.substream("workload")
    cloud_rng = run.root.substream("cloud")
    ledger, table, store = run.link.ledger, run.table, run.store
    bodies = store.bodies if store.persist_dir is not None else None

    def start_upload(idx):
        input_bytes = spec.input_bytes_per_item.sample_int(wl_rng)
        result_bytes = spec.result_payload_bytes.sample_int(wl_rng)
        upload_start = clock.now
        t2, t3 = time_cloud_item(spec, profile, config.link, upload_start, input_bytes, cloud_rng)
        table.started = idx + 1
        table.c_edge[idx], table.t1[idx] = 0, clock.edge_stamp(upload_start)
        table.payload[idx] = result_bytes
        if bodies is not None:
            bodies[idx] = synthesize_body(DEVICE, idx, result_bytes)

        def upload_done():
            ledger.record(DEVICE, input_bytes, config.link.per_message_overhead_bytes)
            table.t2[idx] = t2

        def write_result():
            ledger.record(CLOUD_FUNCTION_SOURCE, result_bytes, 0)
            store.create_blob((idx,), t3)

        loop.schedule(t2, upload_done, priority=0)
        loop.schedule(t3, write_result, priority=2)
        if idx + 1 < spec.items:
            gap_ms = to_ms(profile.inter_upload_gap_s.sample(cloud_rng) * 1000)
            loop.schedule(t2 + gap_ms, lambda i=idx + 1: start_upload(i), priority=0)

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
    with csv_path.open("wb") as fh:
        rows_to_csv(result.table, fh)
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
