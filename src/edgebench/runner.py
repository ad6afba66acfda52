"""Scenario orchestration: one chain of block events for both pipelines and both clocks.

Each pipeline's block step wires the workload, link, hub (or cloud
function) and blob store together; one chain of events on an
``EventLoop`` runs the steps, one event per block of message ids, and
only the chain knows which block is the last. A block event takes each
stream's draws for the whole block as arrays, in the order per-message
draws would take them, and fills the block's rows of the RunTable by
array arithmetic: a cumulative sum for the device timeline, a running
maximum for FIFO arrivals, vector window boundaries, and one sequential
pass for chunk triggers. The hub or cloud function creates each blob
as soon as it decides it, which stamps T3; the blob store numbers
blobs only when they are listed.
Nothing is scheduled per message. ``run_scenario`` runs both modes with
one body: virtual mode runs the loop on ``Clock`` with blocks of BLOCK
ids, live mode on ``live.WallClock`` with one-item blocks, since an item
cannot start before the previous item's measured compute has ended.
After the loop it checks the table, mirrors the blobs to disk if asked,
and aggregates the delivered messages into a RunReport.
In virtual mode identical seed and config produce identical results,
field-for-field and byte-for-byte, whatever the block size.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .cloud import time_cloud_item
from .config import ScenarioConfig
from .core import Clock, EventLoop, SeededRng, sample_rows, to_ms
from .hub import Hub
from .metrics import (MetricRow, Resources, RunReport, RunTable, aggregate, finalize_row, metric_rows,
                      report_to_json, rows_to_csv)
from .network import ByteLedger, Link, ledger_report
from .storage import BlobStore
from .workloads import DEVICE, ResourceProfile, run_item

CLOUD_FUNCTION_SOURCE = "cloud-function"
BLOCK = 1024  # message ids one block event computes at most; bounds the engine's memory
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


def run_scenario(config: ScenarioConfig, persist_blobs: str | Path | None = None) -> RunResult:
    """Execute one scenario on its mode's clock and aggregate its report.

    The mode chooses the clock, the block size and the resource summary
    (the profile replayed after the loop, or live's sampler while it
    runs), and nothing else. Each block event runs the pipeline's step,
    which computes its items' whole pipeline with array draws and array
    arithmetic (device compute and sends, link, hub or cloud function,
    blob store) and returns the next block's start, where the event
    schedules the next block. The last block's step returns the run's
    latest modeled time instead, and its event schedules one more event
    there, which sets the run's duration. The steps add the edge clock's
    skew to T1 and nowhere else, so event order and bytes do not depend
    on it. A delivered message that misses a timestamp raises
    IncompleteRecord, so a run never hides a lost message. A live run
    without a seed draws one and reports it, so a virtual run at the
    report's seed makes the same draws.
    """
    live = config.mode == "live"
    if live:
        from .live import ResourceSampler, WallClock

        loop, block, sampler = EventLoop(WallClock()), 1, ResourceSampler()
    else:
        loop, block, sampler = EventLoop(Clock()), BLOCK, contextlib.nullcontext()
    seed = config.seed if config.seed is not None else time.time_ns() & (2**63 - 1)  # live mode only
    root = SeededRng(seed)
    ledger = ByteLedger()
    table = RunTable(config.workload.items)
    store = BlobStore(table, config.storage.route, config.storage.blob_envelope_bytes, persist_blobs)
    step = (_edge_step if config.pipeline == "edge" else _cloud_step)(config, root, ledger, table, store,
                                                                       loop.clock)
    items = config.workload.items

    def run_block(first):
        end = min(first + block, items)
        last = end == items
        loop.schedule(step(first, end, last), (lambda: None) if last else (lambda: run_block(end)))

    loop.schedule(round(config.workload.warmup_delay_s * 1000), lambda: run_block(0))
    with sampler:
        duration_ms = loop.run()
    resources = sampler.summary() if live else _replay_resources(config, root, duration_ms)
    finalize_row(table)
    if store.persist_dir is not None:
        store.mirror()
    dropped = int(np.count_nonzero(table.column("dropped")))
    report = RunReport(label=config.label, pipeline=config.pipeline, seed=seed, config=config,
                       aggregates=aggregate(table), ledger=ledger_report(ledger),
                       message_count=table.started - dropped, blob_count=len(store), dropped_count=dropped,
                       duration_ms=duration_ms, resources=resources)
    return RunResult(report=report, table=table, store=store)


def _edge_step(config: ScenarioConfig, root: SeededRng, ledger: ByteLedger, table: RunTable,
               store: BlobStore, clock):
    wl_rng = root.substream("workload")
    link = Link(config.link, ledger, root.substream("link"))
    persist = store.persist_dir is not None
    hub = Hub(config.hub, root.substream("hub"), table, store.create_blob)

    def step(first, end, last):
        rows = slice(first, end)
        c_edge, send, payload, bodies, next_start = run_item(config.workload, first, end - first, clock,
                                                               wl_rng, persist)
        table.started = end
        table.c_edge[rows], table.payload[rows] = c_edge, payload
        table.t1[rows] = send + config.clock.skew_edge_ms
        kept, arrival = link.deliver(DEVICE, payload, send)
        table.dropped[rows] = ~kept
        delivered = np.flatnonzero(kept)
        if persist and bodies is not None:
            for k in delivered.tolist():
                store.bodies[first + k] = bodies[k]
        hub.ingest(first + delivered, arrival)
        if not last:
            return next_start
        latest = max(int(send[-1]), hub.latest, store.latest)  # the run's latest event so far
        hub.close(latest)
        return max(latest, store.latest)

    return step


def _cloud_step(config: ScenarioConfig, root: SeededRng, ledger: ByteLedger, table: RunTable,
                store: BlobStore, clock):
    spec = config.workload
    wl_rng = root.substream("workload")
    cloud_rng = root.substream("cloud")
    overhead = config.link.per_message_overhead_bytes

    def step(first, end, last):
        rows = slice(first, end)
        input_bytes, result_bytes = to_ms(
            sample_rows(wl_rng, (spec.input_bytes_per_item, spec.result_payload_bytes), end - first)).T
        start, t2, t3, next_start = time_cloud_item(config.cloud_function, config.link, clock.now,
                                                    input_bytes, cloud_rng)
        table.started = end
        table.c_edge[rows], table.t1[rows], table.t2[rows] = 0, start + config.clock.skew_edge_ms, t2
        table.payload[rows] = result_bytes
        ledger.record(DEVICE, int(input_bytes.sum()), overhead * (end - first))
        ledger.record(CLOUD_FUNCTION_SOURCE, int(result_bytes.sum()), 0)
        ids = np.arange(first, end)
        store.create_blob(ids, ids + 1, t3)
        return store.latest if last else next_start

    return step


def _replay_resources(config: ScenarioConfig, root: SeededRng, duration_ms: int) -> Resources | None:
    """Replay the configured resource profile at 1 s virtual cadence.

    Each mean is the left-to-right ``+=`` sum of ``n`` per-second samples
    over ``n``. A profile whose cpu and ram kinds are both constant draws
    nothing, so every sample of a column is the same clamped value ``v``.
    Write ``v = p / 2**q`` (``v.as_integer_ratio()``). When ``n * |p| <=
    2**53`` for both columns, every partial sum ``k * v`` (``k <= n``) is
    ``k * p``, an integer of magnitude at most 2**53, times ``2**-q``, so it
    is a double: no ``+=`` rounds and the sum is exactly ``n * v``. The
    totals are then computed as ``0.0 + n * v`` without any per-second
    sample; the leading ``0.0`` is the loop's start value, so a ``-0.0``
    sample would sum to ``0.0`` as in the loop. Other constants (such as
    12.345) and every random profile are summed in chunks of
    RESOURCE_CHUNK samples.
    """
    profile = config.resources
    if profile is None:
        return None
    rng = root.substream("resources")
    n = max(1, math.ceil(duration_ms / 1000))
    totals = None
    if profile.cpu_pct.kind == profile.ram_mb.kind == "constant":
        values = [float(column[0]) for column in profile.sample(rng, 1)]  # draws nothing
        if all(n * abs(v.as_integer_ratio()[0]) <= 2 ** 53 for v in values):
            totals = [0.0 + n * v for v in values]
    cpu_total, ram_total = totals or _chunked_totals(profile, rng, n)
    return {
        "mode": "modeled",
        "cpu_pct_mean": cpu_total / n,
        "ram_mb_mean": ram_total / n,
        "samples": n,
    }


def _chunked_totals(profile: ResourceProfile, rng: SeededRng, n: int) -> tuple[float, float]:
    """The cpu and ram sums of ``n`` samples, drawn RESOURCE_CHUNK at a time."""
    cpu_total = 0.0
    ram_total = 0.0
    for start in range(0, n, RESOURCE_CHUNK):
        cpu, ram = profile.sample(rng, min(RESOURCE_CHUNK, n - start))
        cpu_total = _running_sum(cpu_total, cpu)
        ram_total = _running_sum(ram_total, ram)
    return cpu_total, ram_total


def _running_sum(total: float, values: np.ndarray) -> float:
    """``total`` plus each value in turn, left to right like ``+=``.

    ``np.sum`` adds pairwise, which rounds differently.
    """
    return float(np.add.accumulate(np.concatenate(([total], values)))[-1])


def write_artifacts(result: RunResult, out_dir: str | Path) -> dict[str, Path]:
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
    from .charts import emit_charts

    for path in emit_charts([result.report], out / "charts"):
        paths[path.stem] = path
    return paths
