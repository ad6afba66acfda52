"""One benchmark job, run in a fresh process.

A job imports ``edgebench`` from this checkout's ``src``, loads one
workload's fixture and overrides only its seed and item count (the
set-up), then runs ``run_scenario`` + ``write_artifacts`` over the
generated messages (the job), with a host-speed calibration just before
and just after it. Afterwards it checks the outputs and prints one JSON
object on stdout:

    python3 bench/job.py --workload edge-batched --seed 7 --out .bench_out/edge-batched/artifacts
    python3 bench/job.py ... --trace .bench_out/edge-batched/spans.npz --run-id edge-batched/7/0

With ``--trace`` the job runs under the span tracer and also reports the
per-layer totals; the spans are written to the given file.

numpy is not imported at module level: it comes in with ``edgebench``,
inside the set-up timer.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import random
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from spans import ROOT_JOB, ROOT_SETUP, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1

# workload -> (shipped fixture it scales up, messages per job)
WORKLOADS = {
    "edge-batched": ("scenarios/acceptance-10k", 20_000),
    "edge-scalar": ("scenarios/greengrass-scalar", 20_000),
    "cloud-image": ("scenarios/aws-cloud-image", 20_000),
}

# sha256 of metrics.csv and report.json for each workload at DEFAULT_SEED
# and its standard item count. A change that is only meant to be faster
# must leave these bytes identical.
PINNED = {
    "edge-batched": {
        "metrics.csv": "2eb452c682deb3cde7f008e7dde4563637a37a47739c6e566ad05786aef35717",
        "report.json": "3204738f8e9956c2241d8481f32a62b4785eb5515fc6098e1f00d1bda1b5c5dd",
    },
    "edge-scalar": {
        "metrics.csv": "27f784f90a49c1d458bdf90a19ee8bfe07808b2c1031577f28a5987d661280b0",
        "report.json": "8a96bf47cdcd9eec18ea4d3efba8fb4af902e557cdaadf18291b9a02ab492584",
    },
    "cloud-image": {
        "metrics.csv": "80fa7511170652e45226d8873b4460940e269d172e270f9f21c240e04f4efe81",
        "report.json": "09ffe00b2f7a42eb8beb55e73ba4087cde4cfd4776c30e2769b8d466249a08cb",
    },
}

MAX_REPORTED_FAILURES = 10

# A shared host can swing between speeds about 1.6x apart for minutes at
# a time, so each job measures the host's speed just before and just
# after it runs, and host times are reported in seconds of a reference
# host on which calibrate() returns REFERENCE_SPEED. That is about the
# median a 2-vCPU Xeon KVM guest with busy neighbours showed over a few
# hundred calibrations.
REFERENCE_SPEED = 6.0


def import_edgebench():
    """Import the package from this checkout's source tree, nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import edgebench

    if Path(edgebench.__file__).resolve().parent != SRC / "edgebench":
        raise ImportError(f"edgebench imported from {edgebench.__file__}, not from {SRC}")
    return edgebench


def load(eb, workload: str, seed: int, items: int):
    """The workload's fixture with only ``seed`` and ``workload.items`` overridden."""
    fixture, _ = WORKLOADS[workload]
    config = eb.config.load_fixture(fixture)
    return replace(config, seed=seed, workload=replace(config.workload, items=items))


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux


def calibrate() -> float:
    """Host speed now, in rounds per second of a fixed pure-Python task.

    The task is shaped like the simulator's inner loop (a heap of timed
    closures, dict rows, JSON) but uses no edgebench code, so a change
    to the program cannot move it. It holds a few kilobytes at a time,
    so running it just before the job leaves the job's peak RSS alone.
    """
    started = time.perf_counter()
    rng = random.Random(5)
    heap, rows, seq, now = [], [], 0, 0
    for i in range(40_000):
        heapq.heappush(heap, (now + rng.randint(0, 100), seq, lambda i=i: i * 2))
        seq += 1
        if len(heap) > 200:
            now, _, fn = heapq.heappop(heap)
            rows.append({"id": fn(), "t": now, "x": rng.uniform(0, 1)})
            if len(rows) == 100:
                json.dumps(rows)
                rows.clear()
    return 1 / (time.perf_counter() - started)


def check_result(result, items: int) -> list[str]:
    """Structural output checks; returns one description per failure."""
    report = result.report
    failures = []
    if report.message_count + report.dropped_count != items:
        failures.append(f"message_count {report.message_count} + dropped_count "
                        f"{report.dropped_count} != items {items}")
    if report.message_count != len(result.rows):
        failures.append(f"message_count {report.message_count} != {len(result.rows)} rows")

    blob_of = {}
    for blob in result.store.list_blobs():
        for mid in blob.message_ids:
            if mid in blob_of:
                failures.append(f"message {mid} is in blobs {blob_of[mid].name} and {blob.name}")
            blob_of[mid] = blob
    for row in result.rows:
        if (row.flight_ms != row.t2 - row.t1 or row.residence_ms != row.t3 - row.t2
                or row.e2e_ms != row.c_edge_ms + row.flight_ms + row.residence_ms):
            failures.append(f"message {row.id}: e2e_ms != c_edge_ms + flight_ms + residence_ms "
                            "over its timestamps")
        blob = blob_of.pop(row.id, None)
        if blob is None:
            failures.append(f"message {row.id} is in no blob")
        elif blob.created_at != row.t3:
            failures.append(f"message {row.id}: t3 {row.t3} != creation {blob.created_at} "
                            f"of its blob {blob.name}")
    if blob_of:
        failures.append(f"{len(blob_of)} stored messages are not delivered rows, e.g. {min(blob_of)}")

    ledger = report.ledger
    for name, totals in [*ledger["sources"].items(), ("total", ledger["total"])]:
        if totals["transmitted_bytes"] != totals["payload_bytes"] + totals["overhead_bytes"]:
            failures.append(f"ledger {name}: transmitted != payload + overhead")
    for key in ("payload_bytes", "overhead_bytes"):
        if sum(s[key] for s in ledger["sources"].values()) != ledger["total"][key]:
            failures.append(f"ledger total {key} != sum over sources")
    return failures


def simulated_stats(report) -> dict:
    """Simulated (virtual-time) quantities; identical for every job of a seed."""
    agg = report.aggregates
    return {
        "messages": report.message_count,
        "e2e_ms_mean": agg["e2e_ms"]["mean"],
        "e2e_ms_p95": agg["e2e_ms"]["p95"],
        "residence_ms_mean": agg["residence_ms"]["mean"],
        "blob_count": report.blob_count,
        "duration_ms": report.duration_ms,
    }


def file_digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("metrics.csv", "report.json")}


def run_job(workload: str, seed: int, items: int, out_dir: str | Path,
            trace_path: str | Path | None = None, run_id: str = "", inherited_rss: int = 0) -> dict:
    """Set up, run and check one job; returns its measurements.

    ``inherited_rss`` is the peak RSS this process had before it imported
    anything: on Linux a child's counter starts at its parent's peak, and
    the job's growth is only measured from its own pre-job peak when that
    lies above it.
    """
    out_dir = Path(out_dir)
    started = time.perf_counter()
    eb = import_edgebench()
    tracer = Tracer(run_id) if trace_path is not None else None
    with tracer.installed() if tracer else nullcontext():
        with tracer.span(ROOT_SETUP) if tracer else nullcontext():
            config = load(eb, workload, seed, items)
        setup_s = time.perf_counter() - started

        rss_before = peak_rss_bytes()
        if rss_before <= inherited_rss:
            raise RuntimeError(f"peak RSS before the job ({rss_before} B) is the parent's "
                               f"({inherited_rss} B), so the job's growth cannot be measured")
        speed_before = calibrate()
        t0 = time.perf_counter()
        with tracer.span(ROOT_JOB) if tracer else nullcontext():
            result = eb.runner.run_scenario(config)
            eb.runner.write_artifacts(result, out_dir)
        job_s = time.perf_counter() - t0
        rss_growth = peak_rss_bytes() - rss_before
    host_speed = (speed_before + calibrate()) / 2

    failures = check_result(result, items)
    digests = file_digests(out_dir)
    if seed == DEFAULT_SEED and items == WORKLOADS[workload][1]:
        for name, digest in digests.items():
            if digest != PINNED[workload][name]:
                failures.append(f"{name} sha256 {digest} differs from the pinned digest")
    outcome = {
        "workload": workload,
        "seed": seed,
        "items": items,
        "run_id": run_id,
        "setup_s": setup_s,
        "job_s": job_s,
        "rss_growth_bytes": rss_growth,
        "host_speed": host_speed,
        "stats": simulated_stats(result.report),
        "digests": digests,
        "failure_count": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    if tracer is not None:
        totals = tracer.totals()
        job_ns = tracer.root_ns(ROOT_JOB)
        outcome["trace"] = {
            "job_s": job_ns / 1e9,
            "events": totals.get("core.EventLoop.schedule", {}).get("calls", 0),
            "layers": {name: value for name, (value, _unit) in layer_metrics(totals, job_ns).items()},
        }
        tracer.write(trace_path)
    return outcome


def main(argv=None) -> int:
    inherited_rss = peak_rss_bytes()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)
    outcome = run_job(args.workload, args.seed, WORKLOADS[args.workload][1], args.out, args.trace,
                      args.run_id, inherited_rss)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
