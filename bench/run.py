"""edgebench host-side benchmark.

Times whole simulation jobs (``run_scenario`` + ``write_artifacts`` over
a fixed number of generated messages) from outside the package, one job
per fresh process, one job at a time, and checks every job's outputs:

    python3 bench/run.py --workload edge-batched --seed 7 --seconds 30 --trace 0

A run starts with untimed reference jobs: one at the default seed, whose
``metrics.csv`` and ``report.json`` must match the pinned digests, and
one traced job at the run's seed, which gives the simulated statistics
and the event count. It then runs jobs at the run's seed for
``--seconds`` seconds. Every job must pass the structural checks and
reproduce the reference's simulated statistics and file digests; a job
that does not counts as failed.

``--trace 0`` reports the end-to-end metrics from untraced jobs:
``msgs_per_s`` (delivered messages per host second of the whole job),
``peak_rss_bytes_per_msg`` (peak-RSS growth over the job per delivered
message) and ``setup_s`` (import, fixture load and overrides), each the
median over the jobs. Host seconds are scaled to a reference host by the
speed each job calibrates around itself (``job.calibrate``); the
unscaled figure is printed too. ``--trace 1`` alternates untraced and traced jobs
and reports the per-layer metrics: calls, self time and share of the
traced job time for each layer in ``spans.LAYERS``, plus the tracing
overhead. The last line of stdout is the result as one JSON object;
the lines before it print every metric with its unit and the run's
simulated statistics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from job import DEFAULT_SEED, REFERENCE_SPEED, ROOT, SRC, WORKLOADS
from spans import layer_units

BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170  # a job that hangs is killed so that the whole run ends within this


def launch(workload: str, seed: int, run_id: str, traced: bool, deadline: float) -> dict | None:
    """Run one job in a fresh process; None if it crashed or outlived ``deadline``."""
    out = OUT / workload
    cmd = [sys.executable, str(BENCH / "job.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(out / "artifacts"), "--run-id", run_id]
    if traced:
        cmd += ["--trace", str(out / "spans.npz")]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"job {run_id} killed after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"job {run_id} exited with {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def verdict(outcome: dict | None, reference: dict | None) -> list[str]:
    """Why a job failed, or [] if its outputs are correct."""
    if outcome is None:
        return ["job crashed"]
    problems = list(outcome["failures"])
    if outcome["failure_count"] > len(problems):
        problems.append(f"... {outcome['failure_count'] - len(problems)} more")
    if reference is not None and outcome is not reference and outcome["seed"] == reference["seed"]:
        if outcome["stats"] != reference["stats"]:
            problems.append("simulated statistics differ from the reference job")
        if outcome["digests"] != reference["digests"]:
            problems.append("metrics.csv/report.json differ from the reference job")
    return problems


def msgs_per_s(outcome: dict) -> float:
    """Delivered messages per reference-host second of the whole job."""
    return outcome["stats"]["messages"] / outcome["job_s"] * REFERENCE_SPEED / outcome["host_speed"]


def setup_s(outcome: dict) -> float:
    """Set-up time in reference-host seconds."""
    return outcome["setup_s"] * outcome["host_speed"] / REFERENCE_SPEED


def median(values) -> float:
    return statistics.median(list(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="edgebench host-side benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "edgebench" / "__init__.py").is_file():
        print(f"error: no edgebench source under {SRC}", file=sys.stderr)
        return 2
    workload, seed, traced_run = args.workload, args.seed, bool(args.trace)
    deadline = time.monotonic() + RUN_LIMIT_S

    # (kind, outcome): kind is "check", "reference", "untraced" or "traced"
    jobs: list[tuple[str, dict | None]] = []
    if seed != DEFAULT_SEED:
        jobs.append(("check", launch(workload, DEFAULT_SEED, f"{workload}/{DEFAULT_SEED}/check", False,
                                      deadline)))
    reference = launch(workload, seed, f"{workload}/{seed}/reference", True, deadline)
    jobs.append(("reference", reference))
    window_start = time.monotonic()
    for n in itertools.count():
        kind = "traced" if traced_run and n % 2 == 1 else "untraced"
        started = time.monotonic()
        jobs.append((kind, launch(workload, seed, f"{workload}/{seed}/{n}", kind == "traced", deadline)))
        now = time.monotonic()
        if now - window_start + (now - started) > args.seconds or now >= deadline:
            break

    good = []
    for i, (kind, outcome) in enumerate(jobs):
        problems = verdict(outcome, reference)
        for problem in problems:
            print(f"FAILED {kind} job {i}: {problem}", file=sys.stderr)
        if not problems:
            good.append((kind, outcome))
    failed = len(jobs) - len(good)
    untraced = [o for kind, o in good if kind == "untraced"]
    traced = [o for kind, o in good if kind in ("reference", "traced")]
    if not untraced or not traced:
        print("error: too few jobs passed their output checks to report", file=sys.stderr)
        return 1

    if traced_run:
        metrics = per_layer(untraced, traced)
    else:
        metrics = {
            "msgs_per_s": (median(msgs_per_s(o) for o in untraced), "msg/s"),
            "peak_rss_bytes_per_msg": (median(o["rss_growth_bytes"] / o["stats"]["messages"]
                                              for o in untraced), "B/msg"),
            "setup_s": (median(setup_s(o) for o in untraced), "s"),
        }
    print_summary(workload, seed, traced_run, len(jobs), failed, untraced, traced, metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {name: (median(o["trace"]["layers"][name] for o in traced), unit)
               for name, unit in layer_units().items()}
    stats = traced[0]["stats"]
    metrics["storage.msgs_per_blob"] = (stats["messages"] / stats["blob_count"], "msg/blob")
    metrics["trace.job_s"] = (median(o["trace"]["job_s"] for o in traced), "s")
    metrics["trace.overhead_ratio"] = (median(msgs_per_s(o) for o in untraced)
                                       / median(msgs_per_s(o) for o in traced), "ratio")
    return metrics


def print_summary(workload, seed, traced_run, attempted, failed, untraced, traced, metrics) -> None:
    fixture, items = WORKLOADS[workload]
    print(f"workload {workload}: {fixture} scaled to {items} messages, seed {seed}, "
          f"trace {int(traced_run)}")
    print(f"jobs: {attempted} attempted, {failed} failed; medians over {len(untraced)} untraced"
          + (f" and {len(traced)} traced jobs" if traced_run else " jobs"))
    print(f"host speed: median {median(o['host_speed'] for o in untraced):.4g} rounds/s "
          f"(reference {REFERENCE_SPEED}); unscaled msgs_per_s median "
          f"{median(o['stats']['messages'] / o['job_s'] for o in untraced):.6g} msg/s")
    stats = dict(traced[0]["stats"], events=traced[0]["trace"]["events"])
    print("simulated (exact): " + "  ".join(f"{k} {v!r}" for k, v in stats.items()))
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
