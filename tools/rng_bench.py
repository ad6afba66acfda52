"""Time ``SeededRng`` on fixed draw sequences, and compare two checkouts.

Each pattern is the draws one stream makes per item, repeated:
``U`` = ``uniform(a, b)``, ``R`` = ``random()``, ``N`` = ``normal(mu, sigma)``,
``P`` = ``pick(values)``. Pure runs of doubles are what the shipped
fixtures draw; the mixed patterns are what a config with a ``normal`` or
``empirical`` distribution draws. The ``job-scalar-normal`` entry times
a whole ``run_scenario`` of the greengrass-scalar fixture with
``compute_ms`` made normal, so every item draws one normal and then its
twelve readings.

    python3 tools/rng_bench.py
    python3 tools/rng_bench.py --src OTHER/src
    python3 tools/rng_bench.py --against OTHER/src --pairs 10

The first two forms time the ``edgebench`` under ``--src`` (default:
this checkout's ``src``) in this process and print one JSON object:
ns per draw for each pattern, ns per message for the job, and the
sha256 of the job's ``metrics.csv`` and ``report.json``. Each timing is
scaled to a reference host by the speed ``calibrate`` measures just
before and after it, which takes out most of a shared host's drift. The third
runs ``--pairs`` pairs of processes, one per checkout, back to back and
alternating which goes first. It prints, per entry, both sides' median
and quartiles over the pairs, the pairs this checkout won (lower time)
and the runs, and fails if the two checkouts' job outputs differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

PATTERNS = {
    "doubles-uniform": "U",
    "doubles-random": "R",
    "scalar-normal": "N" + "R" * 12,
    "image-normal": "NUU",
    "image-empirical": "PUU",
    "alternate": "NU",
    "run-65": "N" + "R" * 65,  # one double past the 64 that SeededRng draws one at a time
    "run-500": "N" + "R" * 500,
}
DRAWS = 60_000  # per pattern and repetition
JOB_ITEMS = 2_000
REPEATS = 5  # each entry's figure is the median over this many timings
# Figures are scaled to a host on which calibrate() takes this long: about
# the median of a 2-vCPU x86-64 KVM guest with busy neighbours.
CALIBRATION_S = 0.0095


def calibrate() -> float:
    """Seconds for a fixed pure-Python task of small C calls, no edgebench code."""
    draw = random.Random(5).random
    start = time.perf_counter()
    total = 0.0
    for _ in range(100_000):
        total += draw()
    return time.perf_counter() - start


def scaled(timing) -> float:
    """``timing()``, in host ns, scaled by the host speed calibrated around it."""
    before = calibrate()
    ns = timing()
    return ns * 2 * CALIBRATION_S / (before + calibrate())


def time_pattern(core, pattern: str) -> float:
    """Host ns per draw of ``pattern`` repeated to about DRAWS draws."""
    rng = core.SeededRng(11).substream("pattern")
    values = (3, 5, 8, 13)
    calls = {"U": lambda: rng.uniform(2.0, 9.0), "R": rng.random,
             "N": lambda: rng.normal(5.0, 1.5), "P": lambda: rng.pick(values)}
    sequence = [calls[kind] for kind in pattern] * (DRAWS // len(pattern))
    start = time.perf_counter()
    for draw in sequence:
        draw()
    return (time.perf_counter() - start) / len(sequence) * 1e9


def time_job(eb) -> tuple[float, dict[str, str]]:
    """Host ns per message of the scalar job with normal compute_ms, and its output digests."""
    config = eb.config.load_fixture("scenarios/greengrass-scalar")
    workload = replace(config.workload, items=JOB_ITEMS, compute_ms=eb.core.normal(5.0, 1.5))
    config = replace(config, seed=11, workload=workload)
    start = time.perf_counter()
    result = eb.runner.run_scenario(config)
    elapsed = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as out:
        paths = eb.runner.write_artifacts(result, out)
        digests = {paths[key].name: hashlib.sha256(paths[key].read_bytes()).hexdigest()
                   for key in ("csv", "json")}
    return elapsed / JOB_ITEMS * 1e9, digests


def measure(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import edgebench as eb
    import edgebench.config
    import edgebench.runner

    if Path(eb.__file__).resolve().parent != src / "edgebench":
        raise ImportError(f"edgebench imported from {eb.__file__}, not from {src}")
    times = {name: statistics.median(scaled(lambda: time_pattern(eb.core, p)) for _ in range(REPEATS))
             for name, p in PATTERNS.items()}
    times["job-scalar-normal"] = statistics.median(
        scaled(lambda: time_job(eb)[0]) for _ in range(REPEATS))
    return {"ns": times, "job_digests": time_job(eb)[1]}


def run_side(src: Path) -> dict:
    out = subprocess.run([sys.executable, __file__, "--src", str(src)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(other: Path, pairs: int) -> dict:
    sides = {"other": other, "this": REPO_SRC}
    runs = {side: [] for side in sides}
    for pair in range(pairs):
        order = ("other", "this") if pair % 2 == 0 else ("this", "other")
        for side in order:
            runs[side].append(run_side(sides[side]))
    digests = {side: {json.dumps(r["job_digests"], sort_keys=True) for r in runs[side]}
               for side in sides}
    if len(digests["this"] | digests["other"]) != 1:
        raise SystemExit(f"job outputs differ between checkouts: {digests}")
    result = {}
    for name in runs["this"][0]["ns"]:
        per_side = {side: [r["ns"][name] for r in runs[side]] for side in sides}
        this_med = statistics.median(per_side["this"])
        other = quartiles(per_side["other"])
        result[name] = {
            "unit": "ns/message" if name.startswith("job-") else "ns/draw",
            "other": other,
            "this": quartiles(per_side["this"]),
            "this_wins": sum(t < o for t, o in zip(per_side["this"], per_side["other"])),
            "median_change_rel": this_med / other["median"] - 1,
            "other_iqr": other["q3"] - other["q1"],
        }
    return {"pairs": pairs, "job_digests": runs["this"][0]["job_digests"], "entries": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=REPO_SRC,
                        help="directory holding the edgebench package to time")
    parser.add_argument("--against", type=Path,
                        help="src directory of another checkout to compare this one with")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.against is not None:
        print(json.dumps(compare(args.against.resolve(), args.pairs), indent=2))
    else:
        print(json.dumps(measure(args.src.resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
