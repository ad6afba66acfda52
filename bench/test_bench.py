"""Tests of the benchmark itself: output checks, tracing and its contract.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import job
import run
import spans

SMALL = 400
SEED = 3


@pytest.fixture(scope="module")
def eb():
    return job.import_edgebench()


def small_result(eb, workload):
    return eb.runner.run_scenario(job.load(eb, workload, SEED, SMALL))


@pytest.mark.parametrize("workload", sorted(job.WORKLOADS))
def test_clean_run_passes_every_check(eb, workload):
    assert job.check_result(small_result(eb, workload), SMALL) == []


def _shift_t3(result):
    row = result.rows[5]
    result.rows[5] = replace(row, t3=row.t3 + 1)
    return f"message {row.id}:"


def _shift_t3_consistently(result):
    # the row's own identity still holds; only its blob disagrees
    row = result.rows[5]
    result.rows[5] = replace(row, t3=row.t3 + 1, residence_ms=row.residence_ms + 1,
                             e2e_ms=row.e2e_ms + 1)
    return f"message {row.id}: t3"


def _drop_from_store(result):
    lost = result.store.list_blobs()[0].message_ids.pop()
    return f"message {lost} is in no blob"


def _store_twice(result):
    first, second = result.store.list_blobs()[:2]
    second.message_ids.append(first.message_ids[0])
    return f"message {first.message_ids[0]} is in blobs"


def _hide_a_message(result):
    result.report.message_count -= 1
    return "!= items"


def _skew_ledger(result):
    result.report.ledger["total"]["transmitted_bytes"] += 1
    return "ledger total: transmitted != payload + overhead"


@pytest.mark.parametrize("workload", ["edge-scalar", "edge-batched", "cloud-image"])
@pytest.mark.parametrize("corrupt", [_shift_t3, _shift_t3_consistently, _drop_from_store,
                                     _store_twice, _hide_a_message, _skew_ledger])
def test_corrupted_result_is_a_failure(eb, workload, corrupt):
    result = small_result(eb, workload)
    expected = corrupt(result)
    failures = job.check_result(result, SMALL)
    assert any(expected in f for f in failures), failures


def _outcome(**changes):
    base = {"seed": SEED, "failures": [], "failure_count": 0,
            "stats": {"messages": SMALL, "e2e_ms_mean": 1.5}, "digests": {"metrics.csv": "a"}}
    return dict(base, **changes)


def test_failed_job_counts_against_the_run():
    reference = _outcome()
    assert run.verdict(_outcome(), reference) == []
    assert run.verdict(None, reference) == ["job crashed"]
    assert run.verdict(_outcome(failures=["x"] * 10, failure_count=12), reference)[-1] == "... 2 more"
    assert run.verdict(_outcome(stats={"messages": SMALL, "e2e_ms_mean": 1.5000001}), reference)
    assert run.verdict(_outcome(digests={"metrics.csv": "b"}), reference)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return {w: job.run_job(w, SEED, SMALL, out / w, trace_path=out / f"{w}.npz", run_id=f"test/{w}")
            | {"spans": out / f"{w}.npz"}
            for w in job.WORKLOADS}


def _self_ns_by_loop(parent, duration):
    own = [int(d) for d in duration]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= int(duration[i])
    return own


@pytest.mark.parametrize("workload", sorted(job.WORKLOADS))
def test_traced_self_times_are_nonnegative_and_sum_to_the_job(traced, workload):
    outcome = traced[workload]
    with np.load(outcome["spans"]) as f:
        names, parent = list(f["names"]), f["parent"]
        duration = f["end_ns"] - f["start_ns"]
        name_id = f["name_id"]
        assert str(f["run_id"]) == f"test/{workload}"
    own = _self_ns_by_loop(parent, duration)
    assert min(own) >= 0
    root = list(range(len(parent)))
    for i, p in enumerate(parent):
        if p >= 0:
            assert p < i  # a parent opens before its children
            root[i] = root[p]
    job_root = [i for i in range(len(parent)) if parent[i] < 0
                and names[name_id[i]] == spans.ROOT_JOB]
    assert len(job_root) == 1
    job_ns = int(duration[job_root[0]])
    assert sum(o for i, o in enumerate(own) if root[i] == job_root[0]) == job_ns
    assert outcome["trace"]["job_s"] == job_ns / 1e9

    layers = outcome["trace"]["layers"]
    in_job = [name for name in layers if name.endswith(".self_s") and name != "config.load_fixture.self_s"]
    assert sum(layers[name] for name in in_job) == pytest.approx(job_ns / 1e9, rel=1e-9)
    assert sum(v for name, v in layers.items() if name.endswith(".share")) == pytest.approx(1.0)


def test_predicted_bypasses_show_zero_calls(traced):
    for layer in spans.LAYERS:
        calls = f"{layer.name}.{layer.calls_metric}"
        for workload in layer.bypassed:
            assert traced[workload]["trace"]["layers"][calls] == 0, (calls, workload)
        for workload in layer.heavy:
            assert traced[workload]["trace"]["layers"][calls] > 0, (calls, workload)


def test_tracing_leaves_outputs_identical(traced, tmp_path):
    for workload, outcome in traced.items():
        plain = job.run_job(workload, SEED, SMALL, tmp_path / workload)
        assert plain["digests"] == outcome["digests"]
        assert plain["stats"] == outcome["stats"]
        assert outcome["trace"]["events"] == outcome["trace"]["layers"]["core.EventLoop.schedule.calls"]


def test_tracer_restores_every_site(eb):
    before = {(m, p): _resolve(m, p) for layer in spans.LAYERS for m, p in layer.sites}
    with spans.Tracer("t").installed():
        assert all(_resolve(m, p) is not f for (m, p), f in before.items())
    assert all(_resolve(m, p) is f for (m, p), f in before.items())


def _resolve(module, path):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def test_job_refuses_a_peak_rss_it_inherited(eb, tmp_path):
    with pytest.raises(RuntimeError, match="parent's"):
        job.run_job("edge-scalar", SEED, SMALL, tmp_path, inherited_rss=job.peak_rss_bytes() * 4)


def _bench(*args, cwd=job.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_command_prints_every_declared_metric(trace, section):
    declared = json.loads((job.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(job.WORKLOADS)
    proc = _bench("--workload", "cloud-image", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {m["name"]: m["unit"] for m in declared[section]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    printed = [line.split() for line in proc.stdout.splitlines()[:-1]]
    for name, metric in result["metrics"].items():
        assert [name, metric["unit"]] in [[words[0], words[-1]] for words in printed if words]


def test_fails_without_the_program(tmp_path):
    shutil.copy(job.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(job.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "edge-batched", "--seed", "2", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
