"""Live-mode smoke tests: wall-clock runs with tiny workloads.

Live timings are approximate by design, so assertions here are
structural (conservation, decomposition bounds), not exact.
"""

import json
import threading
import time
from dataclasses import replace

import pytest

from edgebench.config import ParseError, ScenarioConfig
from edgebench.core import constant
from edgebench.hub import Hub
from edgebench.live import ResourceSampler
from edgebench.metrics import IncompleteRecord
from edgebench.runner import run_scenario


def live_edge_config(items=3, hub=None):
    doc = {
        "pipeline": "edge",
        "platform_profile": "live-test",
        "mode": "live",
        "seed": 11,
        "workload": {
            "kind": "custom",
            "items": items,
            "compute_ms": {"constant": 20},
            "inter_item_gap_ms": {"constant": 10},
            "result_payload_bytes": {"constant": 64},
        },
        "link": {"propagation_ms": {"constant": 5}},
        "hub": hub or {"mode": "immediate", "write_latency_ms": {"constant": 5}},
    }
    return ScenarioConfig.from_dict(doc)


def stored_ids(result):
    return sorted(mid for blob in result.store.list_blobs() for mid in blob.message_ids)


class TestLiveEdge:
    def test_immediate_pipeline_completes(self):
        result = run_scenario(live_edge_config())
        assert result.report.message_count == 3
        assert result.report.blob_count == 3
        assert stored_ids(result) == [0, 1, 2]

    def test_compute_time_is_busy_worked(self):
        result = run_scenario(live_edge_config())
        for row in result.rows:
            assert row.c_edge_ms >= 18  # 20 ms target, allow scheduler slop
            assert row.e2e_ms >= row.c_edge_ms

    def test_timestamps_ordered(self):
        result = run_scenario(live_edge_config())
        for row in result.rows:
            assert row.t1 <= row.t2 <= row.t3

    def test_unmeasured_resources_say_why(self):
        # without psutil, or in a run shorter than the 1 s sampling period
        resources = run_scenario(live_edge_config()).report.resources
        assert resources["mode"] == "unavailable"
        assert resources["reason"]

    def test_batched_small_window(self):
        hub = {"mode": "batched", "window_s": 0.3, "holdback_s": 0.1}
        result = run_scenario(live_edge_config(items=4, hub=hub))
        assert result.report.message_count == 4
        assert stored_ids(result) == [0, 1, 2, 3]
        # every message waited for a boundary plus hold-back
        for row in result.rows:
            assert row.residence_ms >= 90


class TestLiveCloud:
    def test_cloud_pipeline_completes(self):
        doc = {
            "pipeline": "cloud",
            "platform_profile": "live-test",
            "mode": "live",
            "seed": 11,
            "workload": {
                "kind": "custom",
                "items": 2,
                "input_bytes_per_item": {"constant": 1000},
                "result_payload_bytes": {"constant": 32},
            },
            "link": {"propagation_ms": {"constant": 5}},
            "cloud_function": {
                "trigger_overhead_ms": {"constant": 10},
                "exec_ms": {"constant": 25},
                "memory_mb": 256,
                "inter_upload_gap_s": {"constant": 0.05},
            },
        }
        result = run_scenario(ScenarioConfig.from_dict(doc))
        assert result.report.message_count == 2
        assert result.report.blob_count == 2
        for row in result.rows:
            assert row.c_edge_ms == 0
            assert row.residence_ms >= 30  # trigger + exec at least


def parity_config(mode, pipeline="edge", seed=3):
    doc = {
        "pipeline": pipeline,
        "platform_profile": "parity",
        "mode": mode,
        "seed": seed,
        "workload": {
            "kind": "custom",
            "items": 5,
            "compute_ms": {"constant": 5},
            "inter_item_gap_ms": {"constant": 5},
            "input_bytes_per_item": {"uniform": [100, 1000]},
            "result_payload_bytes": {"uniform": [300, 1000]},
        },
        "link": {"propagation_ms": {"constant": 5}, "per_message_overhead_bytes": 40},
    }
    if pipeline == "edge":
        doc["hub"] = {"mode": "immediate", "write_latency_ms": {"constant": 5}}
    else:
        doc["cloud_function"] = {"exec_ms": {"constant": 5}, "memory_mb": 256,
                                 "inter_upload_gap_s": {"constant": 0.005}}
    return ScenarioConfig.from_dict(doc)


def blob_ids(result):
    return sorted(tuple(blob.message_ids) for blob in result.store.list_blobs())


def threads_started_since(before):
    return [t for t in threading.enumerate() if t not in before and t.is_alive()]


class TestParity:
    @pytest.mark.parametrize("pipeline", ["edge", "cloud"])
    def test_live_emits_what_virtual_emits(self, pipeline):
        virtual = run_scenario(parity_config("virtual", pipeline))
        live = run_scenario(parity_config("live", pipeline))
        assert ({r.id: r.payload_bytes for r in live.rows}
                == {r.id: r.payload_bytes for r in virtual.rows})
        assert live.report.ledger == virtual.report.ledger
        assert blob_ids(live) == blob_ids(virtual)

    @pytest.mark.parametrize("pipeline", ["edge", "cloud"])
    def test_seedless_live_run_reports_its_seed(self, pipeline):
        # the report's seed reproduces the live run's draws in virtual mode
        live = run_scenario(replace(parity_config("live", pipeline), seed=None))
        virtual = run_scenario(parity_config("virtual", pipeline, seed=live.report.seed))
        assert ({r.id: r.payload_bytes for r in live.rows}
                == {r.id: r.payload_bytes for r in virtual.rows})
        assert live.report.ledger == virtual.report.ledger

    def test_item_hook_does_the_work_in_live_mode(self, tmp_path):
        def hook(idx):
            time.sleep(0.02)
            return f"real result {idx}"

        config = parity_config("live")
        config = replace(config, workload=replace(config.workload, item_hook=hook))
        result = run_scenario(config, persist_blobs=tmp_path)
        for row in result.rows:
            assert row.payload_bytes == len(f"real result {row.id}")
            assert row.c_edge_ms >= 18
        bodies = [json.loads(p.read_text())["messages"][0]["body"] for p in tmp_path.rglob("*.json")]
        assert sorted(bodies) == [f"real result {i}" for i in range(5)]

    def test_run_starts_no_thread_but_the_resource_sampler(self):
        before = set(threading.enumerate())
        seen = []

        def hook(idx):
            seen.append((threading.current_thread(), threads_started_since(before)))
            return "ok"

        config = parity_config("live")
        config = replace(config, workload=replace(config.workload, item_hook=hook))
        run_scenario(config)
        assert len(seen) == 5
        for thread, started in seen:
            assert thread is threading.current_thread()
            # without psutil the sampler ends at once
            assert all(isinstance(t, ResourceSampler) for t in started)

    def test_item_hook_rejected_in_virtual_mode(self):
        config = parity_config("virtual")
        with pytest.raises(ParseError, match="item_hook"):
            replace(config, workload=replace(config.workload, item_hook=lambda idx: "x"))


class TestLiveFailures:
    def test_loop_thread_failure_stops_the_device(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        before = set(threading.enumerate())
        with pytest.raises(NotADirectoryError):
            run_scenario(live_edge_config(items=50), persist_blobs=blocker / "blobs")
        assert threads_started_since(before) == []

    def test_failure_interrupts_compute(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        config = live_edge_config(items=3)
        config = replace(config, workload=replace(config.workload, compute_ms=constant(1500)))
        started = time.monotonic()
        with pytest.raises(NotADirectoryError):
            run_scenario(config, persist_blobs=blocker / "blobs")
        assert time.monotonic() - started < 2.5  # the run failed before any item's compute

    def test_device_thread_failure_stops_the_loop(self):
        def hook(idx):
            if idx == 1:
                raise RuntimeError("item 1 failed")
            return "ok"

        config = live_edge_config(items=4, hub={"mode": "batched", "window_s": 5.0})
        config = replace(config, workload=replace(config.workload, item_hook=hook))
        before = set(threading.enumerate())
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="item 1 failed"):
            run_scenario(config)
        assert time.monotonic() - started < 2.0  # did not wait for the 5 s window flush
        assert threads_started_since(before) == []

    @pytest.mark.parametrize("mode", ["virtual", "live"])
    def test_lost_message_fails_the_run(self, mode, monkeypatch):
        ingest = Hub.ingest

        def lossy_ingest(hub, ids, arrival):
            kept = ids != 1
            return ingest(hub, ids[kept], arrival[kept])

        monkeypatch.setattr(Hub, "ingest", lossy_ingest)
        with pytest.raises(IncompleteRecord, match="message 1"):
            run_scenario(parity_config(mode))
