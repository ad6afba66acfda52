"""Cloud-only pipeline: timing decomposition and bandwidth accounting."""

import numpy as np

from edgebench.cloud import CloudFunctionProfile, time_cloud_item
from edgebench.config import ScenarioConfig, load_fixture
from edgebench.core import SeededRng, constant
from edgebench.network import LinkModel
from edgebench.runner import run_scenario


def profile(trigger=0, exec_ms=0, write=0):
    return CloudFunctionProfile(
        trigger_overhead_ms=constant(trigger),
        exec_ms=constant(exec_ms),
        memory_mb=3008,
        result_write_ms=constant(write),
    )


class TestTiming:
    def test_decomposition_is_exact(self):
        link = LinkModel(propagation_ms=constant(10), bandwidth_bytes_per_s=1000,
                         per_message_overhead_bytes=50)
        start, t2, t3, _ = time_cloud_item(profile(200, 1500, 30), link, 1000, np.array([950, 950]),
                                           SeededRng(0))
        upload_ms = t2 - start
        assert start[0] == 1000
        assert upload_ms.tolist() == [10 + 1000] * 2  # 950+50 bytes at 1000 B/s
        assert (t3 - start).tolist() == [upload_ms[0] + 200 + 1500 + 30] * 2

    def test_zero_everything_leaves_exec_only(self):
        link = LinkModel()
        _, _, t3, _ = time_cloud_item(profile(exec_ms=5570), link, 0, np.array([0]), SeededRng(0))
        assert t3.tolist() == [5570]

    def test_azure_exec_profile(self):
        link = LinkModel()
        _, t2, t3, _ = time_cloud_item(profile(exec_ms=5570), link, 0, np.array([0]), SeededRng(0))
        assert (t3 - t2).tolist() == [5570]  # no upload, trigger or write time

    def test_next_upload_starts_a_gap_after_t2(self):
        link = LinkModel(propagation_ms=constant(10))
        gapped = CloudFunctionProfile(inter_upload_gap_s=constant(0.25))
        start, t2, _, next_start = time_cloud_item(gapped, link, 0, np.array([0, 0]), SeededRng(0))
        assert start.tolist() == [0, 260]
        assert next_start == t2[-1] + 250 == 520

    def test_cloud_run_record(self):
        config = ScenarioConfig.from_dict({
            "pipeline": "cloud",
            "seed": 0,
            "workload": {"items": 1, "warmup_delay_s": 0.5,
                         "input_bytes_per_item": {"constant": 1000}},
            "link": {"propagation_ms": {"constant": 10}},
            "cloud_function": {"trigger_overhead_ms": {"constant": 200},
                               "exec_ms": {"constant": 1500},
                               "result_write_ms": {"constant": 25}},
            "clock": {"skew_edge_ms": 30},
        })
        (row,) = run_scenario(config).rows
        assert row.c_edge_ms == 0
        assert row.t1 == 530  # upload start plus edge skew
        assert row.t2 == 510  # cloud-side, no skew
        assert row.t3 == 510 + 200 + 1500 + 25


class TestBandwidth:
    """Reference byte totals of the calibrated cloud fixtures, from their run ledgers."""

    def test_audio_fixture_expectation(self):
        total = run_scenario(load_fixture("scenarios/aws-cloud-audio")).report.ledger["total"]
        assert total["transmitted_bytes"] == 104 * (84904 + 2050) + 104 * 162
        assert abs(total["transmitted_bytes"] - 9.06e6) < 0.01e6

    def test_image_azure_fixture_expectation(self):
        total = run_scenario(load_fixture("scenarios/azure-cloud-image")).report.ledger["total"]
        assert abs(total["transmitted_bytes"] - 73.49e6) < 0.01e6
