"""Workload driver behavior: scalar batching, per-item runs, totals."""

import itertools
import json

import pytest

from edgebench.core import Clock, SeededRng, constant, empirical, normal, uniform
from edgebench.config import load_fixture
from edgebench.runner import CLOUD_FUNCTION_SOURCE, DEVICE, RESOURCE_CHUNK, run_scenario
from edgebench.workloads import (
    ExhaustedWorkload,
    InvalidRate,
    ResourceProfile,
    WorkloadSpec,
    run_item,
    scalar_batch_body,
    synthesize_body,
)


def make_clock(skew=0):
    return Clock(skew_edge_ms=skew)


class TestScalarBatch:
    def test_ten_values_at_ten_hz(self):
        body = scalar_batch_body(10, 1, SeededRng(0))
        assert len(json.loads(body)) == 10

    def test_subunit_rate_gives_empty_batch(self):
        assert scalar_batch_body(0.5, 1, SeededRng(0)) == "[]"

    def test_payload_matches_serialized_length(self):
        spec = WorkloadSpec(kind="scalar", items=1, scalar_freq_hz=12, scalar_interval_s=1)
        _, _, payload, body = run_item(spec, 0, make_clock(), SeededRng(1))
        assert payload == len(body.encode("utf-8"))

    def test_calibrated_payload_near_234_bytes(self):
        rng = SeededRng(42)
        sizes = [len(scalar_batch_body(12, 1, rng).encode("utf-8")) for _ in range(500)]
        assert abs(sum(sizes) / len(sizes) - 234) < 12

    def test_invalid_rate(self):
        with pytest.raises(InvalidRate):
            scalar_batch_body(0, 1, SeededRng(0))
        with pytest.raises(InvalidRate):
            scalar_batch_body(1, -2, SeededRng(0))


class TestRunItem:
    def audio_spec(self, compute):
        return WorkloadSpec(kind="audio", items=104, compute_ms=constant(compute),
                            result_payload_bytes=constant(162))

    def test_audio_profile_compute(self):
        c_edge, *_ = run_item(self.audio_spec(4770), 0, make_clock(), SeededRng(0))
        assert c_edge == 4770

    def test_container_platform_compute(self):
        c_edge, *_ = run_item(self.audio_spec(6000), 0, make_clock(), SeededRng(0))
        assert c_edge == 6000

    def test_image_payload(self):
        # a modeled payload has a size only; a persisted blob gets a body of exactly that size
        spec = WorkloadSpec(kind="image", items=500, result_payload_bytes=constant(752))
        _, _, payload, body = run_item(spec, 0, make_clock(), SeededRng(0))
        assert payload == 752
        assert body is None
        assert len(synthesize_body(DEVICE, 0, payload).encode()) == 752

    def test_t1_is_now_plus_compute_plus_skew(self):
        clock = make_clock(skew=25)
        clock.advance(1000)
        spec = self.audio_spec(4770)
        _, t1, _, _ = run_item(spec, 0, clock, SeededRng(0))
        assert t1 == 1000 + 4770 + 25

    def test_exhausted(self):
        spec = self.audio_spec(10)
        with pytest.raises(ExhaustedWorkload):
            run_item(spec, 104, make_clock(), SeededRng(0))

    def test_sequential_contract(self):
        # message k's t1 >= message (k-1)'s t1 + c_edge(k): no overlap
        spec = WorkloadSpec(kind="custom", items=50, compute_ms=uniform(0, 100),
                            inter_item_gap_ms=uniform(0, 30),
                            result_payload_bytes=constant(10))
        clock = make_clock()
        rng = SeededRng(5)
        prev_t1 = None
        now = 0
        for idx in range(spec.items):
            clock.advance(now)
            c_edge, t1, _, _ = run_item(spec, idx, clock, rng)
            if prev_t1 is not None:
                assert t1 >= prev_t1 + c_edge
            prev_t1 = t1
            now = now + c_edge + spec.gap_ms(rng)

    def test_scalar_cadence_follows_interval(self):
        spec = WorkloadSpec(kind="scalar", items=5, scalar_freq_hz=4, scalar_interval_s=2.5)
        assert spec.gap_ms(SeededRng(0)) == 2500


class TestWorkloadTotals:
    """Reference payload totals of the calibrated fixtures, from their run ledgers."""

    def test_audio_input_total(self):
        ledger = run_scenario(load_fixture("scenarios/aws-cloud-audio")).report.ledger
        total_input = ledger["sources"][DEVICE]["payload_bytes"]
        assert total_input == 104 * 84904  # 8.83 MB
        assert abs(total_input - 8.83e6) < 0.01e6
        assert ledger["sources"][CLOUD_FUNCTION_SOURCE]["payload_bytes"] == 104 * 162

    def test_image_payload_total(self):
        ledger = run_scenario(load_fixture("scenarios/greengrass-image")).report.ledger
        total_payload = ledger["total"]["payload_bytes"]
        assert total_payload == 376000  # 0.38 MB
        assert abs(total_payload - 0.38e6) < 0.01e6

    def test_invariants(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="custom", items=-1)
        with pytest.raises(InvalidRate):
            WorkloadSpec(kind="scalar", items=1, scalar_freq_hz=0)
        with pytest.raises(ValueError):
            WorkloadSpec(kind="custom", items=1, warmup_delay_s=-1)


# each kind can leave [0, 100 * cores] (cores = 2) and go below zero, so the clamps act
RESOURCE_KINDS = {
    "constant": constant(250),
    "uniform": uniform(-60, 260.5),
    "normal": normal(150, 120),
    "empirical": empirical([-5, 10, 230.25, 99]),
}


def single_resource_sample(profile, rng):
    """One (cpu, ram) sample, drawn and clamped one value at a time."""
    cpu = min(max(profile.cpu_pct.sample(rng), 0.0), 100.0 * profile.cores)
    ram = max(profile.ram_mb.sample(rng), 0.0) + profile.platform_ram_delta_mb
    return cpu, ram


class TestResourceProfile:
    @pytest.mark.parametrize("cpu_kind, ram_kind", itertools.product(RESOURCE_KINDS, repeat=2))
    def test_block_equals_single_samples(self, cpu_kind, ram_kind):
        profile = ResourceProfile(cpu_pct=RESOURCE_KINDS[cpu_kind], ram_mb=RESOURCE_KINDS[ram_kind],
                                  platform_ram_delta_mb=12.3, cores=2)
        block_rng, single_rng = SeededRng(4).substream("resources"), SeededRng(4).substream("resources")
        for n in (1, RESOURCE_CHUNK - 1, RESOURCE_CHUNK, RESOURCE_CHUNK + 1):
            cpu, ram = profile.sample(block_rng, n)
            expected = [single_resource_sample(profile, single_rng) for _ in range(n)]
            assert cpu.tolist() == [c for c, _ in expected]
            assert ram.tolist() == [r for _, r in expected]
        if "constant" not in (cpu_kind, ram_kind):
            assert 0.0 in cpu and 200.0 in cpu and 12.3 in ram
