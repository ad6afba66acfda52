"""Workload driver behavior: scalar batching, per-item runs, totals."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgebench.core import Clock, SeededRng, constant, empirical, normal, uniform
from edgebench.config import load_fixture
from edgebench.runner import CLOUD_FUNCTION_SOURCE, DEVICE, RESOURCE_CHUNK, run_scenario
from edgebench.workloads import (
    SIZE_SLICE,
    ExhaustedWorkload,
    InvalidRate,
    ResourceProfile,
    WorkloadSpec,
    run_item,
    scalar_batch_body,
    synthesize_body,
)


def make_clock():
    return Clock()


def scalar_spec(freq_hz, interval_s=1, items=1):
    return WorkloadSpec(kind="scalar", items=items, scalar_freq_hz=freq_hz, scalar_interval_s=interval_s)


class TestScalarBatch:
    def test_ten_values_at_ten_hz(self):
        *_, bodies, _ = run_item(scalar_spec(10), 0, 1, make_clock(), SeededRng(0), texts=True)
        assert len(json.loads(bodies[0])) == 10

    def test_subunit_rate_gives_empty_batch(self):
        _, _, payload, bodies, _ = run_item(scalar_spec(0.5), 0, 1, make_clock(), SeededRng(0), texts=True)
        assert bodies == ["[]"]
        assert payload.tolist() == [2]

    def test_payload_matches_serialized_length(self):
        spec = scalar_spec(12, items=40)
        _, _, payload, bodies, _ = run_item(spec, 0, 40, make_clock(), SeededRng(1), texts=True)
        assert payload.tolist() == [len(body.encode("utf-8")) for body in bodies]

    @pytest.mark.parametrize("count", [0, 1, 12])
    def test_size_formula_equals_json_length(self, count):
        # 2 + (count - 1) + sum of the readings' repr lengths, against json.dumps itself;
        # readings below 1e-4 print in exponent form
        readings = SeededRng(6).random(300 * count).reshape(300, count)
        readings[::3] *= 1e-5
        readings[1::7] = 0.0
        expected = [len(json.dumps(row, separators=(",", ":"))) for row in readings.tolist()]
        assert scalar_batch_body(readings).tolist() == expected

    def test_calibrated_payload_near_234_bytes(self):
        sizes = scalar_batch_body(SeededRng(42).random(500 * 12).reshape(500, 12))
        assert abs(sizes.mean() - 234) < 12

    def test_invalid_rate(self):
        with pytest.raises(InvalidRate):
            scalar_spec(0)
        with pytest.raises(InvalidRate):
            scalar_spec(1, -2)


def repr_lengths(values):
    return [len(repr(v)) for v in values]


def kernel_lengths(values):
    """len(repr(v)) per value, as scalar_batch_body sizes one-reading rows."""
    return (scalar_batch_body(np.array(values, dtype=float).reshape(-1, 1)) - 2).tolist()


def around(x, steps=40):
    """``x`` and the ``steps`` doubles on each side of it."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


class TestReprLengthKernel:
    """scalar_batch_body's array kernel gives len(repr(x)) exactly."""

    @given(st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=64))
    def test_any_double_in_unit_interval(self, values):
        assert kernel_lengths(values) == repr_lengths(values)

    def test_a_million_uniform_draws(self):
        values = SeededRng(2024).random(10**6)
        assert kernel_lengths(values) == repr_lengths(values.tolist())

    def test_boundaries(self):
        values = [v for k in range(8) for v in around(10.0 ** -k)]
        values += [0.0, 2**-53, 5e-324, 0.09999999999999999, 9.999999999999999e-05, 0.9999999999999999]
        assert kernel_lengths(values) == repr_lengths(values)

    def test_sixteen_nines_below_a_decade(self):
        # just below each decade; the 16-digit significand 9999999999999999 is 1e16 as a double
        values = [float(f"{digits}e-{k}") for k in range(1, 6) for digits in ("9.999999999999999", "9.99999999999999")]
        assert kernel_lengths(values) == repr_lengths(values)

    def test_products_above_2_to_53(self):
        # x * 1e16 > 2**53 for x >= 0.9007: rint of the rounded product alone misses the nearest integer
        values = 0.9007 + 0.0993 * SeededRng(9).random(20_000)
        assert kernel_lengths(values) == repr_lengths(values.tolist())

    def test_short_decimals_and_their_neighbours(self):
        # 14 or fewer digits go to repr; 15- and 16-digit decimals are decided by the kernel
        draws = SeededRng(3).random(400)
        values = [v for digits in range(1, 18) for x in draws for v in around(float(f"{x:.{digits}g}"), 1)]
        assert kernel_lengths(values) == repr_lengths(values)

    def test_values_outside_the_kernel_range(self):
        values = [-0.0, -0.5, 1.0, 1.5, 123.25, 1e16, 1e300, 1e-300, float("nan"), float("inf"), -float("inf")]
        assert kernel_lengths(values) == repr_lengths(values)

    @pytest.mark.parametrize("rows", [1, SIZE_SLICE // 12, SIZE_SLICE // 12 + 1, 1024, 1025])
    def test_rows_across_slices(self, rows):
        readings = SeededRng(rows).random(rows * 14).reshape(rows, 14)[:, 2:]  # a strided view, as run_item passes
        expected = [len(json.dumps(row, separators=(",", ":"))) for row in readings.tolist()]
        assert scalar_batch_body(readings).tolist() == expected


class TestRunItem:
    def audio_spec(self, compute):
        return WorkloadSpec(kind="audio", items=104, compute_ms=constant(compute),
                            result_payload_bytes=constant(162))

    def test_audio_profile_compute(self):
        c_edge, *_ = run_item(self.audio_spec(4770), 0, 3, make_clock(), SeededRng(0))
        assert c_edge.tolist() == [4770] * 3

    def test_container_platform_compute(self):
        c_edge, *_ = run_item(self.audio_spec(6000), 0, 3, make_clock(), SeededRng(0))
        assert c_edge.tolist() == [6000] * 3

    def test_image_payload(self):
        # a modeled payload has a size only; a persisted blob gets a body of exactly that size
        spec = WorkloadSpec(kind="image", items=500, result_payload_bytes=constant(752))
        _, _, payload, bodies, _ = run_item(spec, 0, 1, make_clock(), SeededRng(0), texts=True)
        assert payload.tolist() == [752]
        assert bodies is None
        assert len(synthesize_body(DEVICE, 0, 752).encode()) == 752

    def test_send_is_now_plus_compute(self):
        # true instants: the runner adds the edge clock's skew to T1
        clock = make_clock()
        clock.advance(1000)
        spec = self.audio_spec(4770)
        _, send, _, _, _ = run_item(spec, 0, 1, clock, SeededRng(0))
        assert send.tolist() == [1000 + 4770]

    def test_exhausted(self):
        spec = self.audio_spec(10)
        with pytest.raises(ExhaustedWorkload):
            run_item(spec, 104, 1, make_clock(), SeededRng(0))
        with pytest.raises(ExhaustedWorkload):
            run_item(spec, 100, 5, make_clock(), SeededRng(0))

    def test_sequential_contract(self):
        # message k's send >= message (k-1)'s send + c_edge(k): no overlap
        spec = WorkloadSpec(kind="custom", items=50, compute_ms=uniform(0, 100),
                            inter_item_gap_ms=uniform(0, 30),
                            result_payload_bytes=constant(10))
        c_edge, send, _, _, next_start = run_item(spec, 0, 50, make_clock(), SeededRng(5))
        assert all(send[k] >= send[k - 1] + c_edge[k] for k in range(1, 50))
        assert type(next_start) is int and 0 <= next_start - send[-1] <= 30  # the last item draws its gap too

    def test_block_equals_items_one_at_a_time(self):
        spec = WorkloadSpec(kind="custom", items=7, compute_ms=normal(40, 30),
                            input_bytes_per_item=uniform(0, 9), inter_item_gap_ms=uniform(0, 30),
                            result_payload_bytes=empirical([5, 10, 15]))
        whole = run_item(spec, 0, 7, make_clock(), SeededRng(8))
        clock, rng, single = make_clock(), SeededRng(8), []
        for idx in range(7):
            single.append(run_item(spec, idx, 1, clock, rng))
            clock.advance(single[-1][4])
        for k in range(3):
            assert whole[k].tolist() == [int(s[k][0]) for s in single]
        assert whole[4] == single[-1][4]

    def test_scalar_cadence_follows_interval(self):
        spec = WorkloadSpec(kind="scalar", items=5, compute_ms=constant(7), scalar_freq_hz=4,
                            scalar_interval_s=2.5)
        _, send, _, _, next_start = run_item(spec, 0, 3, make_clock(), SeededRng(0))
        assert send.tolist() == [7, 7 + 2507, 7 + 2 * 2507]
        assert next_start == 3 * 2507


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
