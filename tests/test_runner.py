"""End-to-end virtual runs: determinism, conservation, fixture calibration."""

import io
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgebench import runner
from edgebench.config import ClockSpec, ScenarioConfig, load_fixture
from edgebench.core import SeededRng, SimulationError, constant
from edgebench.metrics import report_to_json, rows_to_csv
from edgebench.runner import RESOURCE_CHUNK, _replay_resources, run_scenario, write_artifacts
from edgebench.workloads import ResourceProfile


def run_fixture(name, **overrides):
    return run_scenario(replace(load_fixture(f"scenarios/{name}"), **overrides))


def csv_bytes(result):
    out = io.BytesIO()
    rows_to_csv(result.table, out)
    return out.getvalue()


def stored_ids(result):
    return sorted(mid for blob in result.store.list_blobs() for mid in blob.message_ids)


def count_resource_samples(monkeypatch):
    """A list that gets the ``n`` of every ResourceProfile.sample call from now on."""
    calls = []
    sample = ResourceProfile.sample

    def counted(self, rng, n):
        calls.append(n)
        return sample(self, rng, n)

    monkeypatch.setattr(ResourceProfile, "sample", counted)
    return calls


def drawn_sequential_means(config, samples):
    """The cpu and ram means of ``samples`` single draws of the config's profile, summed with ``+=``."""
    profile = config.resources
    rng = SeededRng(config.seed).substream("resources")
    cpu_total = ram_total = 0.0
    for _ in range(samples):
        cpu_total += min(max(profile.cpu_pct.sample(rng), 0.0), 100.0 * profile.cores)
        ram_total += max(profile.ram_mb.sample(rng), 0.0) + profile.platform_ram_delta_mb
    return cpu_total / samples, ram_total / samples


def replay_profile(profile, samples):
    config = replace(load_fixture("scenarios/aws-cloud-image"), resources=profile)
    return _replay_resources(config, SeededRng(config.seed), samples * 1000)


def constant_sequential_means(profile, samples):
    """reprs of the cpu and ram means of ``samples`` per-second samples, summed with ``+=``."""
    cpu = min(max(profile.cpu_pct.params[0], 0.0), 100.0 * profile.cores)
    ram = max(profile.ram_mb.params[0], 0.0) + profile.platform_ram_delta_mb
    cpu_total = ram_total = 0.0
    for _ in range(samples):
        cpu_total += cpu
        ram_total += ram
    return repr(cpu_total / samples), repr(ram_total / samples)


def replayed_means(replayed):
    return repr(replayed["cpu_pct_mean"]), repr(replayed["ram_mb_mean"])


CONSTANT_PROFILES = {
    "integral": load_fixture("scenarios/aws-cloud-image").resources,  # 10 % cpu, 45 MB
    "half-integral": ResourceProfile(constant(35), constant(145), platform_ram_delta_mb=12.5),
    "inexact": ResourceProfile(constant(12.345), constant(12.345)),
    "negative-zero": ResourceProfile(constant(-0.0), constant(-0.0), platform_ram_delta_mb=-0.0),
    "cpu-clamped": ResourceProfile(constant(450.0), constant(45), cores=4),
    "ram-clamped": ResourceProfile(constant(10), constant(-30.0), platform_ram_delta_mb=42.25),
}
SAMPLE_COUNTS = [1, RESOURCE_CHUNK, 3 * RESOURCE_CHUNK + 7, 252_550]


def chunked_calls(samples):
    """ResourceProfile.sample calls of a replay that takes the chunked loop."""
    return math.ceil(samples / RESOURCE_CHUNK)


class TestDeterminism:
    def test_identical_seed_identical_bytes(self):
        a = run_fixture("greengrass-image")
        b = run_fixture("greengrass-image")
        assert csv_bytes(a) == csv_bytes(b)
        assert report_to_json(a.report) == report_to_json(b.report)

    def test_scalar_fixture_deterministic(self):
        a = run_fixture("greengrass-scalar")
        b = run_fixture("greengrass-scalar")
        assert csv_bytes(a) == csv_bytes(b)

    def test_different_seed_differs(self):
        a = run_fixture("acceptance-10k")
        b = run_fixture("acceptance-10k", seed=4321)
        assert csv_bytes(a) != csv_bytes(b)


class TestConservation:
    @pytest.mark.parametrize("name", ["greengrass-audio", "azureedge-audio", "acceptance-10k"])
    def test_every_message_in_exactly_one_blob(self, name):
        result = run_fixture(name)
        assert stored_ids(result) == list(range(result.table.started))

    def test_immediate_mode_blob_count_equals_messages(self):
        result = run_fixture("greengrass-image")
        assert result.report.blob_count == result.report.message_count == 500

    def test_chunk_only_route_flushes_tail_batch(self):
        # without a window, the last partial batch must still reach storage
        doc = {
            "pipeline": "edge",
            "platform_profile": "chunk-only",
            "seed": 3,
            "workload": {"kind": "custom", "items": 5,
                         "result_payload_bytes": {"constant": 100},
                         "inter_item_gap_ms": {"constant": 1000}},
            "link": {"propagation_ms": {"constant": 10}},
            "hub": {"mode": "batched", "chunk_bytes": 300},
        }
        result = run_scenario(ScenarioConfig.from_dict(doc))
        assert stored_ids(result) == [0, 1, 2, 3, 4]
        assert result.report.blob_count == 2  # one chunk flush + the tail

    def test_drops_reduce_delivery_but_not_emission(self):
        config = load_fixture("scenarios/greengrass-image")
        doc = config.to_dict()
        doc["link"]["drop_probability"] = 0.2
        config = ScenarioConfig.from_dict(doc)
        result = run_scenario(config)
        assert result.report.dropped_count > 0
        assert result.report.message_count + result.report.dropped_count == 500
        assert len(stored_ids(result)) == result.report.message_count
        assert result.table.column("dropped").sum() == result.report.dropped_count


class TestTimestampOrdering:
    @pytest.mark.parametrize("name", ["greengrass-audio", "azureedge-image",
                                      "aws-cloud-audio", "acceptance-10k"])
    def test_t1_t2_t3_ordered_at_zero_skew(self, name):
        result = run_fixture(name)
        for row in result.rows:
            assert row.t1 <= row.t2 <= row.t3


class TestSkewNeutrality:
    def test_skew_shifts_t1_only(self):
        base = run_fixture("greengrass-audio")
        config = replace(load_fixture("scenarios/greengrass-audio"), clock=ClockSpec(skew_edge_ms=50))
        skewed = run_scenario(config)
        assert (skewed.table.column("t1") == base.table.column("t1") + 50).all()
        for name in ("t2", "t3"):
            assert (skewed.table.column(name) == base.table.column(name)).all()
        assert ([(b.name, b.message_ids) for b in skewed.store.list_blobs()]
                == [(b.name, b.message_ids) for b in base.store.list_blobs()])
        assert skewed.report.ledger == base.report.ledger
        assert [r.id for r in skewed.rows] == [r.id for r in base.rows]


class TestLastItemIsNotSpecial:
    @pytest.mark.parametrize("items", [1, 1023, 1024])
    @pytest.mark.parametrize("fixture, columns", [
        ("greengrass-image", ("c_edge", "t1", "t2", "t3", "payload", "dropped")),
        ("batch-window-60", ("c_edge", "t1", "t2", "payload", "dropped")),  # the last batch may grow
        ("aws-cloud-image", ("c_edge", "t1", "t2", "t3", "payload", "dropped")),
    ])
    def test_run_is_a_prefix_of_a_longer_run(self, fixture, columns, items):
        config = load_fixture(f"scenarios/{fixture}")
        short, longer = (run_scenario(replace(config, workload=replace(config.workload, items=n)))
                         for n in (items, items + 1))
        for name in columns:
            assert (short.table.column(name) == longer.table.column(name)[:items]).all(), name


class TestCalibration:
    @pytest.mark.parametrize("name,e2e_s", [
        ("greengrass-audio", 5.36),
        ("greengrass-image", 1.1),
        ("greengrass-scalar", 0.66),
        ("aws-cloud-audio", 1.79),
        ("aws-cloud-image", 0.87),
        ("aws-cloud-scalar", 0.936),
    ])
    def test_mean_e2e(self, name, e2e_s):
        result = run_fixture(name)
        assert result.report.aggregates["e2e_ms"]["mean"] == pytest.approx(e2e_s * 1000, abs=1)

    @pytest.mark.parametrize("edge,cloud,ratio,tol", [
        ("greengrass-audio", "aws-cloud-audio", 36, 4),
        ("greengrass-image", "aws-cloud-image", 81, 8),
        ("azureedge-image", "azure-cloud-image", 77, 8),
        ("azureedge-audio", "azure-cloud-audio", 36, 4),
    ])
    def test_transmitted_byte_ratios(self, edge, cloud, ratio, tol):
        edge_bytes = run_fixture(edge).report.ledger["total"]["transmitted_bytes"]
        cloud_bytes = run_fixture(cloud).report.ledger["total"]["transmitted_bytes"]
        assert abs(cloud_bytes / edge_bytes - ratio) <= tol

    def test_batched_platform_latency_dominates(self):
        azure = run_fixture("azureedge-audio").report.aggregates["e2e_ms"]["mean"]
        aws = run_fixture("greengrass-audio").report.aggregates["e2e_ms"]["mean"]
        assert azure > aws

    def test_batch_window_60_residence(self):
        result = run_fixture("batch-window-60")
        mean = result.report.aggregates["residence_ms"]["mean"]
        assert abs(mean - 90_000) <= 2_000

    def test_batch_window_90_residence(self):
        result = run_fixture("batch-window-90")
        mean = result.report.aggregates["residence_ms"]["mean"]
        assert abs(mean - (45_000 + 60_000)) <= 2_000

    def test_cloud_decomposition(self):
        result = run_fixture("aws-cloud-audio")
        for row in result.rows:
            assert row.e2e_ms == row.flight_ms + row.residence_ms  # c_edge = 0
            assert row.c_edge_ms == 0

    def test_cloud_uploads_paced(self):
        result = run_fixture("aws-cloud-audio")
        t1s = sorted(r.t1 for r in result.rows)
        gaps = [b - a for a, b in zip(t1s, t1s[1:])]
        assert min(gaps) >= 10_000  # at least the lower pacing bound


class TestOversizedDraws:
    @pytest.mark.parametrize("fixture, field", [("greengrass-image", "compute_ms"),
                                                ("greengrass-image", "result_payload_bytes"),
                                                ("aws-cloud-image", "input_bytes_per_item"),
                                                ("aws-cloud-image", "result_payload_bytes")])
    def test_value_beyond_int64_fails_the_run(self, fixture, field):
        config = load_fixture(f"scenarios/{fixture}")
        config = replace(config, workload=replace(config.workload, **{field: constant(1.0e19)}))
        with pytest.raises(SimulationError, match="does not fit in int64"):
            run_scenario(config)


class TestReports:
    def test_resources_replayed_and_labeled(self):
        result = run_fixture("greengrass-audio")
        assert result.report.resources["mode"] == "modeled"
        assert result.report.resources["cpu_pct_mean"] == pytest.approx(35)
        assert result.report.resources["ram_mb_mean"] == pytest.approx(145)

    @pytest.mark.parametrize("samples", [1, RESOURCE_CHUNK, 3 * RESOURCE_CHUNK + 7])
    def test_resource_means_equal_sequential_sums(self, samples):
        config = load_fixture("scenarios/acceptance-10k")  # uniform cpu and ram
        replayed = _replay_resources(config, SeededRng(config.seed), samples * 1000)
        assert replayed["samples"] == samples
        assert (replayed["cpu_pct_mean"], replayed["ram_mb_mean"]) == drawn_sequential_means(config, samples)

    @pytest.mark.parametrize("constant_column", ["cpu_pct", "ram_mb"])
    def test_half_constant_resource_means_equal_sequential_sums(self, constant_column):
        config = load_fixture("scenarios/acceptance-10k")  # uniform cpu and ram
        config = replace(config, resources=replace(config.resources, **{constant_column: constant(30)}))
        samples = 3 * RESOURCE_CHUNK + 7
        replayed = _replay_resources(config, SeededRng(config.seed), samples * 1000)
        assert (replayed["cpu_pct_mean"], replayed["ram_mb_mean"]) == drawn_sequential_means(config, samples)

    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    @pytest.mark.parametrize("name", sorted(CONSTANT_PROFILES))
    def test_constant_resource_means_equal_sequential_sums(self, monkeypatch, name, samples):
        profile = CONSTANT_PROFILES[name]
        calls = count_resource_samples(monkeypatch)
        replayed = replay_profile(profile, samples)
        assert replayed["samples"] == samples
        assert replayed_means(replayed) == constant_sequential_means(profile, samples)
        # 12.345's numerator is above 2**52, so any two of its samples sum inexactly
        closed_form = name != "inexact" or samples == 1
        assert len(calls) == (1 if closed_form else 1 + chunked_calls(samples))

    @pytest.mark.parametrize("column", ["cpu_pct", "ram_mb"])
    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    def test_closed_form_ends_where_the_sums_could_round(self, monkeypatch, column, samples):
        numerator = 2 ** 53 // samples
        numerator -= 1 - numerator % 2  # odd, so it is v's own numerator
        assert samples * numerator <= 2 ** 53 < (samples + 1) * numerator
        v = numerator / 2 ** 52  # below 2, so no clamp applies
        profile = replace(CONSTANT_PROFILES["integral"], **{column: constant(v)})
        for n, calls_expected in [(samples, 1), (samples + 1, 1 + chunked_calls(samples + 1))]:
            calls = count_resource_samples(monkeypatch)
            replayed = replay_profile(profile, n)
            assert replayed_means(replayed) == constant_sequential_means(profile, n)
            assert len(calls) == calls_expected

    def test_closed_form_includes_a_sum_of_exactly_2_to_the_53(self, monkeypatch):
        profile = ResourceProfile(constant(10), constant(2.0 ** 43))  # numerator 2**43
        calls = count_resource_samples(monkeypatch)
        replayed = replay_profile(profile, RESOURCE_CHUNK)  # 2**10 samples
        assert replayed_means(replayed) == constant_sequential_means(profile, RESOURCE_CHUNK)
        assert len(calls) == 1

    @given(cpu=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.integers(-2 ** 20, 2 ** 20).map(lambda k: k / 8)),
           ram=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.integers(-2 ** 20, 2 ** 20).map(lambda k: k / 8)),
           delta=st.sampled_from([0.0, -0.0, 12.5, -40.0, 0.1]),
           samples=st.integers(1, 3 * RESOURCE_CHUNK + 7))
    def test_constant_resource_means_property(self, cpu, ram, delta, samples):
        profile = ResourceProfile(constant(cpu), constant(ram), platform_ram_delta_mb=delta)
        replayed = replay_profile(profile, samples)
        assert replayed_means(replayed) == constant_sequential_means(profile, samples)

    @pytest.mark.parametrize("fixture, closed_form", [("aws-cloud-image", True), ("acceptance-10k", False)])
    def test_constant_profile_is_sampled_at_most_once(self, monkeypatch, fixture, closed_form):
        config = load_fixture(f"scenarios/{fixture}")
        config = replace(config, workload=replace(config.workload, items=2000))
        calls = count_resource_samples(monkeypatch)
        samples = run_scenario(config).report.resources["samples"]
        assert samples > RESOURCE_CHUNK
        assert len(calls) == (1 if closed_form else chunked_calls(samples))

    def test_azure_ram_delta_applied(self):
        result = run_fixture("azureedge-audio")
        assert result.report.resources["ram_mb_mean"] == pytest.approx(145 + 42)

    def test_report_embeds_resolved_config(self):
        result = run_fixture("greengrass-audio")
        assert result.report.config == load_fixture("scenarios/greengrass-audio")

    def test_write_artifacts(self, tmp_path):
        result = run_fixture("greengrass-scalar")
        paths = write_artifacts(result, tmp_path)
        assert paths["csv"].read_bytes().startswith(b"id,c_edge_ms")
        doc = json.loads(paths["json"].read_text())
        assert doc["schema"] == 1
        assert (tmp_path / "charts" / "e2e_ms.svg").exists()

    def test_persist_blobs(self, tmp_path):
        config = load_fixture("scenarios/greengrass-scalar")
        run_scenario(config, persist_blobs=tmp_path)
        files = list((tmp_path / "results").glob("*.json"))
        assert len(files) == 200
        doc = json.loads(files[0].read_text())
        assert set(doc) == {"name", "created_at", "messages"}
        assert set(doc["messages"][0]) == {"id", "t1", "t2", "body"}

    def test_unusable_persist_dir_fails_before_any_item(self, tmp_path, monkeypatch):
        # blobs are mirrored when the run ends, but the directory is made up front
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        items = []
        monkeypatch.setattr(runner, "run_item", lambda *args: items.append(args))
        with pytest.raises(NotADirectoryError):
            run_scenario(load_fixture("scenarios/greengrass-scalar"), persist_blobs=blocker / "blobs")
        assert items == []
