"""Config loading: strict schema, inheritance, round-trips."""

import re
from dataclasses import FrozenInstanceError, is_dataclass, replace

import pytest

from edgebench.cloud import CloudFunctionProfile
from edgebench.config import (
    MissingProfile,
    ParseError,
    ScenarioConfig,
    UnknownKey,
    _field_types,
    list_fixtures,
    load_config,
    load_fixture,
    load_rate_card,
    load_usage,
    parse_distribution,
)
from edgebench.core import Distribution, constant, uniform
from edgebench.runner import run_scenario

MINIMAL_EDGE = """
pipeline: edge
platform_profile: test
seed: 1
workload:
  kind: custom
  items: 3
hub:
  mode: immediate
"""


# (parent fixture, override, error) for values that passed validation and then crashed or
# were misread by a run: non-finite numbers and non-string top-level names
NON_FINITE_OR_MISTYPED = [
    ("greengrass-image", "workload: {compute_ms: .nan}", "workload.compute_ms: expected a finite number"),
    ("batch-window-60", "hub: {window_s: .inf}", "hub.window_s: expected a finite number"),
    ("greengrass-image", "resources: {platform_ram_delta_mb: .nan}",
     "resources.platform_ram_delta_mb: expected a finite number"),
    ("greengrass-image", "hub: {write_latency_ms: {normal: [5, .nan]}}",
     "hub.write_latency_ms: expected a finite number"),
    ("greengrass-image", "link: {bandwidth_bytes_per_s: .inf}",
     "link.bandwidth_bytes_per_s: expected a finite number"),
    ("greengrass-scalar", "output_dir: 5", "output_dir: expected a string"),
    ("greengrass-scalar", "label: [1, 2]", "label: expected a string"),
    ("greengrass-scalar", "platform_profile: 7", "platform_profile: expected a string"),
]


def write_config(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestFixtures:
    def test_shipped_fixture_loads(self):
        config = load_fixture("scenarios/greengrass-image")
        assert config.platform_profile == "greengrass"
        assert config.pipeline == "edge"
        assert config.workload.items == 500
        assert config.hub.mode == "immediate"

    def test_all_shipped_fixtures_load(self):
        names = list_fixtures("scenarios")
        assert len(names) >= 12
        for name in names:
            load_fixture(name)

    def test_missing_fixture(self):
        with pytest.raises(MissingProfile):
            load_fixture("scenarios/no-such-thing")


class TestStrictSchema:
    def test_typo_is_named(self, tmp_path):
        path = write_config(tmp_path, MINIMAL_EDGE + "\nlink:\n  windw_s: 30\n")
        with pytest.raises(UnknownKey, match="windw_s"):
            load_config(path)

    def test_top_level_typo(self, tmp_path):
        path = write_config(tmp_path, MINIMAL_EDGE + "\npipelin: edge\n")
        with pytest.raises(UnknownKey, match="pipelin"):
            load_config(path)

    def test_platform_faithful_window_minimum(self, tmp_path):
        path = write_config(tmp_path, """
pipeline: edge
platform_profile: test
seed: 1
workload: {kind: custom, items: 1}
hub:
  mode: batched
  window_s: 30
  platform_faithful: true
""")
        with pytest.raises(ParseError, match="60"):
            load_config(path)

    @pytest.mark.parametrize("window_s", [0.0004, 0.0005, -0.002])
    def test_window_below_one_ms_rejected(self, tmp_path, window_s):
        # windows tile whole milliseconds; one that rounds to 0 ms crashed the run
        path = write_config(tmp_path, f"""
pipeline: edge
platform_profile: test
seed: 1
workload: {{kind: custom, items: 1}}
hub: {{mode: batched, window_s: {window_s}}}
""")
        with pytest.raises(ParseError, match="hub: window_s must be at least 1 ms"):
            load_config(path)

    def test_one_ms_window_accepted(self, tmp_path):
        path = write_config(tmp_path, """
pipeline: edge
platform_profile: test
seed: 1
workload: {kind: custom, items: 3}
hub: {mode: batched, window_s: 0.0006}
""")
        assert run_scenario(load_config(path)).report.message_count == 3

    @pytest.mark.parametrize("parent, template, at_bound, past, match", [
        # 2**53 ms and the next double past it; windows tile whole milliseconds
        ("batch-window-60", "hub: {{window_s: {}}}", "9007199254740.992", "9007199254740.994",
         r"hub: window_s must be at most 2\*\*53 ms"),
        ("greengrass-image", "clock: {{skew_edge_ms: {}}}", "9007199254740992", "9007199254740993",
         r"clock: skew_edge_ms must be within 2\*\*53 ms"),
        ("greengrass-image", "clock: {{skew_edge_ms: {}}}", "-9007199254740992", "-9007199254740993",
         r"clock: skew_edge_ms must be within 2\*\*53 ms"),
        ("greengrass-scalar", "workload: {{scalar_freq_hz: 1, scalar_interval_s: {}}}", "10000", "10001",
         r"workload: scalar_freq_hz \* scalar_interval_s must be at most 10000 readings"),
        ("greengrass-image", "workload: {{warmup_delay_s: {}}}", "9007199254740.992", "9007199254740.994",
         r"workload: warmup_delay_s must be at most 2\*\*53 ms"),
        ("batch-window-60", "hub: {{holdback_s: {}}}", "9007199254740.992", "9007199254740.994",
         r"hub: holdback_s must be at most 2\*\*53 ms"),
        ("greengrass-scalar", "workload: {{scalar_freq_hz: 1.0e-12, scalar_interval_s: {}}}",
         "9007199254740.992", "9007199254740.994", r"workload: scalar_interval_s must be at most 2\*\*53 ms"),
    ], ids=["window", "skew", "negative-skew", "scalar-readings", "warmup", "holdback", "scalar-interval"])
    def test_value_bounds(self, tmp_path, parent, template, at_bound, past, match):
        # values past these bounds ended in a traceback, a MemoryError or an int64 wrap
        path = write_config(tmp_path, f"extends: scenarios/{parent}\nresources: null\n"
                                      f"{template.format(at_bound)}\n")
        config = load_config(path)
        config = replace(config, workload=replace(config.workload, items=2))
        assert run_scenario(config).report.message_count == 2
        path.write_text(f"extends: scenarios/{parent}\n{template.format(past)}\n")
        with pytest.raises(ParseError, match=match):
            load_config(path)

    def test_seed_required_in_virtual_mode(self, tmp_path):
        path = write_config(tmp_path, """
pipeline: edge
platform_profile: test
workload: {kind: custom, items: 1}
hub: {mode: immediate}
""")
        with pytest.raises(ParseError, match="seed"):
            load_config(path)

    def test_pipeline_required(self, tmp_path):
        path = write_config(tmp_path, "seed: 1\nworkload: {kind: custom, items: 1}\n")
        with pytest.raises(ParseError, match="pipeline"):
            load_config(path)

    def test_edge_needs_hub(self, tmp_path):
        path = write_config(tmp_path, """
pipeline: edge
seed: 1
workload: {kind: custom, items: 1}
""")
        with pytest.raises(ParseError, match="hub"):
            load_config(path)

    def test_cloud_needs_function(self, tmp_path):
        path = write_config(tmp_path, """
pipeline: cloud
seed: 1
workload: {kind: custom, items: 1}
""")
        with pytest.raises(ParseError, match="cloud_function"):
            load_config(path)

    def test_cloud_rejects_link_drops(self, tmp_path):
        # the cloud pipeline does not model drops, so the field must not be ignored
        path = write_config(tmp_path, """
extends: scenarios/aws-cloud-image
link: {drop_probability: 0.5}
""")
        with pytest.raises(ParseError, match="link.drop_probability"):
            load_config(path)

    def test_items_required(self, tmp_path):
        path = write_config(tmp_path, """
pipeline: edge
seed: 1
workload: {kind: custom}
hub: {mode: immediate}
""")
        with pytest.raises(ParseError, match="items"):
            load_config(path)

    def test_yaml_error_reported(self, tmp_path):
        path = write_config(tmp_path, "pipeline: [unclosed\n")
        with pytest.raises(ParseError):
            load_config(path)

    @pytest.mark.parametrize("parent, override, match", [
        ("greengrass-image", "seed: abc", "seed: expected an integer"),
        ("greengrass-image", "workload: {items: abc}", "workload.items: expected an integer"),
        ("greengrass-image", "workload: {items: 2.7}", "workload.items: expected an integer"),
        ("greengrass-image", "link: {per_message_overhead_bytes: 2.9}",
         "link.per_message_overhead_bytes: expected an integer"),
        ("greengrass-image", "resources: {cores: abc}", "resources.cores: expected an integer"),
        ("greengrass-image", "resources: {cores: 0}", "resources: cores must be >= 1"),
        ("greengrass-image", "clock: {skew_edge_ms: abc}", "clock.skew_edge_ms: expected an integer"),
        ("greengrass-image", "storage: {blob_envelope_bytes: abc}",
         "storage.blob_envelope_bytes: expected an integer"),
        ("greengrass-image", "storage: {blob_envelope_bytes: -1}",
         "storage: blob_envelope_bytes must be >= 0"),
        ("azureedge-image", "hub: {platform_faithful: 'no'}", "hub.platform_faithful: expected true or false"),
        ("greengrass-image", "cloud_function: {exec_ms: 5}", "cloud_function: the edge pipeline"),
        ("aws-cloud-image", "hub: {mode: immediate}", "hub: the cloud pipeline"),
        *NON_FINITE_OR_MISTYPED,
    ])
    def test_bad_value_named(self, tmp_path, parent, override, match):
        path = write_config(tmp_path, f"extends: scenarios/{parent}\n{override}\n")
        with pytest.raises(ParseError, match=match):
            load_config(path)


class TestOverrides:
    """A config overridden with ``dataclasses.replace`` is checked like a file."""

    def test_seed_required_in_virtual_mode(self):
        config = load_fixture("scenarios/greengrass-image")
        with pytest.raises(ParseError, match="seed is required in virtual mode"):
            replace(config, seed=None)
        assert replace(config, seed=None, mode="live").seed is None

    def test_unused_section_rejected(self):
        config = load_fixture("scenarios/greengrass-image")
        with pytest.raises(ParseError, match="cloud_function: the edge pipeline does not use this section"):
            replace(config, cloud_function=CloudFunctionProfile())

    @pytest.mark.parametrize("section, key, value", [
        (None, "seed", 2), (None, "label", "x"), ("workload", "warmup_delay_s", 1.0e17),
        ("workload", "items", 0), ("resources", "cores", 0),
    ])
    def test_attribute_assignment_rejected(self, section, key, value):
        # an assignment would skip every rule, so replace is the only override
        config = load_fixture("scenarios/greengrass-image")
        with pytest.raises(FrozenInstanceError):
            setattr(config if section is None else getattr(config, section), key, value)

    def test_item_hook_needs_live_mode(self):
        config = replace(load_fixture("scenarios/greengrass-image"), mode="live")
        config = replace(config, workload=replace(config.workload, item_hook=lambda idx: "x"))
        with pytest.raises(ParseError, match="workload.item_hook does real work, which needs live mode"):
            replace(config, mode="virtual")


class TestHubModes:
    """A hub rejects the fields its mode ignores, naming the key."""

    @pytest.mark.parametrize("parent, override, match", [
        ("greengrass-image", "hub: {holdback_s: 3600, window_s: 60, chunk_bytes: 5}",
         "hub: an immediate hub does not use window_s"),
        ("greengrass-image", "hub: {holdback_s: 3600}", "hub: an immediate hub does not use holdback_s"),
        ("batch-window-60", "hub: {write_latency_ms: {constant: 99999}}",
         "hub: a batched hub does not use write_latency_ms"),
        ("greengrass-image", "hub: {mode: batched, window_s: 60}",
         "hub: a batched hub does not use write_latency_ms, got {'constant': 510.0}"),
    ], ids=["immediate-batch-fields", "immediate-holdback", "batched-write-latency", "inherited-latency"])
    def test_ignored_field_rejected(self, tmp_path, parent, override, match):
        # each of these ran with exit 0 and the plain fixture's timings
        path = write_config(tmp_path, f"extends: scenarios/{parent}\n{override}\n")
        with pytest.raises(ParseError, match=re.escape(match)):
            load_config(path)

    def test_switching_mode_nulls_the_inherited_field(self, tmp_path):
        path = write_config(tmp_path, "extends: scenarios/greengrass-image\n"
                                      "hub: {mode: batched, window_s: 60, write_latency_ms: null}\n")
        assert load_config(path).hub.write_latency_ms == constant(0)


class TestDistributionsInConfig:
    def test_shorthand_number(self):
        assert parse_distribution(5, "x") == constant(5)

    def test_mapping_forms(self):
        assert parse_distribution({"constant": 7}, "x") == constant(7)
        assert parse_distribution({"uniform": [1, 3]}, "x") == uniform(1, 3)

    def test_unknown_kind(self):
        with pytest.raises(UnknownKey, match="pareto"):
            parse_distribution({"pareto": [1, 2]}, "x")

    def test_bad_params(self):
        with pytest.raises(ParseError):
            parse_distribution({"uniform": [1]}, "x")

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_distribution("fast", "x")


class TestInheritance:
    def test_relative_extends(self, tmp_path):
        write_config(tmp_path, MINIMAL_EDGE, name="base.yaml")
        child = write_config(tmp_path, """
extends: base
seed: 99
workload:
  items: 7
""", name="child.yaml")
        config = load_config(child)
        assert config.seed == 99
        assert config.workload.items == 7  # overridden
        assert config.workload.kind == "custom"  # inherited

    def test_fixture_extends(self, tmp_path):
        child = write_config(tmp_path, """
extends: scenarios/greengrass-audio
seed: 123
""")
        config = load_config(child)
        assert config.seed == 123
        assert config.workload.compute_ms == constant(4770)

    def test_missing_parent(self, tmp_path):
        child = write_config(tmp_path, "extends: nowhere/nothing\npipeline: edge\n")
        with pytest.raises(MissingProfile):
            load_config(child)

    def test_override_replaces_a_distribution_whole(self, tmp_path):
        child = write_config(tmp_path, """
extends: scenarios/greengrass-image
hub: {write_latency_ms: {uniform: [500, 520]}}
""")
        config = load_config(child)
        assert config.hub.write_latency_ms == uniform(500, 520)
        assert config.hub.mode == "immediate"  # the rest of the section is inherited

    def test_cycle_detected(self, tmp_path):
        write_config(tmp_path, "extends: b\n", name="a.yaml")
        write_config(tmp_path, "extends: a\n", name="b.yaml")
        with pytest.raises(ParseError, match="cycle"):
            load_config(tmp_path / "a.yaml")


class TestRoundTrip:
    @pytest.mark.parametrize("name", list_fixtures())
    def test_config_dict_round_trip(self, name):
        config = load_fixture(name)
        doc = config.to_dict()
        assert ScenarioConfig.from_dict(doc) == config
        for section, cls in _field_types(ScenarioConfig).items():
            if is_dataclass(cls) and cls is not Distribution and doc[section] is not None:
                assert set(doc[section]) == set(_field_types(cls))


class TestRateCardsAndUsage:
    def test_rate_card_loads(self):
        from decimal import Decimal

        card = load_rate_card("us-east-2018")
        assert card.storage_usd_per_gb_month == Decimal("0.023")

    def test_usage_loads(self):
        usage = load_usage("traffic-camera")
        assert usage.messages_per_month == 259200

    def test_unknown_rate_card_key(self, tmp_path):
        path = tmp_path / "card.yaml"
        path.write_text("storage_usd_per_gb_monht: 1\n")
        with pytest.raises(UnknownKey):
            load_rate_card(path)

    def test_negative_price_rejected(self, tmp_path):
        path = tmp_path / "card.yaml"
        path.write_text("put_usd_per_1k: '-0.005'\n")
        with pytest.raises(ParseError, match="put_usd_per_1k must be >= 0"):
            load_rate_card(path)

    def test_unknown_usage_key(self, tmp_path):
        path = tmp_path / "usage.yaml"
        path.write_text("msgs: 5\n")
        with pytest.raises(UnknownKey):
            load_usage(path)
