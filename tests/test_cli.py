"""CLI surface: run/compare/cost/validate/charts/fixtures subcommands."""

import contextlib
import copy
import functools
import io
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgebench.cli import main
from edgebench.config import load_fixture
from edgebench.metrics import report_to_json
from edgebench.runner import run_scenario
from test_config import NON_FINITE_OR_MISTYPED


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_run_writes_artifacts(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run", "--config", "scenarios/greengrass-scalar",
                               "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "charts" / "e2e_ms.svg").exists()
        assert "mean e2e" in out

    def test_run_twice_identical_bytes(self, capsys, tmp_path):
        run_cli(capsys, "run", "--config", "scenarios/greengrass-image",
                "--out", str(tmp_path / "a"))
        run_cli(capsys, "run", "--config", "scenarios/greengrass-image",
                "--out", str(tmp_path / "b"))
        assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()
        assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()

    def test_seed_override_changes_output(self, capsys, tmp_path):
        run_cli(capsys, "run", "--config", "scenarios/acceptance-10k",
                "--out", str(tmp_path / "a"))
        run_cli(capsys, "run", "--config", "scenarios/acceptance-10k",
                "--seed", "999", "--out", str(tmp_path / "b"))
        assert (tmp_path / "a/metrics.csv").read_bytes() != (tmp_path / "b/metrics.csv").read_bytes()

    def test_env_var_default_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EDGEBENCH_OUT", str(tmp_path / "envout"))
        code, _, _ = run_cli(capsys, "run", "--config", "scenarios/greengrass-scalar")
        assert code == 0
        assert (tmp_path / "envout" / "report.json").exists()

    def test_persist_blobs_flag(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "run", "--config", "scenarios/greengrass-scalar",
                             "--out", str(tmp_path / "out"),
                             "--persist-blobs", str(tmp_path / "blobs"))
        assert code == 0
        assert len(list((tmp_path / "blobs" / "results").glob("*.json"))) == 200

    def test_mode_override_is_validated(self, capsys, tmp_path):
        config = tmp_path / "live.yaml"
        config.write_text("extends: scenarios/greengrass-scalar\nmode: live\nseed: null\n")
        code, _, err = run_cli(capsys, "run", "--config", str(config), "--mode", "virtual",
                               "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.strip() == "error: seed is required in virtual mode"

    def test_missing_config_errors(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--config", "scenarios/bogus",
                               "--out", str(tmp_path))
        assert code == 2
        assert "bogus" in err

    def test_missing_config_path_names_both_lookups(self, capsys, tmp_path):
        missing = str(tmp_path / "missing" / "x.yaml")
        code, _, err = run_cli(capsys, "run", "--config", missing, "--out", str(tmp_path))
        assert code == 2
        assert err.strip() == f"error: no file {missing!r} and no shipped fixture named {missing!r}"

    @pytest.mark.parametrize("fixture, overrides", [
        ("greengrass-image", "workload: {compute_ms: {constant: 1.0e+19}}"),
        # a one-item run draws its item's gap like any other
        ("greengrass-image", "workload: {items: 1, inter_item_gap_ms: {constant: 1.0e+19}}"),
        ("aws-cloud-image", "workload: {items: 1}\ncloud_function: {inter_upload_gap_s: {constant: 1.0e+17}}"),
    ], ids=["compute", "edge-gap", "cloud-gap"])
    def test_value_beyond_int64_exits_nonzero(self, capsys, tmp_path, fixture, overrides):
        config = tmp_path / "huge.yaml"
        config.write_text(f"extends: scenarios/{fixture}\n{overrides}\n")
        assert run_cli(capsys, "validate", "--config", str(config))[0] == 0
        code, _, err = run_cli(capsys, "run", "--config", str(config), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "does not fit in int64" in err
        assert not (tmp_path / "out" / "metrics.csv").exists()


class TestCompare:
    def test_byte_ratio_column(self, capsys, tmp_path):
        run_cli(capsys, "run", "--config", "scenarios/greengrass-image",
                "--out", str(tmp_path / "edge"))
        run_cli(capsys, "run", "--config", "scenarios/aws-cloud-image",
                "--out", str(tmp_path / "cloud"))
        code, out, _ = run_cli(capsys, "compare",
                               str(tmp_path / "edge/report.json"),
                               str(tmp_path / "cloud/report.json"))
        assert code == 0
        ratio = float(out.strip().splitlines()[-1].split()[-1])
        assert abs(ratio - 81) <= 8


def unreadable_reports(tmp_path):
    """(path, what the error must say) for report.json arguments that are no report."""
    not_json = tmp_path / "not-json.json"
    not_json.write_text("{")
    no_label = tmp_path / "no-label.json"
    no_label.write_text('{"pipeline": "edge"}')
    return [
        (tmp_path / "missing.json", "cannot read {path}: No such file or directory"),
        (tmp_path, "cannot read {path}: Is a directory"),
        (not_json, "{path}: not a JSON text: "),
        (no_label, "{path}: report.label is required"),
    ]


@pytest.mark.parametrize("command", ["compare", "charts"])
def test_unreadable_report_is_an_error_not_a_traceback(capsys, tmp_path, command):
    run_cli(capsys, "run", "--config", "scenarios/greengrass-audio", "--out", str(tmp_path / "a"))
    for path, message in unreadable_reports(tmp_path):
        code, out, err = run_cli(capsys, command, str(tmp_path / "a/report.json"), str(path),
                                 *(["--out", str(tmp_path / "c")] if command == "charts" else []))
        assert code == 2
        assert err.startswith("error: " + message.format(path=path)), err
        assert not out
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command", ["compare", "charts"])
def test_report_of_another_schema_is_an_error(capsys, tmp_path, command):
    run_cli(capsys, "run", "--config", "scenarios/greengrass-audio", "--out", str(tmp_path / "a"))
    path = tmp_path / "a/report.json"
    path.write_text(path.read_text().replace('"schema": 1', '"schema": 2'))
    code, out, err = run_cli(capsys, command, str(path),
                             *(["--out", str(tmp_path / "c")] if command == "charts" else []))
    assert (code, out, err) == (2, "", f"error: {path}: report: schema must be 1, got 2\n")


DELETE = object()
DISTRIBUTION_KINDS = {"constant", "uniform", "normal", "empirical"}


@functools.cache
def real_report(fixture: str) -> dict:
    config = load_fixture(f"scenarios/{fixture}")
    config = replace(config, workload=replace(config.workload, items=20))
    return json.loads(report_to_json(run_scenario(config).report))


def nested_keys(doc: dict, path: str = ""):
    """The dotted path of each key of ``doc`` and below it; a distribution is one value."""
    for key, value in doc.items():
        yield path + key
        if isinstance(value, dict) and not (len(value) == 1 and set(value) <= DISTRIBUTION_KINDS):
            yield from nested_keys(value, f"{path}{key}.")


def required(path: str) -> bool:
    """Whether a report must hold the key: all of the aggregates and the ledger's but a source's
    name, none of the resources, and the config keys without a default."""
    parts = path.split(".")
    if parts[0] in ("aggregates", "ledger"):
        return parts[:2] != ["ledger", "sources"] or len(parts) != 3
    return path in ("config", "config.pipeline", "config.workload", "config.workload.items")


def report_edits() -> list:
    """(fixture, path, new value or DELETE): every required nested key deleted, every nested key
    retyped to a list, which no key of a report holds."""
    edits = []
    for fixture in ("greengrass-audio", "aws-cloud-image"):
        doc = real_report(fixture)
        for section in ("aggregates", "ledger", "resources", "config"):
            for path in nested_keys({section: doc[section]}):
                edits += [(fixture, path, [])] + [(fixture, path, DELETE)] * required(path)
    return edits


@settings(max_examples=500)  # above the edit count, so every edit is drawn once
@given(st.deferred(lambda: st.sampled_from(report_edits())))
@example(("greengrass-audio", "aggregates", {}))
@example(("greengrass-audio", "ledger.total", {}))
@example(("greengrass-audio", "config", {}))
def test_malformed_nested_key_is_named(edit):
    fixture, path, value = edit
    doc = copy.deepcopy(real_report(fixture))
    *parents, key = path.split(".")
    section = functools.reduce(dict.__getitem__, parents, doc)
    if value is DELETE:
        del section[key]
    else:
        section[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp, "report.json")
        report.write_text(json.dumps(doc))
        for argv in (["compare", str(report)], ["charts", str(report), "--out", tmp]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 2
            assert re.match(rf"error: {re.escape(str(report))}: .*report\.{re.escape(path)}[.: ]",
                            err.getvalue()), err.getvalue()
            assert not out.getvalue()
        assert not Path(tmp, "charts").exists()


class TestCost:
    def test_reference_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "cost")
        assert code == 0
        edge = float(re.search(r"= \$([\d.]+) / month", out).group(1))
        cloud = float(re.findall(r"= \$([\d.]+) / month", out)[1])
        ratio = float(re.search(r"ratio: ([\d.]+)", out).group(1))
        assert abs(edge - 1.5584) <= 0.001
        assert abs(cloud - 8.027) <= 0.005
        assert abs(ratio - 5.2) <= 0.05
        assert "253.125 MB" in out
        assert re.search(r"35\.3[78]\d* GB", out)

    def test_additive_component_form(self, capsys):
        _, out, _ = run_cli(capsys, "cost")
        assert "0.2627 + 0.0057 + 1.2900 = $1.5584" in out


class TestValidate:
    def test_valid_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--config", "scenarios/azureedge-audio")
        assert code == 0
        assert out.startswith("ok:")

    def test_invalid_window(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("""
extends: scenarios/azureedge-audio
hub:
  window_s: 30
""")
        code, _, err = run_cli(capsys, "validate", "--config", str(bad))
        assert code == 1
        assert "60" in err

    def test_sub_millisecond_window_is_invalid(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("extends: scenarios/batch-window-60\nhub: {window_s: 0.0004, platform_faithful: false}\n")
        code, _, err = run_cli(capsys, "validate", "--config", str(bad))
        assert code == 1
        assert err.startswith("invalid: hub: window_s must be at least 1 ms")

    def test_bad_value_named(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("extends: scenarios/greengrass-image\nresources: {cores: abc}\n")
        code, _, err = run_cli(capsys, "validate", "--config", str(bad))
        assert code == 1
        assert err.startswith("invalid: resources.cores: ")

    @pytest.mark.parametrize("parent, override, match", NON_FINITE_OR_MISTYPED)
    def test_non_finite_or_mistyped_value_is_invalid(self, capsys, tmp_path, parent, override, match):
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"extends: scenarios/{parent}\n{override}\n")
        code, _, err = run_cli(capsys, "validate", "--config", str(bad))
        assert code == 1
        assert err.startswith(f"invalid: {match}")


class TestCharts:
    def test_charts_from_reports(self, capsys, tmp_path):
        run_cli(capsys, "run", "--config", "scenarios/greengrass-audio",
                "--out", str(tmp_path / "a"))
        run_cli(capsys, "run", "--config", "scenarios/azureedge-audio",
                "--out", str(tmp_path / "b"))
        code, out, _ = run_cli(capsys, "charts",
                               str(tmp_path / "a/report.json"),
                               str(tmp_path / "b/report.json"),
                               "--out", str(tmp_path))
        assert code == 0
        svg = (tmp_path / "charts" / "e2e_ms.svg").read_text()
        assert "greengrass" in svg and "azureedge" in svg

    def test_charts_deterministic(self, capsys, tmp_path):
        run_cli(capsys, "run", "--config", "scenarios/greengrass-audio",
                "--out", str(tmp_path / "a"))
        run_cli(capsys, "charts", str(tmp_path / "a/report.json"), "--out", str(tmp_path / "c1"))
        run_cli(capsys, "charts", str(tmp_path / "a/report.json"), "--out", str(tmp_path / "c2"))
        for path in (tmp_path / "c1" / "charts").glob("*.svg"):
            twin = tmp_path / "c2" / "charts" / path.name
            assert path.read_bytes() == twin.read_bytes()


class TestFixturesListing:
    def test_lists_scenarios(self, capsys):
        code, out, _ = run_cli(capsys, "fixtures")
        assert code == 0
        assert "scenarios/greengrass-audio" in out
        assert "scenarios/azure-cloud-image" in out
