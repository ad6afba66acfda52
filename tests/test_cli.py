"""CLI surface: run/compare/cost/validate/charts/fixtures subcommands."""

import re

import pytest

from edgebench.cli import main
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
        (no_label, "{path}: missing fields ['label', "),
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
