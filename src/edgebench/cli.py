"""Command-line harness: run scenarios, compare reports, estimate costs.

Subcommands: run, compare, cost, validate, charts, fixtures. The
default output directory comes from --out or the EDGEBENCH_OUT
environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

from .charts import emit_charts
from .config import (
    ScenarioConfig,
    config_file,
    list_fixtures,
    load_config,
    load_rate_card,
    load_usage,
)
from .cost import (
    cloud_monthly_cost,
    cost_ratio,
    edge_monthly_cost,
    format_bytes_binary,
    format_usd,
    monthly_bandwidth,
)
from .core import SimulationError
from .metrics import MalformedReport, RunReport, report_from_json
from .runner import run_scenario, write_artifacts


def _default_out() -> str:
    return os.environ.get("EDGEBENCH_OUT", "out")


def _load_scenario(args) -> ScenarioConfig:
    """The config with --seed and --mode applied, validated like a config file."""
    config = load_config(config_file(args.config))
    overrides = {"seed": args.seed, "mode": args.mode}
    return replace(config, **{key: value for key, value in overrides.items() if value is not None})


def _load_reports(paths: list[str]) -> list[RunReport]:
    """The reports of ``paths``; a file that cannot be read or holds no report is named in the error."""
    reports = []
    for path in paths:
        try:
            reports.append(report_from_json(Path(path).read_bytes()))
        except OSError as exc:
            raise SimulationError(f"cannot read {path}: {exc.strerror or exc}") from None
        except MalformedReport as exc:
            raise MalformedReport(f"{path}: {exc}") from None
    return reports


def cmd_run(args) -> int:
    config = _load_scenario(args)
    out_dir = args.out or config.output_dir or _default_out()
    result = run_scenario(config, persist_blobs=args.persist_blobs)
    paths = write_artifacts(result, out_dir)
    report = result.report
    print(f"scenario: {report.label} ({report.pipeline} pipeline, {config.mode} mode)")
    print(f"messages: {report.message_count}  blobs: {report.blob_count}  "
          f"dropped: {report.dropped_count}")
    e2e = report.aggregates["e2e_ms"]
    flight = report.aggregates["flight_ms"]
    residence = report.aggregates["residence_ms"]
    print(f"mean e2e: {e2e['mean']:.1f} ms  mean flight: {flight['mean']:.1f} ms  "
          f"mean residence: {residence['mean']:.1f} ms")
    total = report.ledger["total"]
    print(f"transmitted: {total['transmitted_bytes']} bytes "
          f"(payload {total['payload_bytes']} + overhead {total['overhead_bytes']})")
    print(f"artifacts: {paths['csv']}, {paths['json']}")
    if report.dropped_count > 0:
        print(f"warning: {report.dropped_count} messages dropped", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args) -> int:
    reports = _load_reports(args.reports)
    base = reports[0]
    base_bytes = base.ledger["total"]["transmitted_bytes"]
    header = f"{'label':<28} {'pipeline':<9} {'mean e2e (ms)':>14} {'transmitted (B)':>16} {'byte ratio':>11}"
    print(header)
    print("-" * len(header))
    for report in reports:
        transmitted = report.ledger["total"]["transmitted_bytes"]
        ratio = transmitted / base_bytes if base_bytes else float("inf")
        print(f"{report.label:<28} {report.pipeline:<9} "
              f"{report.aggregates['e2e_ms']['mean']:>14.1f} {transmitted:>16} {ratio:>11.2f}")
    return 0


def cmd_cost(args) -> int:
    card = load_rate_card(args.rate_card)
    usage = load_usage(args.scenario)
    edge = edge_monthly_cost(card, usage)
    cloud = cloud_monthly_cost(card, usage)
    print("edge pipeline  (runtime + result storage + put requests):")
    print(f"  {edge.formatted()} / month")
    print("cloud pipeline (raw storage + result storage + requests + function):")
    print(f"  {cloud.formatted()} / month")
    ratio = cost_ratio(cloud, edge)
    print(f"cloud/edge cost ratio: {ratio.quantize(Decimal('0.0001'))}")
    edge_bw = monthly_bandwidth(usage, "edge")
    cloud_bw = monthly_bandwidth(usage, "cloud")
    print(f"monthly bandwidth: edge {format_bytes_binary(edge_bw)} "
          f"vs cloud {format_bytes_binary(cloud_bw)}")
    return 0


def cmd_validate(args) -> int:
    try:
        config = load_config(config_file(args.config))
    except SimulationError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print(f"ok: {config.label} ({config.pipeline} pipeline, seed={config.seed})")
    return 0


def cmd_charts(args) -> int:
    reports = _load_reports(args.reports)
    out_dir = args.out or _default_out()
    written = emit_charts(reports, Path(out_dir) / "charts")
    for path in written:
        print(path)
    return 0


def cmd_fixtures(args) -> int:
    for name in list_fixtures("scenarios"):
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgebench",
        description="Deterministic benchmark harness for edge-to-cloud pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write report artifacts")
    p_run.add_argument("--config", required=True,
                       help="scenario file or shipped fixture id (e.g. scenarios/greengrass-audio)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--mode", choices=("virtual", "live"), default=None)
    p_run.add_argument("--out", default=None, help="output directory (default: $EDGEBENCH_OUT or ./out)")
    p_run.add_argument("--persist-blobs", default=None, metavar="DIR",
                       help="mirror blobs to disk as JSON")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="tabulate metrics across report.json files")
    p_cmp.add_argument("reports", nargs="+", help="report.json paths; first is the ratio baseline")
    p_cmp.set_defaults(fn=cmd_compare)

    p_cost = sub.add_parser("cost", help="monthly cost breakdown for a usage scenario")
    p_cost.add_argument("--rate-card", default="us-east-2018",
                        help="rate card fixture name or path")
    p_cost.add_argument("--scenario", default="traffic-camera",
                        help="usage scenario fixture name or path")
    p_cost.set_defaults(fn=cmd_cost)

    p_val = sub.add_parser("validate", help="check a scenario config")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(fn=cmd_validate)

    p_charts = sub.add_parser("charts", help="render SVG charts from report.json files")
    p_charts.add_argument("reports", nargs="+")
    p_charts.add_argument("--out", default=None)
    p_charts.set_defaults(fn=cmd_charts)

    p_fixtures = sub.add_parser("fixtures", help="list shipped scenario fixtures")
    p_fixtures.set_defaults(fn=cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
