"""Deterministic SVG bar charts for run reports.

Hand-rolled SVG so identical inputs always produce byte-identical files
(no renderer timestamps or session ids). One grouped bar chart per
metric: groups are workloads, bars are platform labels.
"""

from __future__ import annotations

import math
from pathlib import Path

from .core import SimulationError
from .metrics import METRIC_NAMES, RunReport

CHART_METRICS = METRIC_NAMES + ("cpu_pct", "ram_mb")

_PALETTE = ("#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#b279a2")

_TITLES = {
    "c_edge_ms": "Average compute time per message (ms)",
    "flight_ms": "Average time-in-flight per message (ms)",
    "residence_ms": "Average hub/storage residence per message (ms)",
    "e2e_ms": "Average end-to-end latency (ms)",
    "payload_bytes": "Average payload size (bytes)",
    "cpu_pct": "Average CPU utilization (%)",
    "ram_mb": "Average RAM utilization (MB)",
}


class EmptyInput(SimulationError):
    pass


def _nice_ceiling(value: float) -> float:
    """Smallest 1/2/5 x 10^k at or above value."""
    if value <= 0:
        return 1.0
    exp = math.floor(math.log10(value))
    for mult in (1, 2, 5, 10):
        candidate = mult * 10.0 ** exp
        if candidate >= value:
            return candidate
    return 10.0 ** (exp + 1)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def grouped_bar_svg(title: str, groups: list[str], series: list[tuple[str, dict]]) -> str:
    """Render one grouped bar chart; series maps group label to value."""
    width, height = 640, 360
    margin_l, margin_r, margin_t, margin_b = 70, 20, 40, 70
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    peak = max((v for _, values in series for v in values.values()), default=0.0)
    y_max = _nice_ceiling(peak)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="22" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # y axis with 5 ticks
    for i in range(6):
        frac = i / 5
        y = margin_t + plot_h * (1 - frac)
        out.append(f'<line x1="{margin_l}" y1="{_fmt(y)}" x2="{width - margin_r}" '
                   f'y2="{_fmt(y)}" stroke="#dddddd"/>')
        out.append(f'<text x="{margin_l - 6}" y="{_fmt(y + 4)}" text-anchor="end" '
                   f'font-size="10">{_fmt(y_max * frac)}</text>')

    n_groups = max(1, len(groups))
    n_series = max(1, len(series))
    group_w = plot_w / n_groups
    bar_w = group_w * 0.8 / n_series
    for gi, group in enumerate(groups):
        gx = margin_l + gi * group_w
        for si, (_, values) in enumerate(series):
            value = values.get(group)
            if value is None:
                continue
            h = plot_h * (value / y_max) if y_max > 0 else 0
            x = gx + group_w * 0.1 + si * bar_w
            y = margin_t + plot_h - h
            color = _PALETTE[si % len(_PALETTE)]
            out.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
                       f'height="{_fmt(h)}" fill="{color}"/>')
        out.append(f'<text x="{_fmt(gx + group_w / 2)}" y="{height - margin_b + 16}" '
                   f'text-anchor="middle" font-size="11">{group}</text>')
    # legend
    lx = margin_l
    ly = height - margin_b + 34
    for si, (name, _) in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        out.append(f'<rect x="{_fmt(lx)}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
        out.append(f'<text x="{_fmt(lx + 14)}" y="{ly}" font-size="11">{name}</text>')
        lx += 14 + 7 * len(name) + 24
    out.append(f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
               f'y2="{margin_t + plot_h}" stroke="#333333"/>')
    out.append(f'<line x1="{margin_l}" y1="{margin_t + plot_h}" x2="{width - margin_r}" '
               f'y2="{margin_t + plot_h}" stroke="#333333"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _metric_value(report: RunReport, metric: str) -> float | None:
    """The metric's mean, or None for a resource the report has no summary of."""
    if metric in report.aggregates:
        return report.aggregates[metric]["mean"]
    return (report.resources or {}).get(f"{metric}_mean")


def _platform(report: RunReport) -> str:
    return report.config.platform_profile or report.label


def emit_charts(reports: list[RunReport], out_dir: str | Path) -> list[Path]:
    """One grouped bar chart file per metric across the given reports."""
    if not reports:
        raise EmptyInput("emit_charts needs at least one report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    groups = sorted({r.config.workload.kind for r in reports})
    platforms = sorted({_platform(r) for r in reports})
    written = []
    for metric in CHART_METRICS:
        series = []
        for platform in platforms:
            values = {}
            for report in reports:
                if _platform(report) != platform:
                    continue
                value = _metric_value(report, metric)
                if value is not None:
                    values[report.config.workload.kind] = value
            if values:
                series.append((platform, values))
        if not series:
            continue
        svg = grouped_bar_svg(_TITLES.get(metric, metric), groups, series)
        path = out / f"{metric}.svg"
        path.write_text(svg, encoding="utf-8")
        written.append(path)
    return written
