"""Scenario configuration: strict YAML schema with profile inheritance.

Configs are YAML mappings with an optional ``extends`` key naming a
shipped fixture (e.g. ``scenarios/greengrass-audio``) or a path relative
to the including file. Unknown keys are fatal so calibrated fixtures
cannot be silently mistyped.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from importlib import resources as importlib_resources
from pathlib import Path

import yaml

from .cloud import CloudFunctionProfile
from .core import Distribution, SimulationError, constant, empirical, normal, uniform
from .cost import RateCard, UsageScenario
from .hub import HubPolicy
from .network import LinkModel
from .workloads import ResourceProfile, WorkloadSpec


class ParseError(SimulationError):
    pass


class UnknownKey(SimulationError):
    pass


class MissingProfile(SimulationError):
    pass


def fixtures_root() -> Path:
    return Path(importlib_resources.files("edgebench") / "fixtures")


def fixture_path(name: str) -> Path:
    """Resolve a fixture id like ``scenarios/greengrass-audio`` to its file."""
    candidate = fixtures_root() / name
    if candidate.suffix != ".yaml":
        candidate = candidate.with_suffix(".yaml")
    if not candidate.is_file():
        raise MissingProfile(f"no shipped fixture named {name!r}")
    return candidate


def list_fixtures(kind: str = "scenarios") -> list[str]:
    root = fixtures_root() / kind
    if not root.is_dir():
        return []
    return sorted(f"{kind}/{p.stem}" for p in root.glob("*.yaml"))


def _load_yaml(path: Path) -> dict:
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a mapping")
    return doc


def _merge(parent: dict, child: dict) -> dict:
    """Deep merge; child values win, nested mappings merge recursively."""
    out = dict(parent)
    for key, value in child.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _resolve_extends(path: Path, _seen: tuple = ()) -> dict:
    if str(path) in _seen:
        raise ParseError(f"extends cycle through {path}")
    doc = _load_yaml(path)
    parent_ref = doc.pop("extends", None)
    if parent_ref is None:
        return doc
    relative = (path.parent / parent_ref).resolve()
    if relative.suffix != ".yaml":
        relative = relative.with_suffix(".yaml")
    if relative.is_file():
        parent_path = relative
    else:
        parent_path = fixture_path(str(parent_ref))
    parent = _resolve_extends(parent_path, _seen + (str(path),))
    return _merge(parent, doc)


# --- schema ------------------------------------------------------------

_DIST_KINDS = ("constant", "uniform", "normal", "empirical")

_SCHEMA = {
    "": {"label", "pipeline", "platform_profile", "mode", "seed", "output_dir",
         "workload", "link", "hub", "cloud_function", "resources", "clock", "storage"},
    "workload": {"kind", "items", "input_bytes_per_item", "compute_ms",
                 "result_payload_bytes", "inter_item_gap_ms", "scalar_freq_hz",
                 "scalar_interval_s", "warmup_delay_s"},
    "link": {"propagation_ms", "bandwidth_bytes_per_s", "per_message_overhead_bytes",
             "drop_probability"},
    "hub": {"mode", "window_s", "chunk_bytes", "holdback_s", "write_latency_ms",
            "platform_faithful"},
    "cloud_function": {"trigger_overhead_ms", "exec_ms", "memory_mb",
                       "inter_upload_gap_s", "result_write_ms"},
    "resources": {"cpu_pct", "ram_mb", "platform_ram_delta_mb", "cores"},
    "clock": {"skew_edge_ms"},
    "storage": {"blob_envelope_bytes", "route"},
}


def _check_keys(section: str, mapping: dict) -> None:
    allowed = _SCHEMA[section]
    for key in mapping:
        if key not in allowed:
            where = f"{section}.{key}" if section else key
            raise UnknownKey(f"unknown config key: {where!r}")


def parse_distribution(value, where: str) -> Distribution:
    """Parse ``{constant: c}`` style mappings; bare numbers mean constant."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return constant(value)
    if isinstance(value, dict) and len(value) == 1:
        kind, params = next(iter(value.items()))
        try:
            if kind == "constant":
                return constant(float(params))
            if kind == "uniform":
                return uniform(float(params[0]), float(params[1]))
            if kind == "normal":
                return normal(float(params[0]), float(params[1]))
            if kind == "empirical":
                return empirical([float(v) for v in params])
        except (TypeError, ValueError, IndexError) as exc:
            raise ParseError(f"{where}: bad {kind} parameters: {params!r}") from exc
        raise UnknownKey(f"{where}: unknown distribution kind {kind!r} "
                         f"(expected one of {_DIST_KINDS})")
    raise ParseError(f"{where}: expected a number or a one-key distribution mapping, "
                     f"got {value!r}")


def _dist_or_default(mapping: dict, key: str, section: str, default: Distribution) -> Distribution:
    if key not in mapping or mapping[key] is None:
        return default
    return parse_distribution(mapping[key], f"{section}.{key}")


@dataclass
class ScenarioConfig:
    """Fully resolved run configuration."""

    pipeline: str
    platform_profile: str
    label: str
    mode: str
    seed: int | None
    output_dir: str | None
    workload: WorkloadSpec
    link: LinkModel
    hub: HubPolicy | None
    cloud_function: CloudFunctionProfile | None
    resources: ResourceProfile | None
    skew_edge_ms: int
    blob_envelope_bytes: int
    route: str

    def to_dict(self) -> dict:
        """Canonical resolved form, embedded in reports for reproducibility."""
        w = self.workload
        doc = {
            "pipeline": self.pipeline,
            "platform_profile": self.platform_profile,
            "label": self.label,
            "mode": self.mode,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "workload": {
                "kind": w.kind,
                "items": w.items,
                "input_bytes_per_item": w.input_bytes_per_item.to_spec(),
                "compute_ms": w.compute_ms.to_spec(),
                "result_payload_bytes": w.result_payload_bytes.to_spec(),
                "inter_item_gap_ms": w.inter_item_gap_ms.to_spec(),
                "scalar_freq_hz": w.scalar_freq_hz,
                "scalar_interval_s": w.scalar_interval_s,
                "warmup_delay_s": w.warmup_delay_s,
            },
            "link": {
                "propagation_ms": self.link.propagation_ms.to_spec(),
                "bandwidth_bytes_per_s": self.link.bandwidth_bytes_per_s,
                "per_message_overhead_bytes": self.link.per_message_overhead_bytes,
                "drop_probability": self.link.drop_probability,
            },
            "hub": None,
            "cloud_function": None,
            "resources": None,
            "clock": {"skew_edge_ms": self.skew_edge_ms},
            "storage": {"blob_envelope_bytes": self.blob_envelope_bytes, "route": self.route},
        }
        if self.hub is not None:
            doc["hub"] = {
                "mode": self.hub.mode,
                "window_s": self.hub.window_s,
                "chunk_bytes": self.hub.chunk_bytes,
                "holdback_s": self.hub.holdback_s,
                "write_latency_ms": self.hub.write_latency_ms.to_spec(),
                "platform_faithful": self.hub.platform_faithful,
            }
        if self.cloud_function is not None:
            cf = self.cloud_function
            doc["cloud_function"] = {
                "trigger_overhead_ms": cf.trigger_overhead_ms.to_spec(),
                "exec_ms": cf.exec_ms.to_spec(),
                "memory_mb": cf.memory_mb,
                "inter_upload_gap_s": cf.inter_upload_gap_s.to_spec(),
                "result_write_ms": cf.result_write_ms.to_spec(),
            }
        if self.resources is not None:
            doc["resources"] = {
                "cpu_pct": self.resources.cpu_pct.to_spec(),
                "ram_mb": self.resources.ram_mb.to_spec(),
                "platform_ram_delta_mb": self.resources.platform_ram_delta_mb,
                "cores": self.resources.cores,
            }
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        return _build_config(doc)


def _build_workload(section: dict) -> WorkloadSpec:
    _check_keys("workload", section)
    kind = section.get("kind", "custom")
    items = section.get("items")
    if items is None:
        raise ParseError("workload.items is required")
    if int(items) < 1:
        raise ParseError(f"workload.items must be >= 1, got {items}")
    try:
        return WorkloadSpec(
            kind=kind,
            items=int(items),
            input_bytes_per_item=_dist_or_default(section, "input_bytes_per_item", "workload", constant(0)),
            compute_ms=_dist_or_default(section, "compute_ms", "workload", constant(0)),
            result_payload_bytes=_dist_or_default(section, "result_payload_bytes", "workload", constant(0)),
            inter_item_gap_ms=_dist_or_default(section, "inter_item_gap_ms", "workload", constant(0)),
            scalar_freq_hz=float(section.get("scalar_freq_hz", 1.0)),
            scalar_interval_s=float(section.get("scalar_interval_s", 1.0)),
            warmup_delay_s=float(section.get("warmup_delay_s", 0.0)),
        )
    except ValueError as exc:
        raise ParseError(f"workload: {exc}") from exc


def _build_link(section: dict) -> LinkModel:
    _check_keys("link", section)
    bandwidth = section.get("bandwidth_bytes_per_s")
    try:
        return LinkModel(
            propagation_ms=_dist_or_default(section, "propagation_ms", "link", constant(0)),
            bandwidth_bytes_per_s=None if bandwidth is None else float(bandwidth),
            per_message_overhead_bytes=int(section.get("per_message_overhead_bytes", 0)),
            drop_probability=float(section.get("drop_probability", 0.0)),
        )
    except ValueError as exc:
        raise ParseError(f"link: {exc}") from exc


def _build_hub(section: dict) -> HubPolicy:
    _check_keys("hub", section)
    window = section.get("window_s")
    chunk = section.get("chunk_bytes")
    try:
        return HubPolicy(
            mode=section.get("mode", "immediate"),
            window_s=None if window is None else float(window),
            chunk_bytes=None if chunk is None else int(chunk),
            holdback_s=float(section.get("holdback_s", 0.0)),
            write_latency_ms=_dist_or_default(section, "write_latency_ms", "hub", constant(0)),
            platform_faithful=bool(section.get("platform_faithful", False)),
        )
    except ValueError as exc:
        raise ParseError(f"hub: {exc}") from exc


def _build_cloud_function(section: dict) -> CloudFunctionProfile:
    _check_keys("cloud_function", section)
    try:
        return CloudFunctionProfile(
            trigger_overhead_ms=_dist_or_default(section, "trigger_overhead_ms", "cloud_function", constant(0)),
            exec_ms=_dist_or_default(section, "exec_ms", "cloud_function", constant(0)),
            memory_mb=int(section.get("memory_mb", 128)),
            inter_upload_gap_s=_dist_or_default(section, "inter_upload_gap_s", "cloud_function", constant(0)),
            result_write_ms=_dist_or_default(section, "result_write_ms", "cloud_function", constant(0)),
        )
    except ValueError as exc:
        raise ParseError(f"cloud_function: {exc}") from exc


def _build_resources(section: dict) -> ResourceProfile:
    _check_keys("resources", section)
    return ResourceProfile(
        cpu_pct=_dist_or_default(section, "cpu_pct", "resources", constant(0)),
        ram_mb=_dist_or_default(section, "ram_mb", "resources", constant(0)),
        platform_ram_delta_mb=float(section.get("platform_ram_delta_mb", 0.0)),
        cores=int(section.get("cores", 4)),
    )


def _build_config(doc: dict) -> ScenarioConfig:
    _check_keys("", doc)
    pipeline = doc.get("pipeline")
    if pipeline not in ("edge", "cloud"):
        raise ParseError(f"pipeline must be 'edge' or 'cloud', got {pipeline!r}")
    mode = doc.get("mode", "virtual")
    if mode not in ("virtual", "live"):
        raise ParseError(f"mode must be 'virtual' or 'live', got {mode!r}")
    seed = doc.get("seed")
    if mode == "virtual" and seed is None:
        raise ParseError("seed is required in virtual mode")
    if "workload" not in doc or not isinstance(doc["workload"], dict):
        raise ParseError("workload section is required")
    workload = _build_workload(doc["workload"])
    link = _build_link(doc.get("link") or {})
    hub = _build_hub(doc["hub"]) if isinstance(doc.get("hub"), dict) else None
    cloud_fn = (_build_cloud_function(doc["cloud_function"])
                if isinstance(doc.get("cloud_function"), dict) else None)
    if pipeline == "edge" and hub is None:
        raise ParseError("edge pipeline requires a hub section")
    if pipeline == "cloud" and cloud_fn is None:
        raise ParseError("cloud pipeline requires a cloud_function section")
    if pipeline == "cloud" and link.drop_probability > 0:
        raise ParseError(f"link.drop_probability: the cloud pipeline does not model drops, "
                         f"got {link.drop_probability}")
    resources = (_build_resources(doc["resources"])
                 if isinstance(doc.get("resources"), dict) else None)
    clock_section = doc.get("clock") or {}
    _check_keys("clock", clock_section)
    storage_section = doc.get("storage") or {}
    _check_keys("storage", storage_section)
    platform = doc.get("platform_profile", "unnamed")
    label = doc.get("label") or f"{platform}/{workload.kind}"
    return ScenarioConfig(
        pipeline=pipeline,
        platform_profile=platform,
        label=label,
        mode=mode,
        seed=None if seed is None else int(seed),
        output_dir=doc.get("output_dir"),
        workload=workload,
        link=link,
        hub=hub,
        cloud_function=cloud_fn,
        resources=resources,
        skew_edge_ms=int(clock_section.get("skew_edge_ms", 0)),
        blob_envelope_bytes=int(storage_section.get("blob_envelope_bytes", 0)),
        route=str(storage_section.get("route", "results")),
    )


def load_config(path: str | Path) -> ScenarioConfig:
    """Load, resolve inheritance, and validate a scenario config file."""
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"config file not found: {path}")
    return _build_config(_resolve_extends(path.resolve()))


def load_fixture(name: str) -> ScenarioConfig:
    """Load a shipped scenario fixture by id, e.g. ``scenarios/greengrass-audio``."""
    return load_config(fixture_path(name))


# --- rate cards and usage scenarios ----------------------------------

_RATECARD_KEYS = {"edge_runtime_usd_per_device_month", "storage_usd_per_gb_month",
                  "put_usd_per_1k", "get_usd_per_1k", "function_usd_per_gb_s",
                  "function_usd_per_invocation"}
_USAGE_KEYS = {"messages_per_month", "avg_message_kb", "avg_input_kb",
               "function_exec_ms", "function_mem_gb", "devices"}


def _named_or_path(name: str, kind: str) -> Path:
    path = Path(name)
    if path.is_file():
        return path
    return fixture_path(f"{kind}/{name}")


def load_rate_card(name: str | Path) -> RateCard:
    """Load a rate card by fixture name (e.g. ``us-east-2018``) or path."""
    doc = _load_yaml(_named_or_path(str(name), "ratecards"))
    for key in doc:
        if key not in _RATECARD_KEYS:
            raise UnknownKey(f"unknown rate card key: {key!r}")
    return RateCard(**{k: Decimal(str(v)) for k, v in doc.items()})


def load_usage(name: str | Path) -> UsageScenario:
    """Load a usage scenario by fixture name (e.g. ``traffic-camera``) or path."""
    doc = _load_yaml(_named_or_path(str(name), "usage"))
    for key in doc:
        if key not in _USAGE_KEYS:
            raise UnknownKey(f"unknown usage key: {key!r}")
    kwargs = dict(doc)
    for field_name in ("messages_per_month", "devices"):
        if field_name in kwargs:
            kwargs[field_name] = int(kwargs[field_name])
    for field_name in ("avg_message_kb", "avg_input_kb", "function_exec_ms", "function_mem_gb"):
        if field_name in kwargs:
            kwargs[field_name] = Decimal(str(kwargs[field_name]))
    return UsageScenario(**kwargs)
