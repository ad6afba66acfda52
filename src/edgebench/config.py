"""Scenario configuration: strict YAML schema with profile inheritance.

Configs are YAML mappings with an optional ``extends`` key naming a
shipped fixture (e.g. ``scenarios/greengrass-audio``) or a path relative
to the including file. A section's keys are the fields of its dataclass.
Unknown keys are fatal so calibrated fixtures cannot be silently
mistyped.
"""

from __future__ import annotations

import functools
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from decimal import Decimal
from importlib import resources as importlib_resources
from pathlib import Path

import yaml

from .cloud import CloudFunctionProfile
from .core import MAX_CONFIG_MS, Distribution, SimulationError, constant, empirical, normal, uniform
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
    """Child values win; a section both define merges key by key.

    Sections are one level deep, so a value inside a section (a
    distribution, say) replaces the parent's whole.
    """
    out = dict(parent)
    for key, value in child.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = {**out[key], **value}
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
#
# A section's keys, defaults and types are the fields of its dataclass,
# the top level's those of ScenarioConfig; a field whose type is a
# dataclass is a nested section, a field without a default is a required
# key, and a field with metadata {"config": False} is not a config key.
# report.json is read the same way: metrics.RunReport is its top level
# and its sections are TypedDicts, whose keys are required unless
# declared total=False.

_DIST_KINDS = ("constant", "uniform", "normal", "empirical")
_EXPECTED = {bool: "true or false", str: "a string", int: "an integer", float: "a finite number",
             Decimal: "a finite number"}


@functools.cache
def _field_types(cls) -> dict:
    """Key -> type of each config field of a dataclass or key of a TypedDict (``X | None`` as ``X``)."""
    hints = typing.get_type_hints(cls)
    keys = [f.name for f in fields(cls) if f.metadata.get("config", True)] if is_dataclass(cls) else hints
    return {key: next(t for t in typing.get_args(hints[key]) if t is not type(None))
            if typing.get_origin(hints[key]) in (typing.Union, types.UnionType) else hints[key]
            for key in keys}


def parse_distribution(value, where: str) -> Distribution:
    """Parse ``{constant: c}`` style mappings; bare numbers mean constant.

    Every parameter must be a finite number.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return constant(_convert(type(value), value, where))
    if isinstance(value, dict) and len(value) == 1:
        kind, params = next(iter(value.items()))
        number = functools.partial(_convert, float, where=where)
        try:
            if kind == "constant":
                return constant(number(params))
            if kind == "uniform":
                return uniform(number(params[0]), number(params[1]))
            if kind == "normal":
                return normal(number(params[0]), number(params[1]))
            if kind == "empirical":
                return empirical([number(v) for v in params])
        except (TypeError, ValueError, IndexError) as exc:
            raise ParseError(f"{where}: bad {kind} parameters: {params!r}") from exc
        raise UnknownKey(f"{where}: unknown distribution kind {kind!r} "
                         f"(expected one of {_DIST_KINDS})")
    raise ParseError(f"{where}: expected a number or a one-key distribution mapping, "
                     f"got {value!r}")


def _convert(tp, value, where: str):
    """``value`` as a config field of type ``tp``; ParseError naming ``where`` if it is none.

    A distribution or a section is parsed as one, a ``dict[str, X]`` value
    by value. Booleans and strings are taken as they are, a boolean is not
    a number, an integer field refuses a fractional value, and a number
    must be finite. Decimals are read from the value's text, so ``0.1``
    stays exact.
    """
    if tp is Distribution:
        return parse_distribution(value, where)
    if is_dataclass(tp) or typing.is_typeddict(tp):
        return _build_section(tp, value, where)
    if typing.get_origin(tp) is dict:
        if not isinstance(value, dict):
            raise ParseError(f"{where} must be a mapping, got {value!r}")
        return {key: _convert(typing.get_args(tp)[1], item, f"{where}.{key}") for key, item in value.items()}
    if tp is bool or tp is str:
        if isinstance(value, tp):
            return value
    elif not isinstance(value, bool) and not (
            tp is int and isinstance(value, float) and not value.is_integer()):
        try:
            number = Decimal(str(value)) if tp is Decimal else tp(value)
        except (TypeError, ValueError, ArithmeticError):
            pass
        else:
            if number.is_finite() if tp is Decimal else tp is int or math.isfinite(number):
                return number
    raise ParseError(f"{where}: expected {_EXPECTED[tp]}, got {value!r}")


def _build_section(cls, mapping, section: str = ""):
    """An instance of the dataclass or TypedDict ``cls`` from its mapping.

    Absent and null keys keep their defaults; a field without a default,
    or a TypedDict's required key, is required. ``section`` names the
    mapping in errors ("" at the top level).
    """
    if not isinstance(mapping, dict):
        raise ParseError(f"{section} must be a mapping, got {mapping!r}")
    prefix = f"{section}." if section else ""
    key_types = _field_types(cls)
    values = {}
    for key, value in mapping.items():
        where = f"{prefix}{key}"
        if key not in key_types:
            raise UnknownKey(f"unknown key: {where!r}")
        if value is not None:
            values[key] = _convert(key_types[key], value, where)
    required = (cls.__required_keys__ if typing.is_typeddict(cls) else
                {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING})
    for key in key_types:  # in declaration order
        if key in required and key not in values:
            raise ParseError(f"{prefix}{key} is required")
    try:
        return cls(**values)
    except (ValueError, ArithmeticError) as exc:
        raise ParseError(f"{section}: {exc}") from exc


def _section_dict(obj) -> dict | None:
    """A section's config fields as a config file, or report.json, writes them."""
    if obj is None:
        return None
    values = {name: getattr(obj, name) for name in _field_types(type(obj))}
    return {k: v.to_spec() if isinstance(v, Distribution) else _section_dict(v) if is_dataclass(v) else v
            for k, v in values.items()}


@dataclass(frozen=True)
class ClockSpec:
    """The edge clock: ``skew_edge_ms`` is added to T1 and nowhere else."""

    skew_edge_ms: int = 0

    def __post_init__(self):
        if abs(self.skew_edge_ms) > MAX_CONFIG_MS:
            raise ValueError(f"skew_edge_ms must be within 2**53 ms of 0, got {self.skew_edge_ms}")


@dataclass(frozen=True)
class StorageSpec:
    """Blob names start ``<route>/``; a blob's size is its envelope plus its messages' payloads."""

    blob_envelope_bytes: int = 0
    route: str = "results"

    def __post_init__(self):
        if self.blob_envelope_bytes < 0:
            raise ValueError(f"blob_envelope_bytes must be >= 0, got {self.blob_envelope_bytes}")


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """Fully resolved run configuration.

    A config and its sections are frozen, so ``dataclasses.replace`` is
    the only way to override one, and the cross-section rules run on
    every construction: a replaced config is checked like a file.
    """

    pipeline: str
    platform_profile: str = "unnamed"
    label: str = ""  # "" means "<platform_profile>/<workload kind>"
    mode: str = "virtual"
    seed: int | None = None
    output_dir: str | None = None
    workload: WorkloadSpec
    link: LinkModel = field(default_factory=LinkModel)
    hub: HubPolicy | None = None
    cloud_function: CloudFunctionProfile | None = None
    resources: ResourceProfile | None = None
    clock: ClockSpec = field(default_factory=ClockSpec)
    storage: StorageSpec = field(default_factory=StorageSpec)

    def __post_init__(self):
        pipeline = self.pipeline
        if pipeline not in ("edge", "cloud"):
            raise ParseError(f"pipeline must be 'edge' or 'cloud', got {pipeline!r}")
        if self.mode not in ("virtual", "live"):
            raise ParseError(f"mode must be 'virtual' or 'live', got {self.mode!r}")
        if self.mode == "virtual" and self.seed is None:
            raise ParseError("seed is required in virtual mode")
        needed, unused = ("hub", "cloud_function") if pipeline == "edge" else ("cloud_function", "hub")
        if getattr(self, needed) is None:
            raise ParseError(f"{pipeline} pipeline requires a {needed} section")
        if getattr(self, unused) is not None:
            raise ParseError(f"{unused}: the {pipeline} pipeline does not use this section")
        if pipeline == "cloud" and self.link.drop_probability > 0:
            raise ParseError(f"link.drop_probability: the cloud pipeline does not model drops, "
                             f"got {self.link.drop_probability}")
        if self.mode == "virtual" and self.workload.item_hook is not None:
            raise ParseError("workload.item_hook does real work, which needs live mode")
        if not self.label:
            object.__setattr__(self, "label", f"{self.platform_profile}/{self.workload.kind}")

    def to_dict(self) -> dict:
        """Canonical resolved form, as a report embeds it and fingerprints it."""
        return _section_dict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        return _build_section(cls, doc)


def config_file(name: str | Path, kind: str = "") -> Path:
    """``name`` if it is a file, else the shipped fixture ``<kind>/<name>`` (e.g. ``scenarios/x``).

    When neither exists, MissingProfile names both lookups.
    """
    path = Path(name)
    if path.is_file():
        return path
    try:
        return fixture_path(str(Path(kind, name)))
    except MissingProfile as exc:
        raise MissingProfile(f"no file {str(name)!r} and {exc}") from None


def load_config(path: str | Path) -> ScenarioConfig:
    """Load, resolve inheritance, and validate a scenario config file."""
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"config file not found: {path}")
    return ScenarioConfig.from_dict(_resolve_extends(path.resolve()))


def load_fixture(name: str) -> ScenarioConfig:
    """Load a shipped scenario fixture by id, e.g. ``scenarios/greengrass-audio``."""
    return load_config(fixture_path(name))


# --- rate cards and usage scenarios ----------------------------------

def load_rate_card(name: str | Path) -> RateCard:
    """Load a rate card by fixture name (e.g. ``us-east-2018``) or path."""
    return _build_section(RateCard, _load_yaml(config_file(name, "ratecards")), "ratecard")


def load_usage(name: str | Path) -> UsageScenario:
    """Load a usage scenario by fixture name (e.g. ``traffic-camera``) or path."""
    return _build_section(UsageScenario, _load_yaml(config_file(name, "usage")), "usage")
