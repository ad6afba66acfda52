"""edgebench: a deterministic simulator and benchmark harness for
serverless edge-to-cloud pipelines.

The library models the full message path (edge compute, network flight,
hub write policies, blob storage) plus a cloud-only alternative, and
reports latency decomposition, byte accounting, and monthly cost.
"""

from .charts import emit_charts
from .cloud import CloudFunctionProfile, time_cloud_item
from .config import (
    ScenarioConfig,
    list_fixtures,
    load_config,
    load_fixture,
    load_rate_card,
    load_usage,
)
from .core import (
    Clock,
    Distribution,
    EventLoop,
    InvalidDistribution,
    SeededRng,
    SimulationError,
    TimeRegression,
    constant,
    empirical,
    normal,
    uniform,
)
from .cost import (
    CostBreakdown,
    RateCard,
    UsageScenario,
    cloud_monthly_cost,
    cost_ratio,
    edge_monthly_cost,
    monthly_bandwidth,
)
from .hub import Hub, HubPolicy
from .metrics import (
    EmptyRun,
    IncompleteRecord,
    MetricRow,
    RunReport,
    RunTable,
    aggregate,
    finalize_row,
    report_from_json,
    report_to_json,
    rows_to_csv,
)
from .network import ByteLedger, Link, LinkModel, ledger_report
from .runner import RunResult, run_scenario, write_artifacts
from .storage import BlobRecord, BlobStore
from .workloads import (
    ExhaustedWorkload,
    InvalidRate,
    ResourceProfile,
    WorkloadSpec,
    run_item,
)

__version__ = "0.1.0"

__all__ = [
    "BlobRecord",
    "BlobStore",
    "ByteLedger",
    "Clock",
    "CloudFunctionProfile",
    "CostBreakdown",
    "Distribution",
    "EmptyRun",
    "EventLoop",
    "ExhaustedWorkload",
    "Hub",
    "HubPolicy",
    "IncompleteRecord",
    "InvalidDistribution",
    "InvalidRate",
    "Link",
    "LinkModel",
    "MetricRow",
    "RateCard",
    "ResourceProfile",
    "RunReport",
    "RunResult",
    "RunTable",
    "ScenarioConfig",
    "SeededRng",
    "SimulationError",
    "TimeRegression",
    "UsageScenario",
    "WorkloadSpec",
    "aggregate",
    "cloud_monthly_cost",
    "constant",
    "cost_ratio",
    "edge_monthly_cost",
    "emit_charts",
    "empirical",
    "finalize_row",
    "ledger_report",
    "list_fixtures",
    "load_config",
    "load_fixture",
    "load_rate_card",
    "load_usage",
    "monthly_bandwidth",
    "normal",
    "report_from_json",
    "report_to_json",
    "rows_to_csv",
    "run_item",
    "run_scenario",
    "time_cloud_item",
    "uniform",
    "write_artifacts",
]
