"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of ``edgebench`` from outside the
package: each function is replaced where its caller looks it up
(``runner`` binds ``run_item``, ``time_cloud_item``, ``finalize_row``,
``aggregate``, ``rows_to_csv`` and ``report_to_json`` at import, so those
are patched on ``edgebench.runner``), and methods are patched on their
classes. Every call records one span: name, start, end and the span
that was open when it began. All spans of one tracer belong to one run,
whose id is stored with them. Spans are kept in flat in-memory arrays
and written out once, at the end of the job.

``LAYERS`` is the benchmark's layer map: which wrapped functions make up
each layer, which end-to-end metric an optimisation of the layer should
move, the workloads that lean on it and the workloads that never reach
it. The tests check the predicted bypasses against real traced runs.

Two parts of the package are not layers here: live mode is judged on its
fidelity to wall-clock targets, not on speed, and ``cost`` is
closed-form arithmetic that takes microseconds.

numpy is imported only when spans are analysed, so importing this module
adds nothing to a job's measured set-up.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

ROOT_SETUP = "bench.setup"  # root spans of a traced job
ROOT_JOB = "bench.job"

@dataclass(frozen=True)
class Layer:
    name: str
    sites: tuple[tuple[str, str], ...]  # (module, attribute path) where callers look it up
    moves: tuple[str, ...]
    heavy: tuple[str, ...]
    bypassed: tuple[str, ...] = ()
    calls_metric: str = "calls"
    in_job: bool = True  # False for set-up layers, which get no share of the job


_ALL = ("edge-batched", "edge-scalar", "cloud-image")
_THROUGHPUT = ("msgs_per_s",)
_BOTH = ("msgs_per_s", "peak_rss_bytes_per_msg")

LAYERS = (
    Layer("core.SeededRng",
          tuple(("edgebench.core", f"SeededRng.{m}") for m in ("uniform", "normal", "random", "pick")),
          _THROUGHPUT, ("edge-scalar", "edge-batched"), calls_metric="draws"),
    Layer("core.EventLoop.schedule", (("edgebench.core", "EventLoop.schedule"),), _THROUGHPUT, ("edge-scalar",)),
    Layer("core.EventLoop.run", (("edgebench.core", "EventLoop.run"),), _THROUGHPUT, ("edge-scalar",)),
    Layer("workloads.run_item", (("edgebench.runner", "run_item"),), _THROUGHPUT,
          ("edge-scalar", "edge-batched"), bypassed=("cloud-image",)),
    Layer("workloads.scalar_batch_body", (("edgebench.workloads", "scalar_batch_body"),), _THROUGHPUT,
          ("edge-scalar",), bypassed=("edge-batched", "cloud-image")),
    Layer("workloads.ResourceProfile.sample", (("edgebench.workloads", "ResourceProfile.sample"),),
          _THROUGHPUT, ("cloud-image",)),
    Layer("network.Link.deliver", (("edgebench.network", "Link.deliver"),), _THROUGHPUT,
          ("edge-batched", "edge-scalar"), bypassed=("cloud-image",)),
    Layer("hub.Hub.ingest", (("edgebench.hub", "Hub.ingest"),), _THROUGHPUT,
          ("edge-batched", "edge-scalar"), bypassed=("cloud-image",)),
    Layer("storage.BlobStore.create_blob", (("edgebench.storage", "BlobStore.create_blob"),), _BOTH,
          ("edge-scalar", "cloud-image")),
    Layer("cloud.time_cloud_item", (("edgebench.runner", "time_cloud_item"),), _THROUGHPUT,
          ("cloud-image",), bypassed=("edge-batched", "edge-scalar")),
    Layer("metrics.finalize_row", (("edgebench.runner", "finalize_row"),), _BOTH, _ALL),
    Layer("metrics.aggregate", (("edgebench.runner", "aggregate"),), _BOTH, _ALL),
    Layer("metrics.rows_to_csv", (("edgebench.runner", "rows_to_csv"),), _BOTH, _ALL),
    Layer("metrics.report_to_json", (("edgebench.runner", "report_to_json"),), _BOTH, _ALL),
    Layer("charts.emit_charts", (("edgebench.charts", "emit_charts"),), _BOTH, _ALL),
    Layer("runner.run_scenario", (("edgebench.runner", "run_scenario"),), _THROUGHPUT, _ALL),
    Layer("runner.write_artifacts", (("edgebench.runner", "write_artifacts"),), _THROUGHPUT, _ALL),
    Layer("config.load_fixture", (("edgebench.config", "load_fixture"),), ("setup_s",), _ALL,
          in_job=False),
)


class Tracer:
    """In-memory span recorder for one run.

    Span ``i`` has name ``names[name_id[i]]``, integer nanosecond bounds
    ``start_ns[i]``/``end_ns[i]`` and parent index ``parent[i]`` (-1 for a
    root). Children nest inside their parent and never overlap, so a
    span's self time is never negative.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_id = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._name_id)
        self._name_id.append(name_id)
        self._parent.append(self._stack[-1])
        self._start.append(0)
        self._end.append(0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (used for the roots)."""
        idx = self._open(self._id(name))
        self._start[idx] = time.perf_counter_ns()
        try:
            yield
        finally:
            self._end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name: str):
        name_id = self._id(name)
        open_span, start, end, stack = self._open, self._start, self._end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(name_id)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch every site in LAYERS; ``uninstall`` restores them."""
        for layer in LAYERS:
            for site in layer.sites:
                module, path = site
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(original, span_name(layer, site)))
                self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def arrays(self) -> dict:
        import numpy as np

        return {
            "name_id": np.frombuffer(self._name_id, dtype=np.int32),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "start_ns": np.frombuffer(self._start, dtype=np.int64),
            "end_ns": np.frombuffer(self._end, dtype=np.int64),
        }

    def self_ns(self):
        """Per-span duration minus the durations of its direct children."""
        import numpy as np

        a = self.arrays()
        duration = a["end_ns"] - a["start_ns"]
        own = duration.copy()
        child = a["parent"] >= 0
        np.subtract.at(own, a["parent"][child], duration[child])
        return own

    def totals(self) -> dict[str, dict[str, int]]:
        """Calls and summed self time (ns) per span name."""
        import numpy as np

        name_id = self.arrays()["name_id"]
        own = self.self_ns()
        calls = np.bincount(name_id, minlength=len(self.names))
        self_ns = np.zeros(len(self.names), dtype=np.int64)
        np.add.at(self_ns, name_id, own)
        return {name: {"calls": int(calls[i]), "self_ns": int(self_ns[i])}
                for i, name in enumerate(self.names)}

    def root_ns(self, name: str) -> int:
        """Summed duration of the root spans called ``name``."""
        a = self.arrays()
        mask = (a["parent"] < 0) & (a["name_id"] == self._ids[name])
        return int((a["end_ns"][mask] - a["start_ns"][mask]).sum())

    def write(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), run_id=np.array(self.run_id), **self.arrays())


def layer_metrics(totals: dict[str, dict[str, int]], job_ns: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from a traced job's span totals.

    The job root's own self time is the benchmark's glue between the
    layer calls, so the shares sum to one.
    """
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        names = [span_name(layer, site) for site in layer.sites]
        calls = sum(totals.get(n, {}).get("calls", 0) for n in names)
        self_ns = sum(totals.get(n, {}).get("self_ns", 0) for n in names)
        out[f"{layer.name}.{layer.calls_metric}"] = (calls, "count")
        out[f"{layer.name}.self_s"] = (self_ns / 1e9, "s")
        if layer.in_job:
            out[f"{layer.name}.share"] = (self_ns / job_ns, "ratio")
    glue_ns = totals.get(ROOT_JOB, {}).get("self_ns", 0)
    out[f"{ROOT_JOB}.self_s"] = (glue_ns / 1e9, "s")
    out[f"{ROOT_JOB}.share"] = (glue_ns / job_ns, "ratio")
    return out


def layer_units() -> dict[str, str]:
    return {name: unit for name, (_, unit) in layer_metrics({}, 1).items()}


def span_name(layer: Layer, site: tuple[str, str]) -> str:
    """A one-site layer's spans carry its name; others are named per site."""
    module, path = site
    return layer.name if len(layer.sites) == 1 else f"{module.removeprefix('edgebench.')}.{path}"
