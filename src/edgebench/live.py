"""Live mode's wall clock and resource sampler.

``runner.run_scenario`` runs a live scenario with the same block chain
as a virtual one, on one ``EventLoop`` on the calling thread, but on
:class:`WallClock` and with one item a block: an item cannot start
before the previous item's measured compute has ended. The loop sleeps
until each item falls due and runs one that is already due late.
Compute time is burned with a deadline spin loop (approximate, a few
percent per item); a workload's ``item_hook`` does its work in its
place. Nothing else runs meanwhile: an item's send, link, hub and blob
decisions follow in the same event, the loop ends with an event at the
run's last modeled time, and persisted blobs are written once it has
ended. Link delays and cloud-side times (t2, t3) are modeled, not
transmitted, so when a cloud-side step runs never changes a value, and a
failure in any step ends the run at once. :class:`ResourceSampler`
samples the real process at 1 s cadence on a thread of its own while the
loop runs, so live reports carry measured CPU/RSS instead of replayed
profiles; without psutil, or in a run shorter than one sample, they say
why none were taken. Live runs are excluded from the exact-determinism
guarantees of virtual mode.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from .metrics import Resources


class WallClock:
    """Milliseconds since the run began, with the interface of ``core.Clock``."""

    def __init__(self):
        self._base = time.monotonic_ns()

    @property
    def now(self) -> int:
        return (time.monotonic_ns() - self._base) // 1_000_000

    def advance(self, event_time: int) -> None:
        """Sleep until ``event_time``; an event already due runs late."""
        delay_ns = self._base + event_time * 1_000_000 - time.monotonic_ns()
        if delay_ns > 0:
            time.sleep(delay_ns / 1e9)

    def compute(self, c_edge_ms: np.ndarray) -> np.ndarray:
        """Burn CPU for a one-item block's ``c_edge_ms``; returns the elapsed ms, as the same shape."""
        start = self.now
        deadline = start + int(c_edge_ms[0])
        while self.now < deadline:  # spin rather than sleep: live compute keeps a core busy
            pass
        return np.array([self.now - start])


class ResourceSampler(threading.Thread):
    """Samples the process's CPU and RSS at 1 s cadence from entering a ``with`` block to leaving it."""

    def __init__(self):
        super().__init__(daemon=True)
        self.stop = threading.Event()
        self.cpu: list[float] = []
        self.ram: list[float] = []
        try:
            import psutil

            self._proc = psutil.Process()
            self._proc.cpu_percent(None)  # prime the counter
        except ImportError:
            self._proc = None

    def __enter__(self) -> "ResourceSampler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        self.join()

    def run(self):
        if self._proc is None:
            return
        while not self.stop.wait(1.0):
            self.cpu.append(self._proc.cpu_percent(None))
            self.ram.append(self._proc.memory_info().rss / (1024 * 1024))

    def summary(self) -> Resources:
        if self._proc is None:
            return {"mode": "unavailable", "reason": "psutil is not installed"}
        if not self.cpu:
            return {"mode": "unavailable", "reason": "the run ended before the first 1 s sample"}
        return {
            "mode": "measured",
            "cpu_pct_mean": sum(self.cpu) / len(self.cpu),
            "ram_mb_mean": sum(self.ram) / len(self.ram),
            "samples": len(self.cpu),
        }
