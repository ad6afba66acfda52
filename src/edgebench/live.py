"""Live-mode runner: the runner's drivers on a wall clock with real threads.

The device's item chain runs on a thread of its own, the cloud side
(arrivals, hub, result writes) on the calling thread; each thread runs
its callbacks from a wall-clock loop as they fall due. Compute time is
burned with a deadline spin loop (approximate, a few percent per item),
or spent in the workload's ``item_hook``; link delays are modeled, not
transmitted. Resource usage is sampled from the real process at 1 s
cadence, so live reports carry measured CPU/RSS instead of replayed
profiles; without psutil, or in a run shorter than one sample, they
say why none were taken. Live runs are excluded from the
exact-determinism guarantees of virtual mode.
"""

from __future__ import annotations

import heapq
import threading
import time
from pathlib import Path

from .config import ScenarioConfig
from .runner import RunResult, finish_run, start_run


class _WallClock:
    """Milliseconds since the run began, with the interface of ``core.Clock``.

    ``stop`` is the run's stop event: once it is set, compute ends early.
    """

    def __init__(self, skew_edge_ms: int, stop: threading.Event):
        self.skew_edge_ms = int(skew_edge_ms)
        self.stop = stop
        self._base = time.monotonic_ns()

    @property
    def now(self) -> int:
        return (time.monotonic_ns() - self._base) // 1_000_000

    def edge_stamp(self, true_time_ms: int) -> int:
        return true_time_ms + self.skew_edge_ms

    def compute(self, c_edge_ms: int) -> int:
        """Burn CPU until ``c_edge_ms`` have passed or the run stops; returns the elapsed ms."""
        start = self.now
        deadline = start + c_edge_ms
        while self.now < deadline and not self.stop.is_set():
            pass  # keep the core busy rather than sleeping
        return self.now - start


class _WallLoop:
    """Due-time callback queue that one thread runs against the wall clock.

    Other threads may schedule onto it. ``stop`` is shared by every loop
    of a run: setting it ends them all early, as when a thread fails.
    """

    def __init__(self, clock: _WallClock, stop: threading.Event):
        self.clock = clock
        self.stop = stop
        self._heap: list = []
        self._cond = threading.Condition()
        self._seq = 0

    def schedule(self, at_ms: int, fn, priority: int = 0) -> None:
        with self._cond:
            heapq.heappush(self._heap, (at_ms, priority, self._seq, fn))
            self._seq += 1
            self._cond.notify()

    def run(self, feeder: threading.Thread | None = None) -> int:
        """Run callbacks as they fall due; returns the wall time at the end.

        Ends when no callback is left and ``feeder``, a thread that
        schedules onto this loop, has ended, or as soon as ``stop`` is set.
        """
        while not self.stop.is_set():
            with self._cond:
                if not self._heap:
                    if feeder is None or not feeder.is_alive():
                        break
                    self._cond.wait(0.02)
                    continue
                due = self._heap[0][0]
                now = self.clock.now
                if due > now:
                    self._cond.wait(min((due - now) / 1000, 0.05))
                    continue
                fn = heapq.heappop(self._heap)[3]
            fn()
        return self.clock.now


class _ResourceSampler(threading.Thread):
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

    def run(self):
        if self._proc is None:
            return
        while not self.stop.wait(1.0):
            self.cpu.append(self._proc.cpu_percent(None))
            self.ram.append(self._proc.memory_info().rss / (1024 * 1024))

    def summary(self) -> dict:
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


def run_live(config: ScenarioConfig, persist_blobs: str | Path | None = None) -> RunResult:
    """Execute one scenario against the wall clock.

    A failure in either thread stops both; it is raised here once every
    thread the run started has ended.
    """
    stop = threading.Event()
    clock = _WallClock(config.skew_edge_ms, stop)
    loop = _WallLoop(clock, stop)
    device_loop = _WallLoop(clock, stop)
    seed = config.seed if config.seed is not None else time.time_ns() & (2**63 - 1)
    run = start_run(config, clock, loop, device_loop, seed, persist_blobs)
    failures: list[BaseException] = []

    def device():
        try:
            device_loop.run()
        except BaseException as exc:  # re-raised on the calling thread below
            failures.append(exc)
            stop.set()

    device_thread = threading.Thread(target=device, name="edgebench-device")
    sampler = _ResourceSampler()
    sampler.start()
    device_thread.start()
    try:
        loop.run(feeder=device_thread)
        if not failures and run.hub is not None and run.hub.flush_open(clock.now):
            loop.run()  # chunk-only routes: write the tail batch
    except BaseException:
        stop.set()  # end the device thread too
        raise
    finally:
        device_thread.join()
        sampler.stop.set()
        sampler.join()
    if failures:
        raise failures[0]
    return finish_run(run, clock.now, sampler.summary())
