"""Shared domain types: virtual clock, event loop, seeded RNG, distributions.

All durations and timestamps are integer milliseconds. Sub-millisecond
quantities are rounded half-to-even before entering the event queue.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

MS_PER_S = 1000
_SCALAR_RUN = 64  # doubles in a row a SeededRng draws one at a time
_MAX_BLOCK = 1024  # doubles a SeededRng draws ahead at most
_DOUBLE_STEP = 2.0**-53  # numpy's double from a 64-bit output: (bits >> 11) * 2**-53


class SimulationError(Exception):
    """Base class for simulator errors."""


class TimeRegression(SimulationError):
    """Raised when the virtual clock is asked to move backwards."""


class InvalidDistribution(SimulationError, ValueError):
    """Raised for malformed distribution parameters."""


def to_ms(value: float) -> int:
    """Round a millisecond quantity half-to-even and clamp at zero."""
    return max(0, round(value))


class Clock:
    """Virtual pipeline clock.

    Time advances only through :meth:`advance` and never decreases.
    ``skew_edge_ms`` models imperfect clock sync: it offsets timestamps
    written by edge-side components (T1) and nothing else, so event
    ordering and byte accounting are skew-invariant.
    """

    def __init__(self, skew_edge_ms: int = 0):
        self.skew_edge_ms = int(skew_edge_ms)
        self.now = 0

    def advance(self, event_time: int) -> None:
        """Move virtual time forward to ``event_time``."""
        if event_time < self.now:
            raise TimeRegression(
                f"event at {event_time} ms is before current time {self.now} ms"
            )
        self.now = event_time

    def edge_stamp(self, true_time_ms: int) -> int:
        """Timestamp as written by an edge device (true instant plus skew)."""
        return true_time_ms + self.skew_edge_ms

    def compute(self, c_edge_ms: int) -> int:
        """Edge compute of ``c_edge_ms`` starting now; returns the ms it took.

        Virtual compute takes exactly the drawn time and leaves the clock
        where it is: the event loop moves it.
        """
        return c_edge_ms


class SeededRng:
    """Deterministic random source (PCG64 behind numpy's Generator).

    Identical seeds yield identical draw sequences across runs and
    platforms. ``substream(name)`` derives an independent child stream
    from the root seed and the component name, so adding a component
    never perturbs the draws of existing ones. The splitting rule is:
    child entropy = (root_seed, utf-8 bytes of the name).

    ``random`` and ``uniform`` draw the first ``_SCALAR_RUN`` doubles of a
    run one at a time and serve the rest of the run from blocks drawn
    ahead with ``Generator.random(k)``, each a quarter of the run so far.
    Before any other kind of draw the generator is stepped back over the
    doubles not yet served (PCG64 jumps back exactly), so every draw is
    value-for-value identical to the same call on an unbuffered
    ``numpy.random.Generator``. Streams that mix kinds in short runs thus
    never draw ahead, and a long run steps back once, over less than a
    fifth of the doubles it drew.

    An instance is not thread-safe. A run draws from all of its streams
    on the one thread that runs its event loop, in both modes.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._attach(self._make_generator((self._unsigned(),)))

    def _unsigned(self) -> int:
        return self.seed & (2**64 - 1)  # SeedSequence wants non-negative entropy

    @staticmethod
    def _make_generator(entropy: tuple) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def _attach(self, gen: np.random.Generator) -> None:
        self._gen = gen
        self._raw = gen.bit_generator.random_raw
        self._doubles: list[float] = []  # drawn ahead, next one last
        self._run = 0  # doubles drawn since the last other kind of draw

    def substream(self, name: str) -> "SeededRng":
        child = SeededRng.__new__(SeededRng)
        child.seed = self.seed
        child._attach(self._make_generator((self._unsigned(),) + tuple(name.encode("utf-8"))))
        return child

    def _refill(self) -> float:
        """Serve the next double once none are left drawn ahead.

        The first ``_SCALAR_RUN`` doubles of a run are drawn one at a
        time; after that each block holds a quarter of the run so far.
        """
        run = self._run
        if run < _SCALAR_RUN:
            self._run = run + 1
            return (self._raw() >> 11) * _DOUBLE_STEP  # Generator.random() without its call overhead
        block = min(run // 4, _MAX_BLOCK)
        self._run = run + block
        self._doubles = self._gen.random(block)[::-1].tolist()
        return self._doubles.pop()

    def _return_unused(self) -> None:
        """Step the generator back over the doubles not yet served."""
        self._run = 0
        unused = len(self._doubles)
        if not unused:
            return
        self._doubles = []
        bits = self._gen.bit_generator
        kept = bits.state
        bits.advance(-unused)
        if kept["has_uint32"]:  # advance() drops the half of a 64-bit output pick() left
            state = bits.state
            state["has_uint32"], state["uinteger"] = kept["has_uint32"], kept["uinteger"]
            bits.state = state

    def random(self) -> float:
        if self._doubles:
            return self._doubles.pop()
        run = self._run
        if run < _SCALAR_RUN:  # _refill's first branch inlined, so short runs cost no extra call
            self._run = run + 1
            return (self._raw() >> 11) * _DOUBLE_STEP
        return self._refill()

    def random_array(self, n: int) -> np.ndarray:
        """The next ``n`` draws of :meth:`random`, as one float64 array."""
        self._return_unused()
        return self._gen.random(n)

    def uniform(self, a: float, b: float) -> float:
        low, span = uniform_span(a, b)
        doubles = self._doubles  # not via self.random(), which would count this draw twice
        return low + span * (doubles.pop() if doubles else self._refill())

    def normal(self, mu: float, sigma: float) -> float:
        self._return_unused()
        return float(self._gen.normal(mu, sigma))

    def pick(self, values: list | tuple):
        self._return_unused()
        return values[int(self._gen.integers(0, len(values)))]


def uniform_span(a: float, b: float) -> tuple[float, float]:
    """``(low, high - low)`` for a uniform draw ``low + span * u``.

    This is numpy's own formula and argument check, so ``uniform(a, b)``
    from a draw ``u`` equals ``Generator.uniform(a, b)`` bit for bit.
    """
    low = float(a)
    span = float(b) - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if span < 0:
        raise ValueError("high - low < 0")
    return low, span


@dataclass(frozen=True)
class Distribution:
    """A one-dimensional sampling distribution.

    Kinds: ``constant(c)``, ``uniform(a, b)``, ``normal(mu, sigma)``
    (clamped at zero), ``empirical(values)``.
    """

    kind: str
    params: tuple

    def sample(self, rng: SeededRng) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "uniform":
            return rng.uniform(self.params[0], self.params[1])
        if self.kind == "normal":
            return max(0.0, rng.normal(self.params[0], self.params[1]))
        if self.kind == "empirical":
            return rng.pick(self.params[0])
        raise InvalidDistribution(f"unknown distribution kind: {self.kind!r}")

    def sample_int(self, rng: SeededRng) -> int:
        """Integer sample, rounded half-to-even and clamped at zero."""
        return to_ms(self.sample(rng))

    def to_spec(self):
        if self.kind == "constant":
            return {"constant": self.params[0]}
        if self.kind == "empirical":
            return {"empirical": list(self.params[0])}
        return {self.kind: list(self.params)}


def constant(c: float) -> Distribution:
    return Distribution("constant", (c,))


def uniform(a: float, b: float) -> Distribution:
    if a > b:
        raise InvalidDistribution(f"uniform bounds out of order: a={a} > b={b}")
    return Distribution("uniform", (a, b))


def normal(mu: float, sigma: float) -> Distribution:
    if sigma < 0:
        raise InvalidDistribution(f"normal sigma must be >= 0, got {sigma}")
    return Distribution("normal", (mu, sigma))


def empirical(values) -> Distribution:
    values = tuple(values)
    if not values:
        raise InvalidDistribution("empirical distribution needs at least one value")
    return Distribution("empirical", (values,))


class EventLoop:
    """Minimal discrete-event loop over a clock.

    Events at equal timestamps run in (priority, insertion) order;
    arrivals are given a lower priority number than batch flushes so a
    message landing exactly on a window boundary joins the closing batch.
    The loop moves its clock with ``clock.advance(at_ms)`` before each
    event: a virtual clock jumps there, a wall clock sleeps until then.
    ``now`` is the time of the latest event the loop has run (at first,
    the clock's time), which may trail a wall clock.
    """

    def __init__(self, clock):
        self.clock = clock
        self.now = clock.now
        self._heap: list = []
        self._seq = 0

    def schedule(self, at_ms: int, fn, priority: int = 0) -> None:
        if at_ms < self.now:
            raise TimeRegression(f"cannot schedule event at {at_ms} ms, before the event at {self.now} ms")
        heapq.heappush(self._heap, (at_ms, priority, self._seq, fn))
        self._seq += 1

    def run(self, until: int | None = None) -> int:
        """Process events until the queue drains, or only those due by ``until``.

        Returns the clock's time at the end.
        """
        heap = self._heap
        advance = self.clock.advance
        while heap and (until is None or heap[0][0] <= until):
            at_ms, _prio, _seq, fn = heapq.heappop(heap)
            self.now = at_ms
            advance(at_ms)
            fn()
        return self.clock.now
