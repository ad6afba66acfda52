"""Shared domain types: virtual clock, event loop, seeded RNG, distributions.

All durations and timestamps are integer milliseconds. Sub-millisecond
quantities are rounded half-to-even (``to_ms``) before they become
timestamps. Distributions are sampled a block of rows at a time
(``sample_rows``), with the same values as one sample at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy 2 loads numpy.random on first access; importing it here keeps that
# ~10 ms and ~2 MB out of a run
from numpy.random import PCG64, Generator, SeedSequence

MS_PER_S = 1000
MAX_CONFIG_MS = 2 ** 53  # the longest time a config may give; integer ms up to it are exact as doubles


class SimulationError(Exception):
    """Base class for simulator errors."""


class TimeRegression(SimulationError):
    """Raised when the virtual clock is asked to move backwards."""


class InvalidDistribution(SimulationError, ValueError):
    """Raised for malformed distribution parameters."""


def to_ms(value: np.ndarray) -> np.ndarray:
    """Round a float64 array of milliseconds half-to-even to int64, clamped at zero.

    A value that rounds to 2**63 or more, which int64 cannot hold, raises
    SimulationError.
    """
    rounded = np.rint(value)
    top = float(rounded.max()) if rounded.size else 0.0
    if top >= 2.0 ** 63:
        raise SimulationError(f"drawn quantity {top!r} does not fit in int64")
    return np.maximum(rounded, 0).astype(np.int64)


class Clock:
    """Virtual pipeline clock.

    Time advances only through :meth:`advance` and never decreases.
    """

    def __init__(self):
        self.now = 0

    def advance(self, event_time: int) -> None:
        """Move virtual time forward to ``event_time``."""
        if event_time < self.now:
            raise TimeRegression(
                f"event at {event_time} ms is before current time {self.now} ms"
            )
        self.now = event_time

    def compute(self, c_edge_ms: np.ndarray) -> np.ndarray:
        """Edge compute of a block's items, back to back from now; returns the ms each took.

        Virtual compute takes exactly the drawn times and leaves the clock
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

    Every draw is the same call on the stream's ``numpy.random.Generator``,
    so ``random(n)`` returns the same doubles as ``n`` calls of
    ``random()``. An instance is not thread-safe; a run draws from all of
    its streams on the thread that runs its event loop.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = self._make_generator((self._unsigned(),))

    def _unsigned(self) -> int:
        return self.seed & (2**64 - 1)  # SeedSequence wants non-negative entropy

    @staticmethod
    def _make_generator(entropy: tuple) -> Generator:
        return Generator(PCG64(SeedSequence(entropy)))

    def substream(self, name: str) -> "SeededRng":
        child = SeededRng.__new__(SeededRng)
        child.seed = self.seed
        child._gen = self._make_generator((self._unsigned(),) + tuple(name.encode("utf-8")))
        return child

    def random(self, n: int | None = None):
        """One double in [0, 1), or the next ``n`` of them as a float64 array."""
        return self._gen.random(n)

    def uniform(self, a: float, b: float) -> float:
        low, span = uniform_span(a, b)
        return low + span * self._gen.random()  # Generator.uniform's formula, without its call overhead

    def normal(self, mu: float, sigma: float) -> float:
        return self._gen.normal(mu, sigma)

    def pick(self, values: list | tuple):
        return values[self._gen.integers(0, len(values))]


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


def sample_rows(rng: SeededRng, dists, n: int) -> np.ndarray:
    """``n`` rows of one sample of each of ``dists``, as a float64 array of shape (n, len(dists)).

    The stream advances exactly as ``n`` rounds of ``[d.sample(rng) for d
    in dists]`` would: row by row, each row in the order of ``dists``.
    When every kind is constant or uniform the rows come from one block of
    ``random(k)`` doubles; normal and empirical kinds take a variable
    number of the generator's outputs, so such rows are drawn one sample
    at a time.
    """
    if not n:
        return np.empty((0, len(dists)))
    if not all(d.kind in ("constant", "uniform") for d in dists):
        return np.array([[d.sample(rng) for d in dists] for _ in range(n)], dtype=float)
    uniforms = sum(d.kind == "uniform" for d in dists)
    draws = iter(rng.random(n * uniforms).reshape(n, uniforms).T) if uniforms else None
    rows = np.empty((n, len(dists)))
    for column, d in zip(rows.T, dists):
        if d.kind == "uniform":
            low, span = uniform_span(*d.params)
            column[:] = low + span * next(draws)
        else:
            column[:] = d.params[0]
    return rows


class EventLoop:
    """A chain of events over a clock: each event may schedule the next one.

    The loop holds at most one pending event; scheduling a second raises
    SimulationError. The loop moves its clock with ``clock.advance(at_ms)``
    before the event: a virtual clock jumps there, a wall clock sleeps
    until then. ``now`` is the time of the latest event the loop has run
    (at first, the clock's time), which may trail a wall clock; no event
    is scheduled before it.
    """

    def __init__(self, clock):
        self.clock = clock
        self.now = clock.now
        self._pending = None

    def schedule(self, at_ms: int, fn) -> None:
        if at_ms < self.now:
            raise TimeRegression(f"cannot schedule event at {at_ms} ms, before the event at {self.now} ms")
        if self._pending is not None:
            raise SimulationError(f"cannot schedule event at {at_ms} ms: the event at "
                                  f"{self._pending[0]} ms is still pending")
        self._pending = (at_ms, fn)

    def run(self) -> int:
        """Run the chain until no event is pending; returns the clock's time then."""
        while self._pending is not None:
            at_ms, fn = self._pending
            self._pending = None
            self.now = at_ms
            self.clock.advance(at_ms)
            fn()
        return self.clock.now
