"""Clock, RNG, and distribution behavior."""

import dataclasses
import math
import random

import numpy as np
import pytest

from edgebench.config import list_fixtures, load_fixture
from edgebench.core import (
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
    sample_rows,
    to_ms,
    uniform,
)


class TestClock:
    def test_advance_identity(self):
        clock = Clock()
        clock.advance(0)
        assert clock.now == 0

    def test_advance_forward(self):
        clock = Clock()
        clock.advance(1500)
        assert clock.now == 1500

    def test_advance_backwards_rejected(self):
        clock = Clock()
        clock.advance(100)
        with pytest.raises(TimeRegression):
            clock.advance(50)


class TestSeededRng:
    def test_same_seed_same_sequence(self):
        a = [SeededRng(99).random() for _ in range(5)]
        b = [SeededRng(99).random() for _ in range(5)]
        assert a == b

    def test_substreams_are_independent_of_each_other(self):
        root = SeededRng(1)
        wl = root.substream("workload")
        first = [wl.random() for _ in range(3)]
        # drawing from another component's stream must not perturb this one
        root2 = SeededRng(1)
        root2.substream("link").random()
        wl2 = root2.substream("workload")
        assert [wl2.random() for _ in range(3)] == first

    def test_substream_differs_from_root(self):
        root = SeededRng(5)
        assert root.substream("hub").random() != SeededRng(5).random()


def unbuffered(seed, name=""):
    """A plain numpy Generator seeded the way SeededRng(seed).substream(name) is."""
    entropy = (seed & (2**64 - 1),) + tuple(name.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def reference_draw(gen, op, args):
    if op == "pick":
        (values,) = args
        return values[int(gen.integers(0, len(values)))]
    return float(getattr(gen, op)(*args))


DRAW_ARGS = {"random": (), "uniform": (-3.0, 41.5), "normal": (100.0, 15.0),
             "pick": ((2, 3, 5, 7, 11),)}


def shipped_uniform_params():
    """(a, b) of every uniform distribution in the shipped scenario fixtures."""
    pairs = set()

    def walk(obj):
        if isinstance(obj, Distribution):
            if obj.kind == "uniform":
                pairs.add(obj.params)
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name))

    for name in list_fixtures("scenarios"):
        walk(load_fixture(name))
    return sorted(pairs)


class TestSeededRngMatchesUnbufferedNumpy:
    """Scalar and block draws equal the same calls on a plain numpy Generator."""

    @pytest.mark.parametrize("seed, name", [(0, ""), (7, "workload"), (-3, "link"), (2**70, "hub")])
    def test_random_mixed_sequences(self, seed, name):
        plan = random.Random(seed)
        rng = SeededRng(seed).substream(name) if name else SeededRng(seed)
        gen = unbuffered(seed, name)
        for _ in range(80):
            op = plan.choice(sorted(DRAW_ARGS))
            # long runs of doubles, and short runs of every kind in between
            long_runs = op in ("random", "uniform")
            run = (plan.choice([1, 2, 3, 5, 63, 64, 65, 80, 81, 1023, 2500, 6000]) if long_runs
                   else plan.randint(1, 4))
            for _ in range(run):
                assert getattr(rng, op)(*DRAW_ARGS[op]) == reference_draw(gen, op, DRAW_ARGS[op])

    @pytest.mark.parametrize("doubles", [1, 2, 3, 4, 65, 1000])
    def test_pick_then_doubles_then_pick(self, doubles):
        # pick uses half of a 64-bit output; doubles drawn in between, one
        # at a time or as a block, must leave the other half for the next pick
        rng, gen = SeededRng(11), unbuffered(11)
        values = tuple(range(10))
        for _ in range(5):
            assert rng.pick(values) == reference_draw(gen, "pick", (values,))
            for _ in range(doubles):
                assert rng.random() == float(gen.random())
            assert rng.pick(values) == reference_draw(gen, "pick", (values,))
            assert rng.random(doubles).tolist() == gen.random(doubles).tolist()
            assert rng.pick(values) == reference_draw(gen, "pick", (values,))

    def test_block_draws_continue_the_stream(self):
        rng, gen = SeededRng(5).substream("resources"), unbuffered(5, "resources")
        for n in (3, 1024, 0, 1):
            assert [rng.random() for _ in range(n)] == [float(gen.random()) for _ in range(n)]
            assert rng.random(n).tolist() == gen.random(n).tolist()
            assert rng.uniform(1, 2) == float(gen.uniform(1, 2))

    @pytest.mark.parametrize("a, b", shipped_uniform_params())
    def test_uniform_of_every_shipped_fixture_pair(self, a, b):
        rng, gen = SeededRng(29), unbuffered(29)
        for _ in range(3000):
            assert rng.uniform(a, b) == float(gen.uniform(a, b))

    @pytest.mark.parametrize("a, b, error", [
        (0.0, math.inf, OverflowError),
        (-math.inf, 0.0, OverflowError),
        (math.nan, 1.0, OverflowError),
        (-1.7e308, 1.7e308, OverflowError),  # finite bounds, overflowing range
        (5.0, 1.0, ValueError),
    ])
    def test_bad_range_raises_like_numpy(self, a, b, error):
        with pytest.raises(error):
            unbuffered(1).uniform(a, b)
        rng = SeededRng(1)
        rng.random()
        with pytest.raises(error):
            rng.uniform(a, b)
        assert rng.random() == float(unbuffered(1).random(2)[1])  # nothing was drawn


class TestDistributions:
    def test_constant(self):
        assert constant(4770).sample(SeededRng(0)) == 4770

    def test_uniform_degenerate(self):
        assert uniform(5, 5).sample(SeededRng(0)) == 5

    def test_uniform_bounds_checked(self):
        with pytest.raises(InvalidDistribution):
            uniform(10, 2)

    def test_normal_sigma_checked(self):
        with pytest.raises(InvalidDistribution):
            normal(0, -1)

    def test_normal_mean_matches_statistics_oracle(self):
        # law of large numbers: sample mean within 3 sigma/sqrt(n)
        rng = SeededRng(42)
        dist = normal(1000, 100)
        draws = np.array([dist.sample(rng) for _ in range(10**5)])
        assert abs(float(np.mean(draws)) - 1000) <= 3 * 100 / np.sqrt(10**5)

    def test_normal_clamped_at_zero(self):
        rng = SeededRng(3)
        dist = normal(0, 1)
        assert all(dist.sample(rng) >= 0 for _ in range(1000))

    def test_empirical_returns_members(self):
        values = [3.0, 7.0, 11.0]
        rng = SeededRng(8)
        dist = empirical(values)
        assert all(dist.sample(rng) in values for _ in range(50))

    def test_empirical_rejects_empty(self):
        with pytest.raises(InvalidDistribution):
            empirical([])

    def test_sample_int_rounds_half_even(self):
        values = [0.5, 1.5, 2.5, -3.0, 7.499999999999999, 1e12 + 0.5]
        assert to_ms(np.array(values)).tolist() == [0, 2, 2, 0, 7, 10 ** 12]

    def test_array_beyond_int64_is_rejected(self):
        largest = 2.0 ** 63 - 1024  # the largest double below 2**63
        assert to_ms(np.array([largest, 1.0])).tolist() == [2 ** 63 - 1024, 1]
        assert to_ms(np.array([])).tolist() == []
        for value in (2.0 ** 63, 1.0e19, 1.7e308):
            with pytest.raises(SimulationError, match="int64"):
                to_ms(np.array([1.0, value]))

    @pytest.mark.parametrize("kinds", [("constant", "uniform"), ("uniform", "uniform", "constant"),
                                       ("normal", "uniform"), ("uniform", "empirical", "constant")])
    @pytest.mark.parametrize("n", [0, 1, 5, 1025])
    def test_sample_rows_equal_single_samples(self, kinds, n):
        examples = {"constant": constant(7.5), "uniform": uniform(-4, 90.25),
                    "normal": normal(10, 30), "empirical": empirical([1, 2.5, 40])}
        dists = [examples[k] for k in kinds]
        block_rng, single_rng = SeededRng(3).substream("workload"), SeededRng(3).substream("workload")
        rows = sample_rows(block_rng, dists, n)
        assert rows.shape == (n, len(dists))
        assert rows.tolist() == [[float(d.sample(single_rng)) for d in dists] for _ in range(n)]
        assert block_rng.random() == single_rng.random()


class TestEventLoop:
    def test_replay_never_decreases(self):
        # a chain of events, each scheduling the next, runs at the scheduled times
        rng = SeededRng(17)
        clock = Clock()
        loop = EventLoop(clock)
        times = [0]
        for _ in range(200):
            times.append(times[-1] + int(rng.uniform(0, 20)))
        seen = []

        def event(k):
            seen.append(clock.now)
            if k + 1 < len(times):
                loop.schedule(times[k + 1], lambda: event(k + 1))

        loop.schedule(times[0], lambda: event(0))
        assert loop.run() == times[-1]
        assert seen == times

    def test_second_pending_event_rejected(self):
        loop = EventLoop(Clock())
        loop.schedule(10, lambda: None)
        with pytest.raises(SimulationError, match="still pending"):
            loop.schedule(20, lambda: None)

    def test_past_scheduling_rejected(self):
        clock = Clock()
        clock.advance(100)
        loop = EventLoop(clock)
        with pytest.raises(TimeRegression):
            loop.schedule(50, lambda: None)

    def test_schedule_is_checked_against_the_running_event_not_the_clock(self):
        class LateClock:  # a wall clock that reads later than the event it runs
            now = 0

            def advance(self, at_ms):
                self.now = at_ms + 500

        loop = EventLoop(LateClock())
        seen = []

        def at_100():
            with pytest.raises(TimeRegression):
                loop.schedule(99, lambda: None)
            loop.schedule(150, lambda: seen.append(150))  # before the clock's 600, after 100

        loop.schedule(100, at_100)
        loop.run()
        assert seen == [150]
