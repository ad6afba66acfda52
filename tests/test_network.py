"""Link model: flight time formula, FIFO, drops, byte conservation."""

import numpy as np
import pytest

from edgebench.core import SeededRng, constant, uniform
from edgebench.network import ByteLedger, Link, LinkModel, ledger_report


def make_link(model, seed=0):
    return Link(model, ByteLedger(), SeededRng(seed).substream("link"))


def deliver(link, payloads, send_times, source="d"):
    """Send a block of messages; returns each one's arrival, None for a dropped one."""
    kept, arrival = link.deliver(source, np.array(payloads), np.array(send_times))
    arrivals = iter(arrival.tolist())
    return [next(arrivals) if k else None for k in kept.tolist()]


class TestDeliver:
    def test_unlimited_bandwidth_is_propagation_only(self):
        link = make_link(LinkModel(propagation_ms=constant(10)))
        assert deliver(link, [5000], [100])[0] == 110

    def test_exact_division(self):
        model = LinkModel(bandwidth_bytes_per_s=10**6)
        link = make_link(model)
        # 1000 bytes at 1e6 B/s is exactly 1 ms on the wire
        assert deliver(link, [1000], [0])[0] == 1

    def test_serialization_ceiling(self):
        model = LinkModel(bandwidth_bytes_per_s=10**6)
        assert model.serialization_ms(1001) == 2
        assert model.serialization_ms(999) == 1
        assert model.serialization_ms(0) == 0

    def test_flight_doubles_with_size(self):
        # closed-form check: with zero propagation and bounded bandwidth,
        # flight(2s) = 2 * flight(s) whenever the division is exact
        model = LinkModel(bandwidth_bytes_per_s=1000)
        link = make_link(model)
        s = 1500
        f1 = deliver(link, [s], [0])[0]
        link2 = make_link(model)
        f2 = deliver(link2, [2 * s], [0])[0]
        assert f2 == 2 * f1

    def test_flight_monotone_in_size_and_propagation(self):
        slow = LinkModel(propagation_ms=constant(5), bandwidth_bytes_per_s=1000)
        fast_prop = LinkModel(propagation_ms=constant(50), bandwidth_bytes_per_s=1000)
        base = deliver(make_link(slow), [100], [0])[0]
        bigger = deliver(make_link(slow), [200], [0])[0]
        slower = deliver(make_link(fast_prop), [100], [0])[0]
        assert bigger >= base
        assert slower >= base

    def test_overhead_bytes_count_toward_flight(self):
        with_ovh = LinkModel(bandwidth_bytes_per_s=1000, per_message_overhead_bytes=500)
        without = LinkModel(bandwidth_bytes_per_s=1000)
        assert deliver(make_link(with_ovh), [100], [0])[0] == 600
        assert deliver(make_link(without), [100], [0])[0] == 100

    def test_fifo_no_overtake_per_source(self):
        # random propagation cannot let a later message arrive earlier
        model = LinkModel(propagation_ms=uniform(0, 200))
        link = make_link(model, seed=11)
        arrivals = deliver(link, [100] * 200, [k * 10 for k in range(200)])
        arrivals += deliver(link, [100] * 50, [2000 + k for k in range(50)])  # FIFO across blocks too
        assert arrivals == sorted(arrivals)

    def test_block_equals_one_message_at_a_time(self):
        # drops draw first, then propagation for a delivered message; FIFO is a running maximum
        model = LinkModel(propagation_ms=uniform(0, 300), bandwidth_bytes_per_s=5000,
                          drop_probability=0.3)
        sends = [k * 7 for k in range(300)]
        block = deliver(make_link(model, seed=4), [50 + k for k in range(300)], sends)
        link = make_link(model, seed=4)
        single = [deliver(link, [50 + k], [t])[0] for k, t in enumerate(sends)]
        assert block == single
        assert 0 < block.count(None) < 300

    def test_constant_propagation_drops_draw_as_one_message_at_a_time(self):
        # constant propagation draws nothing, so the block's drops are one random(n) of the stream
        model = LinkModel(propagation_ms=constant(40), bandwidth_bytes_per_s=5000, drop_probability=0.3)
        sends = [k * 7 for k in range(300)]
        block_rng, single_rng = (SeededRng(4).substream("link") for _ in range(2))
        block = deliver(Link(model, ByteLedger(), block_rng), [50 + k for k in range(300)], sends)
        link = Link(model, ByteLedger(), single_rng)
        single = [deliver(link, [50 + k], [t])[0] for k, t in enumerate(sends)]
        assert block == single
        assert 0 < block.count(None) < 300
        assert block_rng.random() == single_rng.random()

    def test_drop_probability_zero_delivers_all(self):
        link = make_link(LinkModel(drop_probability=0.0))
        results = deliver(link, [10] * 100, list(range(100)))
        assert None not in results

    def test_drops_skip_ledger(self):
        link = make_link(LinkModel(drop_probability=1.0))
        assert deliver(link, [10, 10], [0, 5]) == [None, None]
        assert ledger_report(link.ledger)["total"]["transmitted_bytes"] == 0


class TestLedger:
    def test_empty_report(self):
        report = ledger_report(ByteLedger())
        assert report["total"] == {
            "payload_bytes": 0,
            "overhead_bytes": 0,
            "transmitted_bytes": 0,
        }

    def test_conservation(self):
        model = LinkModel(per_message_overhead_bytes=2242)
        link = make_link(model)
        deliver(link, [162] * 104, list(range(104)), "edge")
        expected = 104 * (162 + 2242)
        report = ledger_report(link.ledger)
        assert report["total"]["transmitted_bytes"] == expected
        assert report["total"]["payload_bytes"] + report["total"]["overhead_bytes"] == expected

    def test_audio_edge_scenario_totals(self):
        # 104 messages of 162 B with ~2.3 KB framing each lands at ~0.25 MB
        model = LinkModel(per_message_overhead_bytes=2242)
        link = make_link(model)
        deliver(link, [162] * 104, list(range(104)), "edge")
        total = ledger_report(link.ledger)["total"]["transmitted_bytes"]
        assert total == 250016
        assert abs(total - 0.25e6) < 0.005e6

    def test_per_source_split(self):
        link = make_link(LinkModel(per_message_overhead_bytes=10))
        deliver(link, [100], [0], "a")
        deliver(link, [200], [0], "b")
        report = ledger_report(link.ledger)
        assert report["sources"]["a"]["transmitted_bytes"] == 110
        assert report["sources"]["b"]["transmitted_bytes"] == 210


class TestValidation:
    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            LinkModel(bandwidth_bytes_per_s=0)

    def test_bad_drop_probability(self):
        with pytest.raises(ValueError):
            LinkModel(drop_probability=1.5)

    def test_bad_overhead(self):
        with pytest.raises(ValueError):
            LinkModel(per_message_overhead_bytes=-1)
