"""Virtual time and reproducibility: the foundations every run sits on.

The simulator's clock only moves when events are processed, so a run's
timeline is a pure function of its configuration and seed. This script
shows the clock, the seeded RNG with per-component substreams, and the
distribution toolkit.
"""

from edgebench import Clock, EventLoop, SeededRng, constant, normal, uniform

# --- the virtual clock only moves forward, via events -------------------

clock = Clock()
loop = EventLoop(clock)


def event(times):
    """Print the clock, then schedule the next event of the chain, as a run's block events do."""
    print(f"  event at t={clock.now} ms")
    if times:
        loop.schedule(times[0], lambda: event(times[1:]))


print("processing a chain of three events, each scheduling the next:")
loop.schedule(100, lambda: event([250, 400]))
loop.run()
print(f"clock ends at {clock.now} ms\n")

# --- one seed, independent substreams per component ----------------------

root = SeededRng(42)
workload_rng = root.substream("workload")
link_rng = root.substream("link")

print("substreams are stable: the 'link' stream draws the same values")
print("no matter how much the 'workload' stream is used first.")
print("  link draws:    ", [round(link_rng.random(), 6) for _ in range(3)])

root2 = SeededRng(42)
for _ in range(1000):
    root2.substream("workload").random()
link_rng2 = root2.substream("link")
print("  link draws (2):", [round(link_rng2.random(), 6) for _ in range(3)])
print()

# --- distributions parameterize every stochastic quantity ----------------

rng = SeededRng(7)
print("distribution samples:")
print("  constant(4770):", constant(4770).sample(rng))
print("  uniform(0, 100):", round(uniform(0, 100).sample(rng), 2))
print("  normal(1000, 100):", round(normal(1000, 100).sample(rng), 2))

draws = [normal(1000, 100).sample(rng) for _ in range(100_000)]
print(f"  normal(1000, 100) mean over 1e5 draws: {sum(draws) / len(draws):.2f}")
