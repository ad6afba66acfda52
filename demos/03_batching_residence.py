"""How hub batching shapes residence time.

A batched hub accumulates messages over a time window and writes one
blob per batch, after an extra hold-back delay. With arrivals spread
uniformly over the window, the mean wait for the flush boundary is half
the window, so mean residence converges to window/2 + holdback.
"""

from dataclasses import replace

from edgebench import constant, load_fixture, run_scenario

base = load_fixture("scenarios/batch-window-60")

print("mean hub residence vs. window size (holdback fixed at 60 s):")
print(f"  {'window (s)':>10} {'observed (s)':>13} {'window/2 + holdback':>20}")
for window_s in (60, 90, 120):
    config = replace(base, hub=replace(base.hub, window_s=window_s))
    result = run_scenario(config)
    mean = result.report.aggregates["residence_ms"]["mean"] / 1000
    predicted = window_s / 2 + config.hub.holdback_s
    print(f"  {window_s:>10} {mean:>13.2f} {predicted:>20.1f}")

print("\nthe hold-back is a calibration knob: the platform's observed extra")
print("delay between flush and blob creation does not track the window size.")

# chunk-size trigger: a batch also flushes early once it accumulates
# enough bytes, without shifting the window phase for later messages
config = replace(base, workload=replace(base.workload, items=2000, result_payload_bytes=constant(20_000)),
                 hub=replace(base.hub, chunk_bytes=10_000_000, platform_faithful=True))
result = run_scenario(config)
blobs = result.store.list_blobs()
sizes = [b.size_bytes for b in blobs]
print(f"\nwith 20 KB payloads and a 10 MB chunk trigger: {len(blobs)} blobs,")
print(f"largest {max(sizes) / 1e6:.2f} MB, mean residence "
      f"{result.report.aggregates['residence_ms']['mean'] / 1000:.1f} s")
