"""Differential corpus: generated configs, byte for byte.

About two hundred valid configs come from a seeded ``random.Random``.
Together they cover immediate, window, chunk and window+chunk hubs,
link drops, positive and negative clock skew, every distribution kind,
scalar readings, cloud runs, and item counts on either side of a block
boundary. Each config's ``metrics.csv``, ``report.json`` and blob
listing are pinned by sha256 in ``differential_digests.json``. A change
that is not meant to alter any output must leave every digest unchanged.

To re-pin after a change that alters outputs on purpose:

    PYTHONPATH=src python tests/test_differential.py --pin
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from edgebench import metrics, runner
from edgebench.config import ScenarioConfig
from edgebench.runner import run_scenario, write_artifacts

CASES = 200
ITEMS = (1, 1023, 1024, 1025, 2049)
PINS = Path(__file__).with_name("differential_digests.json")


def _dist(r: random.Random, lo: float, hi: float, kinds=("constant", "uniform", "normal", "empirical")):
    kind = r.choice(kinds)
    if kind == "constant":
        return {"constant": r.choice([0, r.randint(int(lo), int(hi)), round(r.uniform(lo, hi), 3)])}
    if kind == "uniform":
        a = round(r.uniform(lo, hi), 3)
        return {"uniform": [a, round(a + r.uniform(0, hi - lo), 3)]}
    if kind == "normal":
        return {"normal": [round(r.uniform(lo, hi), 2), round(r.uniform(0, (hi - lo) / 2), 2)]}
    return {"empirical": [r.choice([r.randint(int(lo), int(hi)), round(r.uniform(lo, hi), 2)])
                          for _ in range(r.randint(1, 5))]}


def _hub(r: random.Random) -> dict:
    shape = r.choice(["immediate", "window", "chunk", "window+chunk"])
    if shape == "immediate":
        return {"mode": "immediate", "write_latency_ms": _dist(r, 0, 800)}
    hub = {"mode": "batched", "holdback_s": r.choice([0, 0.05, 1.5, 60])}
    if "window" in shape:
        hub["window_s"] = r.choice([0.05, 0.25, 1, 7.5, 60])
    if "chunk" in shape:
        hub["chunk_bytes"] = r.choice([1, 400, 2500, 20_000, 300_000])
    return hub


def make_config(case: int) -> dict:
    """The config document of corpus case ``case``."""
    r = random.Random(case)
    pipeline = "cloud" if case % 4 == 3 else "edge"
    kind = r.choice(["custom", "image", "audio"] if pipeline == "cloud" else ["custom", "scalar", "image"])
    workload = {
        "kind": kind,
        "items": ITEMS[case % len(ITEMS)],
        "input_bytes_per_item": _dist(r, 0, 200_000),
        "compute_ms": _dist(r, 0, 300),
        "result_payload_bytes": _dist(r, 0, 5000),
        "inter_item_gap_ms": _dist(r, 0, 1500),
        "warmup_delay_s": r.choice([0, 0.5, 60]),
    }
    if kind == "scalar":
        workload["scalar_freq_hz"] = r.choice([0.5, 1, 3, 12])
        workload["scalar_interval_s"] = r.choice([0.25, 1, 2.5])
    link = {
        "propagation_ms": _dist(r, 0, 120),
        "bandwidth_bytes_per_s": r.choice([None, 125_000, 1_250_000, 10_000_000]),
        "per_message_overhead_bytes": r.choice([0, 40, 1416]),
    }
    doc = {
        "pipeline": pipeline,
        "platform_profile": "differential",
        "label": f"case-{case:03d}",
        "seed": r.randint(0, 2**40) * r.choice([1, -1]),
        "workload": workload,
        "link": link,
        "clock": {"skew_edge_ms": r.choice([0, 0, 37, -250])},
        "storage": {"blob_envelope_bytes": r.choice([0, 120])},
    }
    if r.random() < 0.5:
        doc["resources"] = {"cpu_pct": _dist(r, 0, 90), "ram_mb": _dist(r, 10, 200),
                            "platform_ram_delta_mb": r.choice([0.0, 12.5]), "cores": r.choice([1, 4])}
    if pipeline == "edge":
        if workload["items"] > 1:  # a run must deliver at least one message
            link["drop_probability"] = r.choice([0.0, 0.0, 0.01, 0.3, 0.97])
        doc["hub"] = _hub(r)
    else:
        doc["cloud_function"] = {
            "trigger_overhead_ms": _dist(r, 0, 400),
            "exec_ms": _dist(r, 0, 3000),
            "inter_upload_gap_s": _dist(r, 0, 5),
            "result_write_ms": _dist(r, 0, 50),
        }
    return doc


def blob_listing(store) -> bytes:
    """Each blob's name, creation time, size and message ids, one line per blob in listing order."""
    return b"".join(f"{b.name} {b.created_at} {b.size_bytes} {b.message_ids}\n".encode()
                    for b in store.list_blobs())


def digests(case: int, out_dir: Path) -> list[str]:
    result = run_scenario(ScenarioConfig.from_dict(make_config(case)))
    paths = write_artifacts(result, out_dir, charts=False)
    return [hashlib.sha256(data).hexdigest() for data in
            (paths["csv"].read_bytes(), paths["json"].read_bytes(), blob_listing(result.store))]


def _pinned() -> dict:
    return json.loads(PINS.read_text())


def test_corpus_covers_its_axes():
    docs = [make_config(case) for case in range(CASES)]
    hubs = {("window" if "window_s" in d["hub"] else "") + ("chunk" if "chunk_bytes" in d["hub"] else "")
            or d["hub"]["mode"] for d in docs if d["pipeline"] == "edge"}
    assert hubs == {"immediate", "window", "chunk", "windowchunk"}
    assert {d["workload"]["items"] for d in docs} == set(ITEMS)
    assert {d["pipeline"] for d in docs} == {"edge", "cloud"}
    assert any(d["workload"]["kind"] == "scalar" for d in docs)
    assert any(0 < d["link"].get("drop_probability", 0) < 1 for d in docs)
    assert {0, 37, -250} <= {d["clock"]["skew_edge_ms"] for d in docs}
    kinds = {next(iter(v)) for d in docs for section in ("workload", "link") for v in d[section].values()
             if isinstance(v, dict)}
    assert kinds == {"constant", "uniform", "normal", "empirical"}
    assert sorted(_pinned()) == [f"case-{case:03d}" for case in range(CASES)]


@pytest.mark.parametrize("chunk", range(4))
def test_corpus_digests(chunk, tmp_path):
    pinned = _pinned()
    wrong = [case for case in range(chunk, CASES, 4)
             if digests(case, tmp_path / str(case)) != pinned[f"case-{case:03d}"]]
    assert wrong == [], f"cases whose csv, report or blob listing changed: {wrong}"


# window, chunk, window+chunk and immediate hubs with and without drops, skew both ways,
# scalar readings, normal kinds and cloud runs, all just around one 1024-id block
BLOCK_CASES = (1, 8, 13, 18, 46, 57, 67, 111, 153)


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_digests_do_not_depend_on_block_size(block, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "BLOCK", block)
    pinned = _pinned()
    wrong = [case for case in BLOCK_CASES if digests(case, tmp_path / str(case)) != pinned[f"case-{case:03d}"]]
    assert wrong == [], f"cases whose outputs changed with {block}-id blocks: {wrong}"


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_csv_does_not_depend_on_chunk_size(chunk, tmp_path, monkeypatch):
    # each chunk sizes its own fields, so a boundary bug would show here
    monkeypatch.setattr(metrics, "CSV_CHUNK", chunk)
    pinned = _pinned()
    wrong = [case for case in BLOCK_CASES if digests(case, tmp_path / str(case))[0] != pinned[f"case-{case:03d}"][0]]
    assert wrong == [], f"cases whose metrics.csv changed with {chunk}-row chunks: {wrong}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {f"case-{case:03d}": digests(case, Path(tmp) / str(case)) for case in range(CASES)}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
