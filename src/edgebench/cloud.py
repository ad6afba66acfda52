"""Cloud-only pipeline model: upload raw input, trigger a function, write results.

The device uploads each raw item over the link; the upload triggers a
cloud function (lumped trigger/load overhead, then execution) whose
result blob creation stamps T3. Edge compute is zero by definition, so
end-to-end latency degenerates to T3 - T1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Distribution, SeededRng, constant, sample_rows, to_ms
from .network import LinkModel


@dataclass(frozen=True)
class CloudFunctionProfile:
    """Timing profile of the triggered cloud function.

    ``trigger_overhead_ms`` lumps runtime/library load and trigger
    latency (cold start is not separated out). ``inter_upload_gap_s``
    paces uploads so invocations never overlap or reorder.
    """

    trigger_overhead_ms: Distribution = constant(0)
    exec_ms: Distribution = constant(0)
    memory_mb: int = 128
    inter_upload_gap_s: Distribution = constant(0)
    result_write_ms: Distribution = constant(0)

    def __post_init__(self):
        if self.memory_mb <= 0:
            raise ValueError("memory_mb must be positive")


def time_cloud_item(
    profile: CloudFunctionProfile,
    link: LinkModel,
    upload_start: int,
    input_bytes: np.ndarray,
    rng: SeededRng,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Draw the upload/trigger/exec/write decomposition of a block of uploads, back to back.

    Returns ``(start, t2, t3, next_start)``: each upload's start, its
    completion (the trigger instant) and its result-write time as int64
    arrays, and the time the upload after the block starts. The first
    upload starts at ``upload_start``. Per upload the stream draws
    propagation, trigger overhead, execution, result write, then the gap
    to the next upload; the next upload starts a gap after this one's T2.
    T3 follows T2 by the trigger overhead, execution and result write.
    """
    dists = [link.propagation_ms, profile.trigger_overhead_ms, profile.exec_ms, profile.result_write_ms,
             profile.inter_upload_gap_s]
    rows = sample_rows(rng, dists, len(input_bytes))
    upload, trigger, exec_ms, write = (to_ms(rows[:, k]) for k in range(4))
    upload += link.serialization_ms(input_bytes + link.per_message_overhead_bytes)
    gaps = to_ms(rows[:, 4] * 1000)
    steps = upload + gaps
    t2 = upload_start + np.cumsum(steps) - gaps
    return t2 - upload, t2, t2 + trigger + exec_ms + write, int(t2[-1] + gaps[-1])
