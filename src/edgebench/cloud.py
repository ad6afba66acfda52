"""Cloud-only pipeline model: upload raw input, trigger a function, write results.

The device uploads each raw item over the link; the upload triggers a
cloud function (lumped trigger/load overhead, then execution) whose
result blob creation stamps T3. Edge compute is zero by definition, so
end-to-end latency degenerates to T3 - T1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Distribution, SeededRng, constant
from .network import LinkModel
from .workloads import WorkloadSpec


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
    spec: WorkloadSpec,
    profile: CloudFunctionProfile,
    link: LinkModel,
    upload_start: int,
    input_bytes: int,
    rng: SeededRng,
) -> tuple[int, int]:
    """Draw one item's upload/trigger/exec/write decomposition; returns ``(t2, t3)``.

    T2 is upload completion (the trigger instant); T3 follows it by the
    trigger overhead, execution and result write.
    """
    upload = link.propagation_ms.sample_int(rng)
    upload += link.serialization_ms(input_bytes + link.per_message_overhead_bytes)
    t2 = upload_start + upload
    t3 = (t2 + profile.trigger_overhead_ms.sample_int(rng) + profile.exec_ms.sample_int(rng)
          + profile.result_write_ms.sample_int(rng))
    return t2, t3
