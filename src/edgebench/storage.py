"""Blob-store sink; blob creation timestamps are the pipeline's T3 source."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .core import Message, SimulationError


class DuplicateBlobName(SimulationError):
    pass


@dataclass
class BlobRecord:
    name: str
    created_at: int
    message_ids: list[int]
    size_bytes: int


class BlobStore:
    """In-memory blob store with an optional on-disk JSON mirror.

    Blob names follow ``<route>/<flush-ordinal>-<first-message-id>.json``
    so listings are deterministic and sortable.
    """

    def __init__(self, envelope_bytes: int = 0, persist_dir: str | Path | None = None):
        self.envelope_bytes = envelope_bytes
        self.persist_dir = Path(persist_dir) if persist_dir else None
        self._blobs: dict[str, BlobRecord] = {}
        self._flush_ordinal = 0

    def next_name(self, route: str, messages: list[Message]) -> str:
        first_id = messages[0].id if messages else 0
        name = f"{route}/{self._flush_ordinal:06d}-{first_id}.json"
        self._flush_ordinal += 1
        return name

    def create_blob(
        self,
        name: str,
        contents: list[Message],
        created_at: int,
        t2_by_id: dict[int, int] | None = None,
    ) -> BlobRecord:
        if name in self._blobs:
            raise DuplicateBlobName(f"blob name already used this run: {name!r}")
        size = sum(m.payload_bytes for m in contents) + self.envelope_bytes
        record = BlobRecord(
            name=name,
            created_at=created_at,
            message_ids=[m.id for m in contents],
            size_bytes=size,
        )
        self._blobs[name] = record
        if self.persist_dir is not None:
            self._mirror(record, contents, t2_by_id or {})
        return record

    def _mirror(self, record: BlobRecord, contents: list[Message], t2_by_id: dict[int, int]) -> None:
        path = self.persist_dir / record.name
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "name": record.name,
            "created_at": record.created_at,
            "messages": [
                {"id": m.id, "t1": m.t1, "t2": t2_by_id.get(m.id), "body": m.body}
                for m in contents
            ],
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def list_blobs(self, prefix: str = "") -> list[BlobRecord]:
        """Blobs with names under ``prefix``, ordered by (created_at, name)."""
        records = [r for name, r in self._blobs.items() if name.startswith(prefix)]
        records.sort(key=lambda r: (r.created_at, r.name))
        return records

    def all_message_ids(self) -> list[int]:
        ids = []
        for record in self.list_blobs():
            ids.extend(record.message_ids)
        return ids

    def __len__(self) -> int:
        return len(self._blobs)
