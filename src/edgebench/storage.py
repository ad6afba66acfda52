"""Blob-store sink; blob creation timestamps are the pipeline's T3 source."""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import UNSET, RunTable


@dataclass
class BlobRecord:
    name: str
    created_at: int
    message_ids: list[int]
    size_bytes: int


class BlobStore:
    """In-memory blob table with an optional on-disk JSON mirror.

    Creating a blob stamps T3 and the blob's index into the run table for
    each message it holds. The store itself keeps one row per blob:
    creation time, size, first message id and message count. Blob names
    follow ``<route>/<flush-ordinal>-<first-message-id>.json`` so
    listings are deterministic and sortable.

    With ``persist_dir`` set, ``bodies`` holds the text of each message
    until its blob is mirrored to disk.
    """

    def __init__(self, table: RunTable, route: str = "results", envelope_bytes: int = 0,
                 persist_dir: str | Path | None = None):
        self.table = table
        self.route = route
        self.envelope_bytes = envelope_bytes
        self.persist_dir = Path(persist_dir) if persist_dir else None
        self.bodies: dict[int, str] = {}
        self._created_at = array("q")
        self._size = array("q")
        self._first_id = array("q")
        self._count = array("q")
        self._listing: list[BlobRecord] | None = None

    def _name(self, index: int) -> str:
        return f"{self.route}/{index:06d}-{self._first_id[index]}.json"

    def create_blob(self, ids, created_at: int) -> None:
        """Write the messages ``ids``, in that order, as the next blob."""
        table, index = self.table, len(self._count)
        payload, t3, blob = table.payload, table.t3, table.blob
        size = self.envelope_bytes
        for mid in ids:
            size += payload[mid]
            t3[mid] = created_at
            blob[mid] = index
        self._created_at.append(created_at)
        self._size.append(size)
        self._first_id.append(ids[0] if ids else 0)
        self._count.append(len(ids))
        self._listing = None
        if self.persist_dir is not None:
            self._mirror(index, ids, created_at)

    def _mirror(self, index: int, ids, created_at: int) -> None:
        name = self._name(index)
        path = self.persist_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        t1, t2 = self.table.t1, self.table.t2
        doc = {
            "name": name,
            "created_at": created_at,
            "messages": [
                {"id": mid, "t1": t1[mid], "t2": t2[mid], "body": self.bodies.pop(mid)}
                for mid in ids
            ],
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def list_blobs(self, prefix: str = "") -> list[BlobRecord]:
        """Blobs with names under ``prefix``, ordered by (created_at, name).

        A blob's ``message_ids`` are in id order. The records are built
        once and returned again until the next blob is created.
        """
        if self._listing is None:
            self._listing = sorted(self._records(), key=lambda r: (r.created_at, r.name))
        return [r for r in self._listing if r.name.startswith(prefix)]

    def _records(self) -> list[BlobRecord]:
        blob = self.table.column("blob")
        stored = np.flatnonzero(blob != UNSET)
        by_blob = stored[np.argsort(blob[stored], kind="stable")]
        groups = np.split(by_blob, np.cumsum(self._count)[:-1]) if len(self) else []
        return [BlobRecord(self._name(i), self._created_at[i], ids.tolist(), self._size[i])
                for i, ids in enumerate(groups)]

    def __len__(self) -> int:
        return len(self._count)
