"""Blob-store sink; blob creation timestamps are the pipeline's T3 source."""

from __future__ import annotations

import json
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

    A blob is first scheduled, as one int64 row (creation time, id range),
    and created by :meth:`settle` once no blob scheduled later can come
    before it. Blobs are created, and numbered, in (creation time, first
    id) order: the order of their creation events, which were decided in
    message-id order (immediate and cloud blobs) or flush order (batches
    of consecutive messages).

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
        # rows (created_at, size, first id, count), one array per create_blob call: no slack
        # that grows with the run
        self._blobs: list[np.ndarray] = []
        self._created = 0
        self._listing: list[BlobRecord] | None = None
        self._pending = np.empty((0, 3), dtype=np.int64)  # rows (created_at, first, end), sorted
        self._scheduled: list[np.ndarray] = []  # rows not yet sorted into _pending
        self.latest = 0  # the latest creation time scheduled so far

    def _name(self, index: int, first_id: int) -> str:
        return f"{self.route}/{index:06d}-{first_id}.json"

    def schedule(self, created_at, first, end) -> None:
        """Schedule blobs: blob j is created at ``created_at[j]`` and holds the
        delivered messages with ids in ``[first[j], end[j])``."""
        rows = np.column_stack((created_at, first, end)).astype(np.int64, copy=False)
        self._scheduled.append(rows)
        self.latest = int(rows[:, 0].max(initial=self.latest))

    def settle(self, horizon: int | None = None) -> None:
        """Create the scheduled blobs due by ``horizon``, in (created_at, first id) order.

        The caller vouches that every blob scheduled after this call sorts
        at or after every blob this call creates, by (created_at, first
        id); None creates every scheduled blob. A blob scheduled later is
        most often due at or after ``horizon``, but need not be: a window
        batch still open at the call is due at its boundary plus the
        hold-back, which can be earlier, and it sorts after the blobs
        created now because every one of them is due no later and holds
        earlier messages.
        """
        rows = np.concatenate([self._pending, *self._scheduled])
        self._scheduled = []
        rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
        due = len(rows) if horizon is None else int(np.searchsorted(rows[:, 0], horizon, side="right"))
        self._pending = rows[due:]
        if due:
            created_at, first, end = rows[:due].T
            self.create_blob(first, end, created_at)

    def create_blob(self, first, end, created_at) -> None:
        """Create blobs, in the given order: blob j holds the delivered
        messages with ids in ``[first[j], end[j])`` and stamps their T3
        with ``created_at[j]``."""
        first, end, created_at = (np.asarray(a, dtype=np.int64) for a in (first, end, created_at))
        table, index = self.table, self._created
        span = end - first
        ids = np.arange(span.sum()) + np.repeat(first - (np.cumsum(span) - span), span)
        blob = np.repeat(np.arange(index, index + len(first)), span)
        stored = ~table.dropped[ids]
        ids, blob = ids[stored], blob[stored]
        table.t3[ids] = created_at[blob - index]
        table.blob[ids] = blob
        count = np.bincount(blob - index, minlength=len(first))
        bytes_before = np.concatenate(([0], np.cumsum(table.payload[ids])))
        ends = np.cumsum(count)
        size = self.envelope_bytes + bytes_before[ends] - bytes_before[ends - count]
        self._blobs.append(np.column_stack((created_at, size, first, count)))
        self._created += len(first)
        self._listing = None
        if self.persist_dir is not None:
            for j, blob_ids in enumerate(np.split(ids, ends[:-1])):
                self._mirror(self._name(index + j, int(first[j])), blob_ids.tolist(), int(created_at[j]))

    def _mirror(self, name: str, ids, created_at: int) -> None:
        path = self.persist_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        t1, t2 = self.table.t1, self.table.t2
        doc = {
            "name": name,
            "created_at": created_at,
            "messages": [
                {"id": mid, "t1": int(t1[mid]), "t2": int(t2[mid]), "body": self.bodies.pop(mid)}
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
        if not self._created:
            return []
        blob = self.table.column("blob")
        stored = np.flatnonzero(blob != UNSET)
        by_blob = stored[np.argsort(blob[stored], kind="stable")]
        created_at, size, first_id, count = np.concatenate(self._blobs).T.tolist()
        groups = np.split(by_blob, np.cumsum(count)[:-1])
        return [BlobRecord(self._name(i, first_id[i]), created_at[i], ids.tolist(), size[i])
                for i, ids in enumerate(groups)]

    def __len__(self) -> int:
        return self._created
