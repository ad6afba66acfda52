"""Blob-store sink; blob creation timestamps are the pipeline's T3 source."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .metrics import RunTable
from .workloads import DEVICE, synthesize_body


@dataclass
class BlobRecord:
    name: str
    created_at: int
    message_ids: list[int]
    size_bytes: int


class BlobStore:
    """In-memory blob table with an optional on-disk JSON mirror.

    Creating a blob stamps T3 into the run table for each message it
    holds. A call that creates one blob per message, for every delivered
    id from its first id to its last in ascending order, is kept as that
    id range alone: each delivered id in it is a blob of its own, created
    at its T3 and sized by the envelope plus its payload, so those blobs
    cost the store nothing per message. A range joins the previous one
    when only dropped ids lie between them. Any other call keeps one row
    per blob: creation time, size, first message id and message count.
    Blobs are numbered when they are listed, in (creation time, first id)
    order, and named ``<route>/<ordinal>-<first-message-id>.json`` so
    listings are deterministic and sortable.

    With ``persist_dir`` set, the directory is made at once and
    :meth:`mirror` writes every blob to it at the end of the run.
    ``bodies`` holds the texts of the delivered messages that have one
    (scalar readings, item-hook results) until then; any other message's
    body is synthesized from its payload size.
    """

    def __init__(self, table: RunTable, route: str = "results", envelope_bytes: int = 0,
                 persist_dir: str | Path | None = None):
        self.table = table
        self.route = route
        self.envelope_bytes = envelope_bytes
        self.persist_dir = Path(persist_dir) if persist_dir else None
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
        self.bodies: dict[int, str] = {}
        # rows (created_at, size, first id, count), one array per create_blob call that keeps
        # rows: no slack that grows with the run
        self._blobs: list[np.ndarray] = []
        self._singles: list[list[int]] = []  # [a, b): each delivered id in it is a blob created at its t3
        self._end = 0  # one past the highest id a call has stamped
        self._created = 0
        self._listing: list[BlobRecord] | None = None
        self.latest = 0  # the latest creation time so far

    def _name(self, index: int, first_id: int) -> str:
        return f"{self.route}/{index:06d}-{first_id}.json"

    def create_blob(self, first, end, created_at) -> None:
        """Create blobs: blob j holds the delivered messages with ids in
        ``[first[j], end[j])`` and stamps their T3 with ``created_at[j]``."""
        first, end, created_at = (np.asarray(a, dtype=np.int64) for a in (first, end, created_at))
        if not first.size:
            return
        table = self.table
        a, b = int(first[0]), int(first[-1]) + 1
        # a range lies above every id stamped so far, so it restamps no T3 an earlier range lists
        single = (a >= self._end and np.array_equal(end, first + 1)
                  and np.array_equal(first, a + np.flatnonzero(~table.dropped[a:b])))
        self._end = max(self._end, int(end.max()))
        self._created += len(first)
        self.latest = max(self.latest, int(created_at.max()))
        self._listing = None
        if single:
            table.t3[first] = created_at
            if self._singles and table.dropped[self._singles[-1][1]:a].all():
                self._singles[-1][1] = b
            else:
                self._singles.append([a, b])
            return
        if self._singles:  # keep their rows now: this call may restamp their T3
            self._blobs.append(self._single_rows())
            self._singles = []
        span = end - first
        ids = np.arange(span.sum()) + np.repeat(first - (np.cumsum(span) - span), span)
        blob = np.repeat(np.arange(len(first)), span)
        stored = ~table.dropped[ids]
        ids, blob = ids[stored], blob[stored]
        table.t3[ids] = created_at[blob]
        count = np.bincount(blob, minlength=len(first))
        bytes_before = np.concatenate(([0], np.cumsum(table.payload[ids])))
        ends = np.cumsum(count)
        size = self.envelope_bytes + bytes_before[ends] - bytes_before[ends - count]
        self._blobs.append(np.column_stack((created_at, size, first, count)))

    def mirror(self) -> None:
        """Write each blob to ``persist_dir`` as JSON, with its messages' timestamps and bodies."""
        t1, t2, payload = self.table.t1, self.table.t2, self.table.payload
        for record in self._numbered():
            path = self.persist_dir / record.name
            path.parent.mkdir(parents=True, exist_ok=True)
            messages = []
            for mid in record.message_ids:
                body = self.bodies.pop(mid, None)
                if body is None:
                    body = synthesize_body(DEVICE, mid, int(payload[mid]))
                messages.append({"id": mid, "t1": int(t1[mid]), "t2": int(t2[mid]), "body": body})
            doc = {"name": record.name, "created_at": record.created_at, "messages": messages}
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        self.bodies.clear()  # frees the table the emptied dict still holds

    def list_blobs(self) -> list[BlobRecord]:
        """Every blob, ordered by (created_at, name).

        A blob's ``message_ids`` are in id order. The records are built
        once and returned again until the next blob is created.
        """
        if self._listing is None:
            self._listing = sorted(self._numbered(), key=lambda r: (r.created_at, r.name))
        return list(self._listing)

    def _numbered(self) -> Iterator[BlobRecord]:
        """Each blob's record, numbered in (created_at, first id) order, one at a time.

        A blob holds the consecutive delivered messages of its id range,
        so its ids are the ``count`` delivered ids from its first id on.
        """
        if not self._created:
            return
        rows = np.concatenate(self._blobs + ([self._single_rows()] if self._singles else []))
        rows = rows[np.lexsort((rows[:, 2], rows[:, 0]))]
        delivered = self.table.delivered()
        start = np.searchsorted(delivered, rows[:, 2])
        for index in range(len(rows)):
            created_at, size, first_id, count = rows[index].tolist()
            at = int(start[index])
            yield BlobRecord(self._name(index, first_id), created_at, delivered[at:at + count].tolist(), size)

    def _single_rows(self) -> np.ndarray:
        """The rows (T3, envelope + payload, id, 1) of the one-message blobs of the id ranges."""
        table = self.table
        ids = np.concatenate([a + np.flatnonzero(~table.dropped[a:b]) for a, b in self._singles])
        return np.column_stack((table.t3[ids], self.envelope_bytes + table.payload[ids], ids,
                                np.ones_like(ids)))

    def __len__(self) -> int:
        return self._created
