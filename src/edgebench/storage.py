"""Blob-store sink; blob creation timestamps are the pipeline's T3 source."""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .metrics import IncompleteRecord, RunTable
from .workloads import DEVICE, synthesize_body


@dataclass
class BlobRecord:
    name: str
    created_at: int
    message_ids: list[int]
    size_bytes: int


class BlobStore:
    """In-memory blob table with an optional on-disk JSON mirror.

    The blobs partition the delivered ids in id order: each call of
    :meth:`create_blob` goes on where the last one ended. So a blob holds
    the delivered ids from its first id to the next blob's, and the store
    keeps only which ids start a blob: ``[a, b)`` pairs in one flat int64
    ``array``, each delivered id in a pair starting one. A call of one
    blob per delivered id adds one pair, a batch ``[first, first + 1)``,
    and a pair joins the previous one when only dropped ids lie between
    them.
    A blob's creation time is the T3 of its first id, its size the
    envelope plus its messages' payloads. Blobs are numbered when listed,
    in (creation time, first id) order, and named
    ``<route>/<ordinal>-<first-message-id>.json``.

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
        self._starts = array("q")  # the [a, b) pairs, flat
        self._end = 0  # one past the latest blob's last id
        self._created = 0
        self._listing: list[BlobRecord] | None = None
        self.latest = 0  # the latest creation time so far

    def create_blob(self, first, end, created_at) -> None:
        """Create blobs: blob j holds the delivered messages with ids in
        ``[first[j], end[j])`` and stamps their T3 with ``created_at[j]``.

        A blob must start with a delivered id, with only dropped ids since
        the previous blob's end. A delivered id left out raises
        IncompleteRecord naming it; any other break raises ValueError.
        """
        first, end, created_at = (np.asarray(a, dtype=np.int64) for a in (first, end, created_at))
        if not first.size:
            return
        table = self.table
        a, b = int(first[0]), int(end[-1])
        held = self._end + np.flatnonzero(~table.dropped[self._end:b])  # the ids the call must hold
        if np.array_equal(end, first + 1) and np.array_equal(first, held):  # immediate hub, cloud
            table.t3[first] = created_at
            pairs = [a, b]
        else:
            if (a < self._end or (end <= first).any() or (first[1:] < end[:-1]).any()
                    or table.dropped[first].any()):
                raise ValueError(f"blobs must be ascending and disjoint from id {self._end} on, "
                                 "each starting with a delivered id")
            blob = np.searchsorted(first, held + 1) - 1  # the last blob starting at or before each id
            missing = held[(held < first[blob]) | (held >= end[blob])]
            if missing.size:
                raise IncompleteRecord(f"message {missing[0]}: delivered but in no blob")
            table.t3[held] = created_at[blob]
            pairs = np.column_stack((first, first + 1)).ravel().tolist()
        if self._starts and table.dropped[self._starts[-1]:a].all():
            self._starts[-1] = pairs[1]  # joins the previous pair
            del pairs[:2]
        self._starts.extend(pairs)
        self._end = b
        self._created += len(first)
        self.latest = max(self.latest, int(created_at.max()))
        self._listing = None

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
        """Every blob, in numbering order: by (created_at, first id).

        A blob's ``message_ids`` are in id order. The records are built
        once and returned again until the next blob is created.
        """
        if self._listing is None:
            self._listing = list(self._numbered())
        return list(self._listing)

    def _numbered(self) -> Iterator[BlobRecord]:
        """Each blob's record, numbered in (created_at, first id) order, one at a time."""
        table = self.table
        ids = np.flatnonzero(~table.dropped[:self._end])  # the ids the blobs hold, in id order
        starts = np.zeros(self._end, dtype=bool)
        for a, b in zip(self._starts[::2], self._starts[1::2]):
            starts[a:b] = True
        at = np.flatnonzero(starts[ids])  # where each blob's ids begin in ids
        bounds = np.append(at, ids.size)
        size = self.envelope_bytes + np.diff(np.concatenate(([0], np.cumsum(table.payload[ids])))[bounds])
        created = table.t3[ids[at]]
        order = np.argsort(created, kind="stable")  # ties stay in first-id order
        bounds, created, size = bounds.tolist(), created.tolist(), size.tolist()
        for index, j in enumerate(order.tolist()):
            lo, hi = bounds[j], bounds[j + 1]
            name = f"{self.route}/{index:06d}-{ids[lo]}.json"
            yield BlobRecord(name, created[j], ids[lo:hi].tolist(), size[j])

    def __len__(self) -> int:
        return self._created
