"""EventTable: the events as numpy columns, the one input of the analyze stages.

`ingest.read_event_csv` fills a table from the event CSV, and
`EventTable.from_events` and `to_events` convert MessageEvent lists.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import count

import numpy as np

from .ingest import MessageEvent

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def stamp_us(stamp: datetime) -> int:
    """Epoch microseconds of an aware datetime, exactly."""
    return (stamp - _EPOCH) // _MICROSECOND


def stamp_datetime(us: int) -> datetime:
    """The UTC datetime of `us` epoch microseconds."""
    return _EPOCH + timedelta(microseconds=int(us))


def concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The positions of the ranges [starts[i], stops[i]), one range after another."""
    counts = stops - starts
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def _gather(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, entry positions) of the CSR rows `rows`, in the order given."""
    starts, stops = indptr[rows], indptr[rows + 1]
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(stops - starts, out=out[1:])
    return out, concat_ranges(starts, stops)


@dataclass(slots=True, eq=False)
class EventTable:
    """Events as columns, one row per message, in the order read.

    Actor ids index `actors` and word ids index `words`.  Both lists
    are sorted, so ordering ids orders the strings.  The recipients of
    row i are the entries recipient_indptr[i]:recipient_indptr[i + 1] of
    the recipient columns, duplicates kept, and its tokens likewise in
    `token_ids`.
    """

    stamp_us: np.ndarray           # int64 epoch microseconds
    sender: np.ndarray             # int32 actor id
    recipient_indptr: np.ndarray   # int64, one more than the rows
    recipient_ids: np.ndarray      # int32 actor ids
    recipient_weights: np.ndarray  # float64
    token_indptr: np.ndarray       # int64, one more than the rows
    token_ids: np.ndarray          # int32 word ids
    actors: list[str]
    words: list[str]
    message_id: list[str]
    in_reply_to: list[str | None]
    subject_key: list[str]

    def __len__(self) -> int:
        return len(self.stamp_us)

    @classmethod
    def from_events(cls, events) -> EventTable:
        table = _TableBuilder()
        for event in events:
            table.add(event)
        return table.finish()

    def to_events(self) -> list[MessageEvent]:
        actors, words = self.actors, self.words
        rec_ptr, rec_ids = self.recipient_indptr.tolist(), self.recipient_ids.tolist()
        weights = self.recipient_weights.tolist()
        tok_ptr, tok_ids = self.token_indptr.tolist(), self.token_ids.tolist()
        events = []
        for i, (us, sender) in enumerate(zip(self.stamp_us.tolist(), self.sender.tolist())):
            lo, hi = rec_ptr[i], rec_ptr[i + 1]
            events.append(MessageEvent(
                message_id=self.message_id[i],
                timestamp=stamp_datetime(us),
                sender=actors[sender],
                recipients=[(actors[a], w) for a, w in zip(rec_ids[lo:hi], weights[lo:hi])],
                in_reply_to=self.in_reply_to[i],
                subject_key=self.subject_key[i],
                tokens=[words[t] for t in tok_ids[tok_ptr[i]:tok_ptr[i + 1]]],
            ))
        return events

    def take(self, rows: slice | np.ndarray) -> EventTable:
        """The given rows, in the order given: a slice (a view) or row indices."""
        if isinstance(rows, slice):
            lo, hi, _ = rows.indices(len(self))
            rows = slice(lo, max(lo, hi))
            rec = self.recipient_indptr[lo:rows.stop + 1]
            tok = self.token_indptr[lo:rows.stop + 1]
            rec_ptr, rec_pick = rec - rec[0], slice(rec[0], rec[-1])
            tok_ptr, tok_pick = tok - tok[0], slice(tok[0], tok[-1])
            message_id = self.message_id[rows]
            in_reply_to = self.in_reply_to[rows]
            subject_key = self.subject_key[rows]
        else:
            rows = np.asarray(rows, dtype=np.intp)
            rec_ptr, rec_pick = _gather(self.recipient_indptr, rows)
            tok_ptr, tok_pick = _gather(self.token_indptr, rows)
            pick = rows.tolist()
            message_id = [self.message_id[i] for i in pick]
            in_reply_to = [self.in_reply_to[i] for i in pick]
            subject_key = [self.subject_key[i] for i in pick]
        return EventTable(
            self.stamp_us[rows], self.sender[rows],
            rec_ptr, self.recipient_ids[rec_pick], self.recipient_weights[rec_pick],
            tok_ptr, self.token_ids[tok_pick],
            self.actors, self.words, message_id, in_reply_to, subject_key,
        )

    def time_sorted(self) -> EventTable:
        """The rows in time order, ties in row order; the table itself if sorted."""
        if np.all(self.stamp_us[1:] >= self.stamp_us[:-1]):
            return self
        return self.take(np.argsort(self.stamp_us, kind="stable"))

    def recipient_senders(self) -> np.ndarray:
        """The sender of each recipient entry."""
        return np.repeat(self.sender, np.diff(self.recipient_indptr))


class _TableBuilder:
    """The columns of an EventTable, filled one row at a time."""

    def __init__(self):
        self.stamps = array("q")
        self.senders = array("i")
        self.recipient_indptr = array("q", [0])
        self.recipient_ids = array("i")
        self.recipient_weights = array("d")
        self.token_indptr = array("q", [0])
        self.token_ids = array("i")
        self.actor_ids: dict[str, int] = {}  # in order of first sight until finish()
        self.word_ids: dict[str, int] = defaultdict(count().__next__)
        self.message_id: list[str] = []
        self.in_reply_to: list[str | None] = []
        self.subject_key: list[str] = []

    def actor(self, addr: str) -> int:
        return self.actor_ids.setdefault(addr, len(self.actor_ids))

    def add(self, event: MessageEvent) -> None:
        self.stamps.append(stamp_us(event.timestamp))
        self.senders.append(self.actor(event.sender))
        for addr, weight in event.recipients:
            self.recipient_ids.append(self.actor(addr))
            self.recipient_weights.append(weight)
        self.recipient_indptr.append(len(self.recipient_ids))
        self.token_ids.extend(map(self.word_ids.__getitem__, event.tokens))
        self.token_indptr.append(len(self.token_ids))
        self.message_id.append(event.message_id)
        self.in_reply_to.append(event.in_reply_to)
        self.subject_key.append(event.subject_key)

    def finish(self) -> EventTable:
        """The table, with actor and word ids renumbered to ranks in sorted order."""
        actors, actor_rank = _ranks(self.actor_ids)
        words, word_rank = _ranks(self.word_ids)
        return EventTable(
            stamp_us=np.frombuffer(self.stamps, dtype=np.int64),
            sender=actor_rank[np.frombuffer(self.senders, dtype=np.int32)],
            recipient_indptr=np.frombuffer(self.recipient_indptr, dtype=np.int64),
            recipient_ids=actor_rank[np.frombuffer(self.recipient_ids, dtype=np.int32)],
            recipient_weights=np.frombuffer(self.recipient_weights, dtype=np.float64),
            token_indptr=np.frombuffer(self.token_indptr, dtype=np.int64),
            token_ids=word_rank[np.frombuffer(self.token_ids, dtype=np.int32)],
            actors=actors,
            words=words,
            message_id=self.message_id,
            in_reply_to=self.in_reply_to,
            subject_key=self.subject_key,
        )


def _ranks(first_seen: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The names sorted, and the rank of each first-seen id among them."""
    names = sorted(first_seen)
    rank = dict(zip(names, range(len(names))))
    return names, np.array([rank[name] for name in first_seen], dtype=np.int32)
