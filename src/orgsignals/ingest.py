"""Parse e-mail archives into a canonical, deduplicated event stream.

Raw input is RFC 4155 mbox with RFC 5322 headers.  Each parsable message
becomes one MessageEvent: canonical lowercase sender, weighted recipients
(To=1.0, Cc=0.5 by default), UTC timestamp, reply link, and a tokenized
plain-text body with quoted reply material stripped.  Each message's
header block is split off in one pass over its header lines, by the
rules of the standard library's compat32 parser, and the text parts of
a multipart body are found by splitting it on its boundary lines, each
part's header block split off in turn.  `parse_mbox` cuts the archives
into byte ranges and converts them on a pool of worker processes, one
per usable CPU.  Each worker keeps one memo (`_Memo`) for its life: the
canonical form of each raw address, and whether each distinct
(Content-Type, Content-Disposition) pair of a text body part names a
file, and its charset, so compat32 parses those parameters once per
pair and not once per mail.  Events round-trip through a canonical CSV
so later pipeline stages never re-parse mail.

`read_event_csv` reads that CSV into an `orgsignals.table.EventTable`,
checking each row once; the first fault names its row and column.  The
table keeps no message id, reply link or subject.  Only the reader
imports numpy (through `table`), so a command that only ingests need not
load it.
"""

from __future__ import annotations

import contextlib
import csv
import email
import hashlib
import html
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from email.header import decode_header, make_header
from email.message import Message
from email.utils import getaddresses, parseaddr, parsedate_to_datetime
from io import StringIO
from pathlib import Path
from typing import TYPE_CHECKING

from . import _workers

if TYPE_CHECKING:  # the table module loads numpy, which ingesting never needs
    from .table import EventTable

EVENT_CSV_COLUMNS = [
    "message_id",
    "timestamp_iso8601_utc",
    "sender",
    "recipients",
    "in_reply_to",
    "subject_key",
    "tokens",
]

# addr-spec sanity: one "@", non-empty local and domain parts
_ADDR_RE = re.compile(r"^[^@\s]+@[^@\s]+$")
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_SUBJECT_PREFIX_RE = re.compile(r"^(?:re|fwd?|fw|aw)\s*:\s*", re.IGNORECASE)
_HTML_TAG_RE = re.compile(r"<[^>]+>")
_HTML_BREAK_RE = re.compile(r"(?i)<\s*br\s*/?\s*>|</\s*p\s*>")
# start of a quoted reply block: "On <...> wrote:" possibly wrapped, or an
# Outlook-style "-----Original Message-----" divider
_REPLY_INTRO_RE = re.compile(r"^On .*wrote:\s*$|^-{2,}\s*Original Message\s*-{2,}\s*$")
# a line that compat32's FeedParser takes into a header block (its
# `headerRE`: an mbox "From " line, a field name and ":", or a
# continuation), with the rest of the line and its line end
_HEADER_LINE_RE = re.compile(r"(?:From |[\041-\071\073-\176]*:|[\t ])[^\r\n]*(?:\r\n|\r|\n)?")


class EventSchemaError(ValueError):
    """Canonical event CSV violates the declared schema."""


class AddressError(ValueError):
    """No addr-spec could be extracted from a raw address string."""


@dataclass(slots=True)
class MessageEvent:
    """One e-mail, reduced to what the signal computations consume."""

    message_id: str
    timestamp: datetime
    sender: str
    recipients: list[tuple[str, float]]
    in_reply_to: str | None = None
    subject_key: str = ""
    tokens: list[str] = field(default_factory=list)

    def validate(self) -> None:
        """Raise ValueError if any MessageEvent invariant is violated."""
        if not self.message_id:
            raise ValueError("empty message_id")
        if self.timestamp.tzinfo is None or self.timestamp.utcoffset().total_seconds() != 0:
            raise ValueError(f"timestamp not UTC: {self.timestamp!r}")
        if not _is_canonical(self.sender):
            raise ValueError(f"non-canonical sender: {self.sender!r}")
        if not self.recipients:
            raise ValueError("empty recipient list")
        for addr, weight in self.recipients:
            if not _is_canonical(addr):
                raise ValueError(f"non-canonical recipient: {addr!r}")
            if addr == self.sender:
                raise ValueError("sender duplicated in recipients")
            if not 0.0 < weight <= 1.0:
                raise ValueError(f"recipient weight out of (0,1]: {weight}")


def _is_canonical(addr: str) -> bool:
    """Whether `addr` is a lowercase addr-spec."""
    return _ADDR_RE.match(addr) is not None and addr == addr.lower()


@dataclass(slots=True)
class IngestConfig:
    """Knobs for the mbox -> event conversion."""

    to_weight: float = 1.0
    cc_weight: float = 0.5
    broadcast_threshold: int = 100      # messages with more recipients are dropped
    date_start: datetime | None = None  # inclusive corpus bound, UTC
    date_end: datetime | None = None    # exclusive corpus bound, UTC
    aliases: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        # read_event_csv refuses a recipient weight outside (0, 1]
        for name in ("to_weight", "cc_weight"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in (0, 1]")
        if self.broadcast_threshold < 1:
            raise ValueError("broadcast_threshold must be at least 1")


@dataclass(slots=True)
class IngestReport:
    """Counts accumulated while parsing one or more archives."""

    parsed: int = 0
    skipped: int = 0
    deduped: int = 0
    broadcast_dropped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "parsed": self.parsed,
            "skipped": self.skipped,
            "deduped": self.deduped,
            "broadcast_dropped": self.broadcast_dropped,
        }


def canonicalize_actor(raw: str, aliases: dict[str, str] | None = None) -> str:
    """Reduce an RFC 5322 address to its canonical lowercase addr-spec.

    Display names are stripped, the result lowercased, and the alias map
    applied afterwards by exact match.  Raises AddressError when no
    addr-spec can be extracted.
    """
    _, addr = parseaddr(raw or "")
    addr = addr.strip().strip("<>").lower()
    if not _ADDR_RE.match(addr):
        raise AddressError(f"unparseable address: {raw!r}")
    if aliases:
        addr = aliases.get(addr, addr)
        if not _is_canonical(addr):
            raise AddressError(f"alias target is not a canonical address: {addr!r}")
    return addr


def tokenize(body: str) -> list[str]:
    """Lowercase and split a plain-text body into word tokens.

    Splits on non-alphanumeric boundaries, drops tokens shorter than two
    characters and purely numeric tokens.
    """
    if not body:
        return []
    return [
        t for t in _TOKEN_RE.findall(body.lower())
        if len(t) >= 2 and not t.isdigit()
    ]


def normalize_subject(subject: str) -> str:
    """Strip reply/forward prefixes and collapse whitespace, lowercased."""
    s = subject or ""
    prev = None
    while prev != s:
        prev = s
        s = _SUBJECT_PREFIX_RE.sub("", s.strip())
    return " ".join(s.lower().split())


def strip_quoted_reply(body: str) -> str:
    """Drop quoted reply lines and everything after a reply introduction."""
    kept = []
    for line in body.splitlines():
        if _REPLY_INTRO_RE.match(line.strip()):
            break
        if line.lstrip().startswith(">"):
            continue
        kept.append(line)
    return "\n".join(kept)


def _html_to_text(markup: str) -> str:
    text = _HTML_BREAK_RE.sub("\n", markup)
    text = _HTML_TAG_RE.sub(" ", text)
    return html.unescape(text)


def _decode_mime_header(value) -> str:
    if value is None:
        return ""
    try:
        return str(make_header(decode_header(str(value))))
    except Exception:
        return str(value)


def _names_file(part) -> bool:
    """Whether a part has a file name; one that cannot be decoded counts."""
    try:
        return bool(part.get_filename())
    except UnicodeError:  # an RFC 2231 name in a codec that refuses errors="replace"
        return True


def _extract_body(parts, memo: _Memo) -> str:
    """Best-effort plain text body of a message, given its parts in walk
    order; text/plain preferred over text/html.

    Only the first text/plain and the first text/html part without a
    file name (one that cannot be decoded counts) are decoded.  A charset
    that names no text codec, or one that cannot decode the payload with
    errors="replace" (idna, punycode), falls back to UTF-8.

    Whether such a part names a file, and its charset, come from
    `memo.text_parts`, keyed by the part's first Content-Type and
    Content-Disposition values as `Message.get` returns them: compat32
    works both facts out from those two values alone.  Each is filled
    where it is first needed, so only these text parts are ever keyed,
    and a miss costs the same `get_filename()` and, for a part with a
    payload, `get_content_charset()` call as without the memo, plus one
    dict entry.  A fault other than a UnicodeError from `get_filename()`
    propagates and caches nothing.  A value holding 8-bit bytes is a
    compat32 `Header`, which cannot be hashed, so such a part asks the
    stdlib every time.
    """
    plain, markup = None, None
    text_parts = memo.text_parts
    for part in parts:
        maintype, _, subtype = part.get_content_type().partition("/")
        if maintype != "text":
            continue
        if subtype == "plain":
            if plain is not None:
                continue
        elif subtype != "html" or markup is not None:
            continue
        key = part.get("Content-Type"), part.get("Content-Disposition")
        try:
            facts = text_parts[key]
        except KeyError:
            facts = text_parts[key] = [_names_file(part), None]
        except TypeError:  # a Header value
            facts = [_names_file(part), None]
        if facts[0]:
            continue
        payload = part.get_payload(decode=True)
        if payload is None:
            continue
        if facts[1] is None:
            facts[1] = part.get_content_charset() or "utf-8"
        charset = facts[1]
        try:
            text = payload.decode(charset, errors="replace")
        except (LookupError, UnicodeError):
            text = payload.decode("utf-8", errors="replace")
        if subtype == "plain":
            plain = text
        else:
            markup = text
    if plain is not None:
        return plain
    if markup is not None:
        return _html_to_text(markup)
    return ""


def _split_headers(text: str) -> Message:
    """A compat32 Message with the header block of `text` and the rest of
    it as its payload: what `email.parser.Parser().parsestr(text,
    headersonly=True)` builds, from one pass over the header lines.

    The rules are compat32 FeedParser's.  Lines end at "\r\n", "\r" or
    "\n".  The block ends at the first line that `_HEADER_LINE_RE` does
    not match; a blank line there is dropped, any other stays in the
    body.  A line that starts with a space or tab continues the header
    before it, and is dropped if none is open.  A "From " line is the
    unixfrom on the first line, starts the body on the last, and is
    dropped elsewhere, as is a line that starts with ":".  Defects are
    not collected: nothing in this package reads `Message.defects`.
    """
    lines = []
    pos = 0
    match = _HEADER_LINE_RE.match
    while (line := match(text, pos)) is not None:
        lines.append(line[0])
        pos = line.end()
    if text.startswith("\r\n", pos):
        pos += 2
    elif text.startswith(("\r", "\n"), pos):
        pos += 1
    msg = Message()
    source: list[str] = []  # the lines of the open header
    last = len(lines) - 1
    for i, line in enumerate(lines):
        if line[0] in " \t":
            if source:
                source.append(line)
            continue
        if source:
            msg.set_raw(*msg.policy.header_source_parse(source))
            source = []
        if line.startswith("From "):
            if i == 0:
                msg.set_unixfrom(line.rstrip("\r\n"))
            elif i == last:
                msg.set_payload(line + text[pos:])  # a blank line between is dropped
                return msg
        elif line[0] != ":":
            source = [line]
    if source:
        msg.set_raw(*msg.policy.header_source_parse(source))
    msg.set_payload(text[pos:])
    return msg


def _body_parts(msg, raw: bytes):
    """The leaves of a message's MIME tree in the order `Message.walk`
    gives them, from its header split `msg` and its bytes `raw`.

    A multipart body is split on its boundary lines (`_part_texts`) and
    each part's header block split in turn (`_split_headers`),
    recursively: the full parse would compile one boundary regex per
    multipart message.  A message with a message/* part anywhere
    (rfc822, delivery-status, or a digest part without a Content-Type)
    is parsed in full from `raw` instead.
    """
    parts: list = []
    if _add_leaves(msg, parts):
        return parts
    return email.message_from_bytes(raw).walk()


def _add_leaves(msg, parts: list, nested: bool = False) -> bool:
    """Append the leaves under `msg` to `parts`; False at a message/* part.

    The tree is compat32's: a multipart without a boundary parameter,
    or without a start boundary line, is a leaf, and so is every part
    that is not multipart.  A `nested` leaf loses one trailing line end
    from its payload, which RFC 2046 gives to the boundary that follows.
    """
    maintype, _, subtype = msg.get_content_type().partition("/")
    if maintype == "message":
        return False
    boundary = msg.get_boundary() if maintype == "multipart" else None
    texts = None if boundary is None else _part_texts(msg._payload, "--" + boundary)
    if texts is None:
        if nested and maintype != "multipart":
            payload = msg._payload
            if payload.endswith("\r\n"):
                msg.set_payload(payload[:-2])
            elif payload.endswith(("\r", "\n")):
                msg.set_payload(payload[:-1])
        parts.append(msg)
        return True
    for text in texts:
        part = _split_headers(text)
        if subtype == "digest":
            part.set_default_type("message/rfc822")
        if not _add_leaves(part, parts, nested=True):
            return False
    return True


def _part_texts(body: str, separator: str) -> list[str] | None:
    """The texts of the parts of a multipart body, or None if it has no
    start boundary line.

    Lines end at "\r\n", "\r" or "\n", as feedparser splits them.  A
    boundary line is `separator`, then "--" on a close boundary, then
    spaces or tabs (RFC 2046, section 5.1.1).  Boundary lines that
    follow a boundary line are skipped, so each part starts at the first
    other line after one and runs up to the next boundary line, a close
    boundary or the end of the body.
    """
    texts = []
    start = None  # where the current part starts; None in the preamble
    in_part = False  # a line that is not a boundary came after `start`
    offset, size = 0, len(separator)
    for line in StringIO(body, newline="").readlines():
        if line.startswith(separator):
            rest = line[size:]
            close = rest.startswith("--")
            if close:
                rest = rest[2:]
            if not rest.rstrip("\r\n").strip(" \t"):
                if start is None:
                    if close:
                        return None  # a close boundary before any start boundary
                elif in_part:
                    texts.append(body[start:offset])
                    if close:
                        return texts
                offset += len(line)
                start, in_part = offset, False
                continue
        in_part = True
        offset += len(line)
    if start is None:
        return None
    texts.append(body[start:offset])
    return texts


def _parse_date(value: str) -> datetime | None:
    try:
        stamp = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if stamp is None:
        return None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)  # missing zone treated as UTC
    return stamp.astimezone(timezone.utc).replace(microsecond=0)


class _Memo:
    """What parsing remembers from one message to the next.

    `addresses` gives the canonical address of every address in a header
    value, None where unusable, and works it out once per distinct value
    (`by_value`).  Beneath it `by_raw` keeps each raw address's canonical
    form, so `canonicalize_actor` runs once per raw address for the
    memo's life: one parse_mbox call, or one pool worker process.
    `words` holds one string per distinct token, which every event's
    token list shares.

    `text_parts` maps a body part's (Content-Type, Content-Disposition)
    values, as `Message.get` returns them (None where absent), to
    [names a file, charset or None until first needed], for the
    text/plain and text/html parts that `_extract_body` asks (see
    there).  It pays because mail repeats a few body part headers:
    `perfbench/mailgen.py` repeats 4 pairs across the 12,994 leaves of
    a 10,000-mail archive, and real clients write a few Content-Type
    values for their bodies.  Attachments carry distinct names, but a
    text/plain or text/html one enters only when no text part of its
    subtype without a file name came before it, and other ones never.
    """

    def __init__(self, aliases: dict[str, str]):
        self.aliases = aliases
        self.by_value: dict[str, tuple[str | None, ...]] = {}
        self.by_raw: dict[str, str | None] = {}
        self.words: dict[str, str] = {}
        self.text_parts: dict[tuple[str | None, str | None], list] = {}

    def addresses(self, value: str) -> tuple[str | None, ...]:
        found = self.by_value.get(value)
        if found is None:
            found = tuple(self._canonical(raw) for _, raw in getaddresses([value]))
            self.by_value[value] = found
        return found

    def _canonical(self, raw: str) -> str | None:
        if raw not in self.by_raw:
            try:
                self.by_raw[raw] = canonicalize_actor(raw, self.aliases)
            except AddressError:
                self.by_raw[raw] = None
        return self.by_raw[raw]


def _message_to_event(
    msg, raw: bytes, config: IngestConfig, memo: _Memo
) -> MessageEvent | None:
    """Convert one mail message, its header block split into `msg` from
    its bytes `raw`; None means skip (caller counts it).

    Address headers are split as they stand: the addr-spec never needs
    RFC 2047 decoding, and decoding first would let an encoded display
    name holding "," or "<...>" read as extra addresses.  Several headers
    of one name are joined with ", ", as `getaddresses` joins them.
    """
    date_header = msg.get("Date")
    timestamp = _parse_date(date_header) if date_header else None
    if timestamp is None:
        return None
    if config.date_start is not None and timestamp < config.date_start:
        return None
    if config.date_end is not None and timestamp >= config.date_end:
        return None

    senders = memo.addresses(str(msg.get("From") or ""))
    sender = senders[0] if senders else None
    if sender is None:
        return None

    recipients: list[tuple[str, float]] = []
    seen: set[str] = set()
    for header, weight in (("To", config.to_weight), ("Cc", config.cc_weight)):
        for addr in memo.addresses(", ".join([str(h) for h in msg.get_all(header, [])])):
            if addr is None or addr == sender or addr in seen:
                continue  # unusable addresses, self-sends and repeats dropped
            seen.add(addr)
            recipients.append((addr, weight))
    if not recipients:
        return None

    message_id = (msg.get("Message-ID") or "").strip()
    if not message_id:
        # rare in practice; synthesize a stable opaque id so dedup still works
        digest = hashlib.sha1(
            f"{sender}|{timestamp.isoformat()}|{msg.get('Subject', '')}".encode()
        ).hexdigest()
        message_id = f"<generated-{digest}@orgsignals>"

    in_reply_to = (msg.get("In-Reply-To") or "").strip() or None
    body = strip_quoted_reply(_extract_body(_body_parts(msg, raw), memo))
    return MessageEvent(
        message_id=message_id,
        timestamp=timestamp,
        sender=sender,
        recipients=recipients,
        in_reply_to=in_reply_to,
        subject_key=normalize_subject(_decode_mime_header(msg.get("Subject"))),
        tokens=[memo.words.setdefault(t, t) for t in tokenize(body)],
    )


def _mbox_messages(path: str | Path, start: int, stop: int) -> Iterator[bytes]:
    """The bytes of each message whose "From " line starts in [start, stop).

    Messages are cut where `mailbox.mbox` cuts them: every line that
    starts with "From " begins a message, lines before the first one are
    ignored, and one final line equal to "\n" before the next "From "
    line or the end of the file is dropped.  The "From " line itself is
    not part of the message.  The last message runs on past `stop` to
    its end, so ranges that tile the file yield every message once.
    """
    with open(path, "rb") as fh:
        if start > 0:
            fh.seek(start - 1)
            fh.readline()  # to the first line that starts at or after `start`
        lines = None  # the current message's lines after its "From " line
        for line in fh:
            if line.startswith(b"From "):
                if lines is not None:
                    yield _message_bytes(lines)
                if fh.tell() - len(line) >= stop:
                    return
                lines = []
            elif lines is not None:
                lines.append(line)
        if lines is not None:
            yield _message_bytes(lines)


def _message_bytes(lines: list[bytes]) -> bytes:
    if lines and lines[-1] == b"\n":
        lines.pop()
    return b"".join(lines)


# A corpus gets at most one pool worker per this many bytes, and pieces
# of about this size or more.  A worker parses 1 MiB of mail in 0.18 to
# 0.29 s (seed-1 mbox-ingest mail, one CPU), and a pool of two takes 0.11
# to 0.24 s from its creation to its first piece (2-core Xeon, Python 3.11).
_MIN_PIECE_BYTES = 1 << 20
_PIECES_PER_WORKER = 4

# (config, memo) of a pool worker process, set by `_start_worker`.
_worker_state: tuple[IngestConfig, _Memo] | None = None


def _start_worker(config: IngestConfig) -> None:
    global _worker_state
    _worker_state = config, _Memo(config.aliases)


def _parse_piece(
    piece: tuple[str, int, int], state: tuple[IngestConfig, _Memo] | None = None
) -> tuple[int, list[MessageEvent]]:
    """(messages skipped, events in file order) of one byte range of an archive.

    `state` defaults to the one this pool worker was started with.  Only
    a fault in converting one message counts it as skipped; any other
    fault, reading the file included, propagates.
    """
    config, memo = state or _worker_state
    skipped, events = 0, []
    for raw in _mbox_messages(*piece):
        msg = _split_headers(raw.decode("ascii", "surrogateescape"))
        try:
            event = _message_to_event(msg, raw, config, memo)
        except Exception:
            event = None
        if event is None:
            skipped += 1
        else:
            events.append(event)
    return skipped, events


def _pieces(
    paths: list[Path], sizes: list[int], piece_bytes: int
) -> list[tuple[str, int, int]]:
    """Byte ranges of about `piece_bytes` that tile the archives, in file
    order; an archive smaller than that is one range."""
    ranges = []
    for path, size in zip(paths, sizes):
        n = max(1, round(size / piece_bytes))
        ranges += [(str(path), size * k // n, size * (k + 1) // n) for k in range(n)]
    return ranges


def parse_mbox(
    paths: str | Path | list[str | Path],
    config: IngestConfig | None = None,
    report: IngestReport | None = None,
) -> list[MessageEvent]:
    """Parse one mbox file, or several as one corpus, into events in file order.

    Each archive is cut into byte ranges (`_mbox_messages`), about
    `_PIECES_PER_WORKER` per worker, and a pool of worker processes, at
    most one per usable CPU and one per `_MIN_PIECE_BYTES` of input,
    converts them; with one worker, or where `_workers.fork_pool` gives
    no pool, the ranges are converted in this process.  Results are
    taken back in file order, so the events and counts do not depend on
    the number of workers.

    Malformed messages (missing Date/From, no usable recipients, out of the
    configured date range) are skipped and counted, never fatal.  Duplicate
    Message-IDs keep the first occurrence, across all the files given.  A
    missing or unreadable file raises OSError; a fault in a worker, or
    any other fault outside the conversion of one message, propagates.
    """
    config = config or IngestConfig()
    report = report if report is not None else IngestReport()
    paths = [Path(paths)] if isinstance(paths, (str, Path)) else [Path(p) for p in paths]
    for path in paths:
        if not path.is_file():
            raise FileNotFoundError(f"mbox file not found: {path}")

    sizes = [path.stat().st_size for path in paths]
    workers = max(1, min(_workers.usable_cpus(), sum(sizes) // _MIN_PIECE_BYTES))
    pieces = _pieces(paths, sizes,
                     max(_MIN_PIECE_BYTES, sum(sizes) // (_PIECES_PER_WORKER * workers)))
    events: list[MessageEvent] = []
    seen_ids: set[str] = set()
    with contextlib.ExitStack() as stack:
        pool = _workers.fork_pool(workers, _start_worker, (config,)) if len(pieces) > 1 else None
        if pool is not None:
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(_parse_piece, pieces)
        else:
            state = config, _Memo(config.aliases)
            results = (_parse_piece(piece, state) for piece in pieces)
        for skipped, batch in results:
            report.skipped += skipped
            for event in batch:
                if len(event.recipients) > config.broadcast_threshold:
                    report.broadcast_dropped += 1
                    continue
                if event.message_id in seen_ids:
                    report.deduped += 1
                    continue
                seen_ids.add(event.message_id)
                events.append(event)
                report.parsed += 1
    return events


def write_event_csv(events, path: str | Path) -> None:
    """Write events to the canonical CSV, sorted by timestamp (stable)."""
    rows = sorted(events, key=lambda e: e.timestamp)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_CSV_COLUMNS)
        for e in rows:
            writer.writerow([
                e.message_id,
                e.timestamp.isoformat(),
                e.sender,
                ";".join(f"{addr}:{weight!r}" for addr, weight in e.recipients),
                e.in_reply_to or "",
                e.subject_key,
                " ".join(e.tokens),
            ])


def _recipient_items(raw: str, lineno: int) -> list[tuple[str, float]]:
    """The (address, weight) items of a recipients cell, empty items skipped;
    EventSchemaError names the first item that is not `address:weight`."""
    items = []
    for item in raw.split(";"):
        if not item:
            continue
        addr, sep, weight_raw = item.rpartition(":")
        try:
            weight = float(weight_raw)
        except ValueError:
            sep = ""
        if not sep:
            raise EventSchemaError(f"row {lineno}, column recipients: {item!r}")
        items.append((addr, weight))
    return items


@contextlib.contextmanager
def _csv_field_limit(limit: int):
    """Set csv's limit on the length of a field to `limit` for the block."""
    previous = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(previous)


def read_event_csv(path: str | Path) -> EventTable:
    """Read the canonical event CSV into an EventTable, rows in file order.

    Each row is checked once, and the first fault raises EventSchemaError
    naming its row and column.  The checks run in this order: the column
    count; the stamp, which may carry any UTC offset (or "Z") but must
    carry one, and is converted to UTC; the syntax of the recipients;
    the message id; the sender's form; then each recipient's form, that
    it is not the sender and that its weight is in (0, 1], in order.
    An address already in the table skips its form check, and each
    distinct recipients cell is checked once and kept as its actor ids
    and weights: a later row with that cell checks only that its sender
    is not among them.  A row's message id must not be empty, but the
    message id, reply link and subject are not kept: no analyze stage
    reads them.  A cell may be of any length: a tokens cell holds a
    whole message body, which can pass csv's default limit of 131,072
    characters.
    """
    from .table import _EPOCH, _MICROSECOND, _TableBuilder  # here: ingesting loads no numpy
    table = _TableBuilder()
    # bound methods and locals: the loop body runs once per row
    actor_ids, actor, word_id = table.actor_ids, table.actor, table.word_ids.__getitem__
    recipient_ids, token_ids = table.recipient_ids, table.token_ids
    add_stamp, add_sender = table.stamps.append, table.senders.append
    add_recipient_ids, add_weights = recipient_ids.extend, table.recipient_weights.extend
    end_recipients, end_tokens = table.recipient_indptr.append, table.token_indptr.append
    add_tokens = token_ids.extend
    recipient_lists: dict[str, tuple[list[int], list[float]]] = {}
    fromisoformat, utc = datetime.fromisoformat, timezone.utc
    n_columns = len(EVENT_CSV_COLUMNS)

    def recipient_list(raw: str, items: list[tuple[str, float]], sender: str,
                       lineno: int) -> tuple[list[int], list[float]]:
        """Check the items of a cell seen for the first time, and keep the cell."""
        if not items:
            raise EventSchemaError(f"row {lineno}, column *: empty recipient list")
        for addr, weight in items:
            if addr not in actor_ids and not _is_canonical(addr):
                raise EventSchemaError(
                    f"row {lineno}, column *: non-canonical recipient: {addr!r}")
            if addr == sender:
                raise EventSchemaError(f"row {lineno}, column *: sender duplicated in recipients")
            if not 0.0 < weight <= 1.0:
                raise EventSchemaError(
                    f"row {lineno}, column *: recipient weight out of (0,1]: {weight}")
        found = recipient_lists[raw] = [actor(a) for a, _ in items], [w for _, w in items]
        return found

    with _csv_field_limit(sys.maxsize), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != EVENT_CSV_COLUMNS:
            raise EventSchemaError(
                f"row 1, column header: expected {','.join(EVENT_CSV_COLUMNS)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != n_columns:
                raise EventSchemaError(f"row {lineno}, column count: got {len(row)} fields")
            msg_id, stamp_raw, sender, recips_raw, _, _, tokens_raw = row
            try:
                stamp = fromisoformat(stamp_raw.replace("Z", "+00:00"))
                if stamp.tzinfo is not None:
                    stamp = stamp.astimezone(utc)  # OverflowError past year 1 or 9999
            except (ValueError, OverflowError):
                raise EventSchemaError(
                    f"row {lineno}, column timestamp_iso8601_utc: {stamp_raw!r}"
                ) from None
            if stamp.tzinfo is None:
                raise EventSchemaError(
                    f"row {lineno}, column timestamp_iso8601_utc: missing timezone"
                )
            recipients = recipient_lists.get(recips_raw)
            if recipients is None:
                items = _recipient_items(recips_raw, lineno)
            if not msg_id:
                raise EventSchemaError(f"row {lineno}, column *: empty message_id")
            sender_id = actor_ids.get(sender)
            if sender_id is None:
                if not _is_canonical(sender):
                    raise EventSchemaError(
                        f"row {lineno}, column *: non-canonical sender: {sender!r}")
                sender_id = actor(sender)
            if recipients is None:
                recipients = recipient_list(recips_raw, items, sender, lineno)
            elif sender_id in recipients[0]:
                raise EventSchemaError(f"row {lineno}, column *: sender duplicated in recipients")
            add_stamp((stamp - _EPOCH) // _MICROSECOND)
            add_sender(sender_id)
            add_recipient_ids(recipients[0])
            add_weights(recipients[1])
            end_recipients(len(recipient_ids))
            add_tokens(map(word_id, tokens_raw.split()))
            end_tokens(len(token_ids))
    return table.finish()


def read_alias_csv(path: str | Path) -> dict[str, str]:
    """Load the alias map CSV (raw_address,canonical_address)."""
    aliases: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["raw_address", "canonical_address"]:
            raise EventSchemaError("row 1, column header: expected raw_address,canonical_address")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise EventSchemaError(f"row {lineno}, column count: got {len(row)} fields")
            raw, canonical = row[0].strip().lower(), row[1].strip().lower()
            if not _ADDR_RE.match(canonical):
                raise EventSchemaError(f"row {lineno}, column canonical_address: {canonical!r}")
            aliases[raw] = canonical
    return aliases


EXTERNAL_UNIT = "_external"


def read_unit_csv(path: str | Path) -> dict[str, str]:
    """Load the unit map CSV (address,unit); addresses are lowercased."""
    units: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["address", "unit"]:
            raise EventSchemaError("row 1, column header: expected address,unit")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise EventSchemaError(f"row {lineno}, column count: got {len(row)} fields")
            addr, unit = row[0].strip().lower(), row[1].strip()
            if not _ADDR_RE.match(addr):
                raise EventSchemaError(f"row {lineno}, column address: {addr!r}")
            if not unit:
                raise EventSchemaError(f"row {lineno}, column unit: empty unit name")
            if addr in units and units[addr] != unit:
                raise EventSchemaError(f"row {lineno}, column address: {addr!r} mapped twice")
            units[addr] = unit
    return units
