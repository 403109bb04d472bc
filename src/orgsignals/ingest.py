"""Parse e-mail archives into a canonical, deduplicated event stream.

Raw input is RFC 4155 mbox with RFC 5322 headers.  Each parsable message
becomes one MessageEvent: canonical lowercase sender, weighted recipients
(To=1.0, Cc=0.5 by default), UTC timestamp, reply link, and a tokenized
plain-text body with quoted reply material stripped.  Events round-trip
through a canonical CSV so later pipeline stages never re-parse mail.
"""

from __future__ import annotations

import csv
import hashlib
import html
import mailbox
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from email.header import decode_header, make_header
from email.utils import getaddresses, parseaddr, parsedate_to_datetime
from pathlib import Path

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

    def validate(self, canonical: set[str] | None = None) -> None:
        """Raise ValueError if any MessageEvent invariant is violated.

        `canonical` optionally holds addresses already found canonical:
        they skip the form check, and addresses that pass it are added.
        """
        if canonical is None:
            canonical = set()
        if not self.message_id:
            raise ValueError("empty message_id")
        if self.timestamp.tzinfo is None or self.timestamp.utcoffset().total_seconds() != 0:
            raise ValueError(f"timestamp not UTC: {self.timestamp!r}")
        if not _is_canonical(self.sender, canonical):
            raise ValueError(f"non-canonical sender: {self.sender!r}")
        if not self.recipients:
            raise ValueError("empty recipient list")
        for addr, weight in self.recipients:
            if not _is_canonical(addr, canonical):
                raise ValueError(f"non-canonical recipient: {addr!r}")
            if addr == self.sender:
                raise ValueError("sender duplicated in recipients")
            if not 0.0 < weight <= 1.0:
                raise ValueError(f"recipient weight out of (0,1]: {weight}")


def _is_canonical(addr: str, canonical: set[str]) -> bool:
    """Whether `addr` is a lowercase addr-spec; a passing address is remembered."""
    if addr in canonical:
        return True
    if not _ADDR_RE.match(addr) or addr != addr.lower():
        return False
    canonical.add(addr)
    return True


@dataclass(slots=True)
class IngestConfig:
    """Knobs for the mbox -> event conversion."""

    to_weight: float = 1.0
    cc_weight: float = 0.5
    broadcast_threshold: int = 100      # messages with more recipients are dropped
    date_start: datetime | None = None  # inclusive corpus bound, UTC
    date_end: datetime | None = None    # exclusive corpus bound, UTC
    aliases: dict[str, str] = field(default_factory=dict)


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
        if not _ADDR_RE.match(addr) or addr != addr.lower():
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


def _extract_body(msg) -> str:
    """Best-effort plain text body; text/plain preferred over text/html."""
    plain, markup = None, None
    parts = msg.walk() if msg.is_multipart() else [msg]
    for part in parts:
        if part.get_content_maintype() != "text" or part.get_filename():
            continue
        payload = part.get_payload(decode=True)
        if payload is None:
            continue
        charset = part.get_content_charset() or "utf-8"
        try:
            text = payload.decode(charset, errors="replace")
        except LookupError:
            text = payload.decode("utf-8", errors="replace")
        subtype = part.get_content_subtype()
        if subtype == "plain" and plain is None:
            plain = text
        elif subtype == "html" and markup is None:
            markup = text
    if plain is not None:
        return plain
    if markup is not None:
        return _html_to_text(markup)
    return ""


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


def _canonical_cached(
    raw: str, config: IngestConfig, cache: dict[str, str | None]
) -> str | None:
    """canonicalize_actor once per distinct raw address; None when unusable."""
    if raw not in cache:
        try:
            cache[raw] = canonicalize_actor(raw, config.aliases)
        except AddressError:
            cache[raw] = None
    return cache[raw]


def _message_to_event(
    msg, config: IngestConfig, cache: dict[str, str | None]
) -> MessageEvent | None:
    """Convert one mail message; None means skip (caller counts it).

    Address headers are split as they stand: the addr-spec never needs
    RFC 2047 decoding, and decoding first would let an encoded display
    name holding "," or "<...>" read as extra addresses.
    """
    date_header = msg.get("Date")
    timestamp = _parse_date(date_header) if date_header else None
    if timestamp is None:
        return None
    if config.date_start is not None and timestamp < config.date_start:
        return None
    if config.date_end is not None and timestamp >= config.date_end:
        return None

    senders = getaddresses([str(msg.get("From") or "")])
    sender = _canonical_cached(senders[0][1], config, cache) if senders else None
    if sender is None:
        return None

    recipients: list[tuple[str, float]] = []
    seen: set[str] = set()
    for header, weight in (("To", config.to_weight), ("Cc", config.cc_weight)):
        for _, raw in getaddresses([str(h) for h in msg.get_all(header, [])]):
            addr = _canonical_cached(raw, config, cache)
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
    body = strip_quoted_reply(_extract_body(msg))
    return MessageEvent(
        message_id=message_id,
        timestamp=timestamp,
        sender=sender,
        recipients=recipients,
        in_reply_to=in_reply_to,
        subject_key=normalize_subject(_decode_mime_header(msg.get("Subject"))),
        tokens=tokenize(body),
    )


def parse_mbox(
    paths: str | Path | list[str | Path],
    config: IngestConfig | None = None,
    report: IngestReport | None = None,
) -> list[MessageEvent]:
    """Parse one mbox file, or several as one corpus, into events in file order.

    Malformed messages (missing Date/From, no usable recipients, out of the
    configured date range) are skipped and counted, never fatal.  Duplicate
    Message-IDs keep the first occurrence, across all the files given.  A
    missing or unreadable file raises OSError.
    """
    config = config or IngestConfig()
    report = report if report is not None else IngestReport()
    paths = [Path(paths)] if isinstance(paths, (str, Path)) else [Path(p) for p in paths]
    for path in paths:
        if not path.is_file():
            raise FileNotFoundError(f"mbox file not found: {path}")

    events: list[MessageEvent] = []
    seen_ids: set[str] = set()
    cache: dict[str, str | None] = {}  # raw address -> canonical address or None
    for path in paths:
        box = mailbox.mbox(str(path), create=False)
        try:
            for msg in box:
                try:
                    event = _message_to_event(msg, config, cache)
                except Exception:
                    event = None
                if event is None:
                    report.skipped += 1
                    continue
                if len(event.recipients) > config.broadcast_threshold:
                    report.broadcast_dropped += 1
                    continue
                if event.message_id in seen_ids:
                    report.deduped += 1
                    continue
                seen_ids.add(event.message_id)
                events.append(event)
                report.parsed += 1
        finally:
            box.close()
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


def read_event_csv(path: str | Path) -> list[MessageEvent]:
    """Read the canonical event CSV back into events.

    Equal strings share one object: every distinct address, recipient
    entry, token and subject is held once however many rows repeat it,
    and each distinct address has its form checked once.  Raises
    EventSchemaError naming the offending row and column on any schema
    violation.
    """
    events: list[MessageEvent] = []
    strings: dict[str, str] = {}
    pairs: dict[str, tuple[str, float]] = {}  # "addr:weight" -> recipient entry
    canonical: set[str] = set()
    share = strings.setdefault
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != EVENT_CSV_COLUMNS:
            raise EventSchemaError(
                f"row 1, column header: expected {','.join(EVENT_CSV_COLUMNS)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(EVENT_CSV_COLUMNS):
                raise EventSchemaError(f"row {lineno}, column count: got {len(row)} fields")
            msg_id, stamp_raw, sender, recips_raw, reply_raw, subject, tokens_raw = row
            try:
                timestamp = datetime.fromisoformat(stamp_raw.replace("Z", "+00:00"))
            except ValueError:
                raise EventSchemaError(
                    f"row {lineno}, column timestamp_iso8601_utc: {stamp_raw!r}"
                ) from None
            if timestamp.tzinfo is None:
                raise EventSchemaError(
                    f"row {lineno}, column timestamp_iso8601_utc: missing timezone"
                )
            recipients: list[tuple[str, float]] = []
            for item in recips_raw.split(";"):
                if not item:
                    continue
                pair = pairs.get(item)
                if pair is None:
                    addr, sep, weight_raw = item.rpartition(":")
                    try:
                        weight = float(weight_raw)
                    except ValueError:
                        sep = ""
                    if not sep:
                        raise EventSchemaError(f"row {lineno}, column recipients: {item!r}")
                    pair = pairs[item] = (share(addr, addr), weight)
                recipients.append(pair)
            tokens = tokens_raw.split()
            event = MessageEvent(
                message_id=msg_id,
                timestamp=timestamp.astimezone(timezone.utc),
                sender=share(sender, sender),
                recipients=recipients,
                in_reply_to=reply_raw or None,
                subject_key=share(subject, subject),
                tokens=list(map(share, tokens, tokens)),
            )
            try:
                event.validate(canonical)
            except ValueError as exc:
                raise EventSchemaError(f"row {lineno}, column *: {exc}") from None
            events.append(event)
    return events


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
