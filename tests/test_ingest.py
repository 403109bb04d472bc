"""Mbox parsing, actor canonicalization, tokenization, and event CSV I/O."""

import concurrent.futures
import email.feedparser
import mailbox
import os
import string
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orgsignals.ingest import (
    AddressError,
    EventSchemaError,
    IngestConfig,
    IngestReport,
    MessageEvent,
    canonicalize_actor,
    normalize_subject,
    parse_mbox,
    read_alias_csv,
    read_event_csv,
    read_unit_csv,
    strip_quoted_reply,
    tokenize,
    write_event_csv,
)

import orgsignals.ingest as ingest
from conftest import T0, mk_event
from oracles import full_parse_body, stdlib_split_headers
from test_integration import unit_events


# ---------------------------------------------------------------------------
# canonicalize_actor
# ---------------------------------------------------------------------------

def test_canonicalize_strips_display_name_and_lowercases():
    assert canonicalize_actor('"Jane Doe" <Jane.Doe@X.com>') == "jane.doe@x.com"


def test_canonicalize_applies_alias_after_lowercasing():
    aliases = {"jdoe@x.com": "jane.doe@x.com"}
    assert canonicalize_actor("JDoe@X.com", aliases) == "jane.doe@x.com"


def test_canonicalize_rejects_non_address():
    with pytest.raises(AddressError, match="unparseable address"):
        canonicalize_actor("not-an-address")


def test_canonicalize_rejects_empty():
    with pytest.raises(AddressError):
        canonicalize_actor("")


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_splits_on_punctuation():
    assert tokenize("Great—great, terrible meeting!") == [
        "great", "great", "terrible", "meeting",
    ]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_drops_numeric_and_short_tokens():
    assert tokenize("R2 42 ok") == ["r2", "ok"]


def test_tokenize_unicode_lowercase():
    assert tokenize("Grüße VON München") == ["grüße", "von", "münchen"]


# ---------------------------------------------------------------------------
# mbox parsing
# ---------------------------------------------------------------------------

def make_mbox(path, messages):
    """Write a minimal RFC 4155 mbox from (headers, body) pairs."""
    with open(path, "w", encoding="utf-8") as fh:
        for headers, body in messages:
            fh.write("From MAILER-DAEMON Mon Jan  1 00:00:00 2024\n")
            for key, value in headers.items():
                fh.write(f"{key}: {value}\n")
            fh.write("\n")
            for line in body.splitlines():
                fh.write(f"> {line[2:]}\n" if line.startswith("> ") else f"{line}\n")
            fh.write("\n")


BASE_HEADERS = {
    "From": "a@x.com",
    "To": "b@x.com",
    "Date": "Mon, 1 Jan 2024 00:00:00 +0000",
    "Message-ID": "<m1@x.com>",
    "Subject": "hello",
}


def test_parse_minimal_message(tmp_path):
    path = tmp_path / "one.mbox"
    make_mbox(path, [(BASE_HEADERS, "hello world")])
    events = parse_mbox(path)
    assert len(events) == 1
    e = events[0]
    assert e.sender == "a@x.com"
    assert e.recipients == [("b@x.com", 1.0)]
    assert e.timestamp == datetime(2024, 1, 1, tzinfo=timezone.utc)
    assert e.tokens == ["hello", "world"]


def test_parse_cc_gets_half_weight(tmp_path):
    path = tmp_path / "cc.mbox"
    make_mbox(path, [({**BASE_HEADERS, "Cc": "c@x.com"}, "body text")])
    events = parse_mbox(path)
    assert events[0].recipients == [("b@x.com", 1.0), ("c@x.com", 0.5)]


def test_parse_skips_message_without_date(tmp_path):
    path = tmp_path / "three.mbox"
    no_date = {k: v for k, v in BASE_HEADERS.items() if k != "Date"}
    no_date["Message-ID"] = "<m2@x.com>"
    third = {**BASE_HEADERS, "Message-ID": "<m3@x.com>"}
    make_mbox(path, [(BASE_HEADERS, "x y"), (no_date, "x y"), (third, "x y")])
    report = IngestReport()
    events = parse_mbox(path, report=report)
    assert len(events) == 2
    assert report.skipped == 1
    assert report.parsed == 2


def test_parse_dedups_message_ids(tmp_path):
    path = tmp_path / "dup.mbox"
    make_mbox(path, [(BASE_HEADERS, "x y"), (BASE_HEADERS, "x y")])
    report = IngestReport()
    events = parse_mbox(path, report=report)
    assert len(events) == 1
    assert report.deduped == 1


def test_parse_drops_broadcast(tmp_path):
    path = tmp_path / "bcast.mbox"
    recips = ", ".join(f"r{i}@x.com" for i in range(5))
    make_mbox(path, [({**BASE_HEADERS, "To": recips}, "x y")])
    report = IngestReport()
    events = parse_mbox(path, IngestConfig(broadcast_threshold=3), report)
    assert events == []
    assert report.broadcast_dropped == 1


def test_parse_drops_self_send_from_recipients(tmp_path):
    path = tmp_path / "self.mbox"
    make_mbox(path, [({**BASE_HEADERS, "To": "a@x.com, b@x.com"}, "x y")])
    events = parse_mbox(path)
    assert events[0].recipients == [("b@x.com", 1.0)]


def test_parse_respects_date_range(tmp_path):
    path = tmp_path / "range.mbox"
    make_mbox(path, [(BASE_HEADERS, "x y")])
    config = IngestConfig(date_start=datetime(2025, 1, 1, tzinfo=timezone.utc))
    report = IngestReport()
    assert parse_mbox(path, config, report) == []
    assert report.skipped == 1


def test_parse_missing_file_fatal(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_mbox(tmp_path / "missing.mbox")


def test_parse_naive_date_treated_as_utc(tmp_path):
    path = tmp_path / "naive.mbox"
    make_mbox(path, [({**BASE_HEADERS, "Date": "Mon, 1 Jan 2024 00:00:00 -0000"}, "x")])
    events = parse_mbox(path)
    assert events[0].timestamp == datetime(2024, 1, 1, tzinfo=timezone.utc)


def test_parse_deterministic(tmp_path):
    path = tmp_path / "det.mbox"
    msgs = [({**BASE_HEADERS, "Message-ID": f"<d{i}@x>"}, f"tokens here {i}") for i in range(5)]
    make_mbox(path, msgs)
    assert parse_mbox(path) == parse_mbox(path)


def test_quoted_reply_stripped():
    body = "new content\n> old quoted line\nmore new\nOn Mon, Jan 1, a@x.com wrote:\nquoted tail"
    assert strip_quoted_reply(body) == "new content\nmore new"


def test_parse_multipart_prefers_plain_text(tmp_path):
    path = tmp_path / "mime.mbox"
    with open(path, "w") as fh:
        fh.write(
            "From MAILER-DAEMON Mon Jan  1 00:00:00 2024\n"
            "From: a@x.com\nTo: b@x.com\n"
            "Date: Mon, 1 Jan 2024 00:00:00 +0000\n"
            "Message-ID: <mp@x>\n"
            "MIME-Version: 1.0\n"
            'Content-Type: multipart/alternative; boundary="SEP"\n'
            "\n"
            "--SEP\n"
            "Content-Type: text/plain; charset=utf-8\n"
            "\n"
            "plain words here\n"
            "--SEP\n"
            "Content-Type: text/html; charset=utf-8\n"
            "\n"
            "<p>markup words</p>\n"
            "--SEP--\n"
            "\n"
        )
    (event,) = parse_mbox(path)
    assert event.tokens == ["plain", "words", "here"]


def test_parse_html_only_body_stripped(tmp_path):
    path = tmp_path / "html.mbox"
    with open(path, "w") as fh:
        fh.write(
            "From MAILER-DAEMON Mon Jan  1 00:00:00 2024\n"
            "From: a@x.com\nTo: b@x.com\n"
            "Date: Mon, 1 Jan 2024 00:00:00 +0000\n"
            "Message-ID: <h@x>\n"
            "Content-Type: text/html; charset=utf-8\n"
            "\n"
            "<html><body><p>hello</p><br>world &amp; more</body></html>\n"
            "\n"
        )
    (event,) = parse_mbox(path)
    assert event.tokens == ["hello", "world", "more"]


def test_parse_base64_body_decoded(tmp_path):
    import base64

    body = base64.b64encode("encoded payload words".encode()).decode()
    path = tmp_path / "b64.mbox"
    with open(path, "w") as fh:
        fh.write(
            "From MAILER-DAEMON Mon Jan  1 00:00:00 2024\n"
            "From: a@x.com\nTo: b@x.com\n"
            "Date: Mon, 1 Jan 2024 00:00:00 +0000\n"
            "Message-ID: <b64@x>\n"
            "Content-Type: text/plain; charset=utf-8\n"
            "Content-Transfer-Encoding: base64\n"
            "\n"
            f"{body}\n"
            "\n"
        )
    (event,) = parse_mbox(path)
    assert event.tokens == ["encoded", "payload", "words"]


def test_parse_encoded_word_headers(tmp_path):
    path = tmp_path / "enc.mbox"
    with open(path, "w") as fh:
        fh.write(
            "From MAILER-DAEMON Mon Jan  1 00:00:00 2024\n"
            "From: =?utf-8?q?J=C3=BCrgen?= <JUERGEN@x.com>\n"
            "To: b@x.com\n"
            "Date: Mon, 1 Jan 2024 00:00:00 +0000\n"
            "Message-ID: <enc@x>\n"
            "Subject: =?utf-8?q?Re=3A_Gr=C3=BC=C3=9Fe?=\n"
            "\n"
            "hi there\n"
            "\n"
        )
    (event,) = parse_mbox(path)
    assert event.sender == "juergen@x.com"
    assert event.subject_key == "grüße"


def test_normalize_subject_strips_re_prefixes():
    assert normalize_subject("Re: RE: Fwd:  Budget   Plan") == "budget plan"


# ---------------------------------------------------------------------------
# event CSV round-trip
# ---------------------------------------------------------------------------

def test_event_csv_round_trip_small(tmp_path):
    events = [
        mk_event("a@x.com", ["b@x.com", ("c@x.com", 0.5)], hours=1,
                 tokens=["hello", "world"], in_reply_to="<r@x>", subject_key="hi"),
        mk_event("b@x.com", ["a@x.com"], hours=0.5),
    ]
    path = tmp_path / "events.csv"
    write_event_csv(events, path)
    back = read_event_csv(path).to_events()
    assert back == sorted(events, key=lambda e: e.timestamp)


addresses = st.from_regex(r"[a-z]{1,8}@[a-z]{1,8}\.[a-z]{2,3}", fullmatch=True)
tokens_strategy = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=8), max_size=6
)


@st.composite
def event_strategy(draw, index):
    sender = draw(addresses)
    n_recip = draw(st.integers(1, 4))
    recipients = []
    seen = {sender}
    for _ in range(n_recip):
        addr = draw(addresses.filter(lambda a: a not in seen))
        seen.add(addr)
        recipients.append((addr, draw(st.floats(0.01, 1.0, allow_nan=False))))
    return MessageEvent(
        message_id=f"<h{index}@fuzz>",
        timestamp=T0 + timedelta(seconds=draw(st.integers(0, 10_000_000))),
        sender=sender,
        recipients=recipients,
        in_reply_to=draw(st.one_of(st.none(), st.just("<parent@fuzz>"))),
        subject_key=draw(st.text(alphabet=string.ascii_lowercase + " ", max_size=20)).strip(),
        tokens=draw(tokens_strategy),
    )


@given(st.integers(0, 50).flatmap(
    lambda n: st.tuples(*[event_strategy(index=i) for i in range(n)])
))
@settings(max_examples=40, deadline=None)
def test_event_csv_round_trip_fuzzed(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("csv") / "events.csv"
    write_event_csv(list(events), path)
    back = read_event_csv(path).to_events()
    assert back == sorted(events, key=lambda e: e.timestamp)
    for event in back:
        event.validate()


def test_event_csv_bad_timestamp_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    write_event_csv([mk_event("a@x.com", ["b@x.com"])], path)
    text = path.read_text().replace(T0.isoformat(), "not-a-date")
    path.write_text(text)
    with pytest.raises(EventSchemaError, match="row 2.*timestamp"):
        read_event_csv(path)


def write_second_stamp(path, stamp):
    """An event CSV of two rows whose second row has the stamp `stamp`."""
    write_event_csv([mk_event("a@x.com", ["b@x.com"], hours=1),
                     mk_event("b@x.com", ["a@x.com"], hours=2)], path)
    text = path.read_text()
    path.write_text(text.replace((T0 + timedelta(hours=2)).isoformat(), stamp))


@pytest.mark.parametrize("stamp", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
def test_event_csv_stamp_out_of_range_in_utc_names_row(tmp_path, stamp):
    path = tmp_path / "events.csv"
    write_second_stamp(path, stamp)
    with pytest.raises(EventSchemaError) as raised:
        read_event_csv(path)
    assert str(raised.value) == f"row 3, column timestamp_iso8601_utc: {stamp!r}"


def test_event_csv_year_one_utc_stamp_is_read(tmp_path):
    path = tmp_path / "events.csv"
    write_second_stamp(path, "0001-01-01T00:30:00+00:00")
    stamps = [event.timestamp for event in read_event_csv(path).to_events()]
    assert stamps == [T0 + timedelta(hours=1), datetime(1, 1, 1, 0, 30, tzinfo=timezone.utc)]


def test_event_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_event_csv([], path)
    assert read_event_csv(path).to_events() == []


def test_event_csv_wrong_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(EventSchemaError, match="row 1"):
        read_event_csv(path)


def test_event_csv_bad_recipient_weight(tmp_path):
    path = tmp_path / "w.csv"
    write_event_csv([mk_event("a@x.com", ["b@x.com"])], path)
    path.write_text(path.read_text().replace("b@x.com:1.0", "b@x.com:nope"))
    with pytest.raises(EventSchemaError, match="row 2.*recipients"):
        read_event_csv(path)


# ---------------------------------------------------------------------------
# fuzzed mbox corpus: every emitted event satisfies the invariants
# ---------------------------------------------------------------------------

header_text = st.text(alphabet=string.ascii_letters + string.digits + " @.<>,:;-", max_size=40)


@st.composite
def raw_message(draw, index):
    headers = {"Message-ID": f"<fz{index}@x>"}
    if draw(st.booleans()):
        headers["From"] = draw(st.one_of(addresses, header_text))
    if draw(st.booleans()):
        headers["To"] = draw(st.one_of(addresses, header_text))
    if draw(st.booleans()):
        headers["Date"] = draw(st.one_of(
            st.just("Mon, 1 Jan 2024 10:20:30 +0100"),
            st.just("garbage date"),
            header_text,
        ))
    if draw(st.booleans()):
        headers["Cc"] = draw(st.one_of(addresses, header_text))
    body = draw(st.text(alphabet=string.printable, max_size=120))
    return headers, body


@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(*[raw_message(index=i) for i in range(n)])
))
@settings(max_examples=40, deadline=None)
def test_fuzzed_mbox_events_satisfy_invariants(tmp_path_factory, messages):
    path = tmp_path_factory.mktemp("mbox") / "fuzz.mbox"
    make_mbox(path, list(messages))
    report = IngestReport()
    events = parse_mbox(path, report=report)
    for event in events:
        event.validate()
    assert report.parsed == len(events)
    assert report.parsed + report.skipped + report.deduped + report.broadcast_dropped == len(messages)


# ---------------------------------------------------------------------------
# body text: the headers-only walk against the full MIME parse
# ---------------------------------------------------------------------------

BOUNDARIES = ["B", "a.b+c", "=_x", "x-", "b b"]
BODY_LINES = ["hello world", "", "> quoted", "caf\u00e9 au lait", "caf=C3=A9", "From here",
              "aGVsbG8gd29ybGQ=", "x\x1c--B", "<p>markup</p>", "Subject: inner"]
LEAF_TYPES = [None, "text/plain", "text/plain", "text/html", "text/plain; charset=latin-1",
              "text/plain; charset=idna", "application/octet-stream", "multipart/mixed"]


@st.composite
def mime_entity(draw, depth=0):
    """The lines of one MIME entity, without line ends: a multipart with
    odd boundary lines, a message/* part or a leaf."""
    if depth == 0:
        kind = draw(st.sampled_from(["multipart", "multipart", "multipart", "leaf"]))
    else:
        kind = draw(st.sampled_from(["multipart", "message", "leaf", "leaf", "leaf"]
                                    if depth < 3 else ["leaf"]))
    if kind == "message":
        if draw(st.booleans()):
            return ["Content-Type: message/delivery-status", "",
                    "Reporting-MTA: dns; x.com", "", "Action: failed"]
        return ["Content-Type: message/rfc822", "", "Subject: inner", *draw(mime_entity(depth + 1))]
    if kind == "leaf":
        lines = []
        content_type = draw(st.sampled_from(LEAF_TYPES))
        if content_type:
            lines.append(f"Content-Type: {content_type}")
        if draw(st.integers(0, 4)) == 0:
            lines.append('Content-Disposition: attachment; filename="a.txt"')
        encoding = draw(st.sampled_from([None, None, "base64", "quoted-printable"]))
        if encoding:
            lines.append(f"Content-Transfer-Encoding: {encoding}")
        if draw(st.integers(0, 5)):
            lines.append("")
        return lines + draw(st.lists(st.sampled_from(BODY_LINES), min_size=1, max_size=3))
    boundary = draw(st.sampled_from(BOUNDARIES))
    separator = "--" + boundary
    open_line = st.sampled_from(["", "", " ", "\t", " \t"]).map(lambda ws: separator + ws)
    close_line = st.sampled_from(["", " "]).map(lambda ws: separator + "--" + ws)
    near_miss = st.sampled_from([separator + "x", " " + separator, separator + "--x", ""])
    subtype = draw(st.sampled_from(["mixed", "alternative", "digest"]))
    lines = [f"Content-Type: multipart/{subtype}"
             + ("" if draw(st.integers(0, 9)) == 0 else f'; boundary="{boundary}"'), ""]
    if draw(st.integers(0, 7)) == 0:
        lines.append(draw(close_line))  # before any start boundary
    lines += draw(st.lists(near_miss, max_size=2))  # preamble
    for _ in range(draw(st.integers(0, 3))):
        lines.append(draw(open_line))
        lines += draw(st.lists(st.one_of(open_line, close_line), max_size=2))
        lines += draw(mime_entity(depth + 1))
    ending = draw(st.integers(0, 4))
    if ending == 1:
        lines.append(draw(open_line))  # a boundary on the last line
    elif ending:
        lines.append(draw(close_line))
        lines += draw(st.lists(st.one_of(near_miss, open_line), max_size=2))  # epilogue
    return lines


@st.composite
def mime_message(draw):
    """The bytes of a mail whose lines end in "\n", "\r\n" or "\r", one
    kind or mixed, and whose last line may have no line end."""
    lines = ["From: a@x.com", "To: b@x.com", "MIME-Version: 1.0", *draw(mime_entity())]
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]]))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode(draw(st.sampled_from(["utf-8", "latin-1"])))


def walked_body(raw):
    msg = ingest._split_headers(raw.decode("ascii", "surrogateescape"))
    return ingest._extract_body(ingest._body_parts(msg, raw))


def body_or_fault(extract, raw):
    try:
        return extract(raw)
    except Exception as exc:  # the message would be skipped
        return type(exc), str(exc)


def mime(content_type, *lines, end="\n"):
    """A mail with one Content-Type and these body lines, each ended by `end`."""
    return end.join(["From: a@x.com", f"Content-Type: {content_type}", "", *lines, ""]).encode()


@given(mime_message())
@example(mime('multipart/mixed; boundary="B"',  # CR lines; "\x1c" ends no line
              "--B", "", "x\x1c--B", "Content-Type: text/html", "", "<p>html</p>", "--B--",
              end="\r"))
@example(mime('multipart/mixed; boundary="B"', "--B \t", "", "words", "--B-- \t"))
@example(mime('multipart/mixed; boundary="B"',  # a doubled boundary, close included
              "--B", "--B", "--B--", "", "words", "--B--"))
@example(mime('multipart/mixed; boundary="B"',  # close before start
              "--B--", "--B", "", "words", "--B--"))
@example(mime('multipart/mixed; boundary="B"', "--B", "", "words"))  # missing close
@example(mime('multipart/mixed; boundary="B"',  # a boundary on the last line
              "--B", "Content-Type: text/html", "", "<p>html</p>", "--B"))
@example(mime('multipart/mixed; boundary="B"', "--B", "headless words", "--B--"))
@example(mime('multipart/digest; boundary="B"',
              "--B", "", "Subject: inner", "", "digest words", "--B--"))
@example(mime("multipart/mixed", "--B", "", "words", "--B--"))  # no boundary parameter
@example(mime('multipart/mixed; boundary="B"',  # an rfc822 attachment
              "--B", "Content-Type: message/rfc822", "", "Subject: inner", "", "inner words",
              "--B", "", "outer words", "--B--"))
@example(mime('multipart/mixed; boundary="B"',
              "--B", 'Content-Disposition: attachment; filename="a.txt"', "", "attached",
              "--B", "", "words", "--B--"))
@example(mime("text/plain; charset=idna", "words"))  # "replace" unsupported
@example(mime("text/plain; charset=punycode", "caf\u00e9"))  # 8-bit bytes
# an attachment's RFC 2231 name in a codec that refuses "replace": only a
# text part's file name is read
@example(mime('multipart/mixed; boundary="B"',
              "--B", "Content-Type: text/plain", "", "words",
              "--B", "Content-Type: application/pdf; name*=idna''a.pdf", "", "JVBERi0=",
              "--B--"))
# a text part whose RFC 2231 name cannot be decoded is an attachment
@example(mime('multipart/mixed; boundary="B"',
              "--B", "Content-Type: text/plain; name*=idna''a.txt", "", "attached",
              "--B", "Content-Type: text/plain", "", "words", "--B--"))
@settings(max_examples=300, deadline=None)
def test_walked_body_matches_full_parse(raw):
    assert body_or_fault(walked_body, raw) == body_or_fault(full_parse_body, raw)


def test_text_part_with_undecodable_file_name_keeps_message(tmp_path):
    path = tmp_path / "one.mbox"
    make_mbox(path, [({**BASE_HEADERS, "MIME-Version": "1.0",
                       "Content-Type": 'multipart/mixed; boundary="B"'},
                      "\n".join(["--B", "Content-Type: text/plain; name*=idna''a.txt", "",
                                 "attached", "--B", "Content-Type: text/plain", "",
                                 "hello world", "--B--"]))])
    report = IngestReport()
    (event,) = parse_mbox(path, report=report)
    assert event.tokens == ["hello", "world"]  # the named part is skipped
    assert report.skipped == 0


@pytest.mark.parametrize("charset, body", [("idna", "hello world"),
                                           ("punycode", "caf\u00e9 au lait")])
def test_part_in_charset_that_cannot_decode_keeps_message(tmp_path, charset, body):
    path = tmp_path / "one.mbox"
    make_mbox(path, [({**BASE_HEADERS, "Content-Type": f"text/plain; charset={charset}"}, body)])
    report = IngestReport()
    (event,) = parse_mbox(path, report=report)
    assert event.tokens == tokenize(body)  # decoded as UTF-8
    assert report.skipped == 0


# ---------------------------------------------------------------------------
# header blocks: the one-pass split against the stdlib headers-only parse
# ---------------------------------------------------------------------------

HEADER_BLOCK_LINES = [
    "Subject: hello", "To: b@x.com", "X-Empty:", "Subject:\t  spaced ", " folded", "\tfolded",
    " ", "From a@x.com Mon Jan  1 00:00:00 2024", "From: a@x.com", ": no name", "no colon",
    "Two Words: x", "caf\u00e9: 8-bit name", "X-8bit: caf\u00e9", "", "--B",
]


@st.composite
def header_block(draw):
    """The bytes of a header block and a body, lines ended by "\n", "\r\n"
    or "\r", one kind or mixed; the last line may have no line end."""
    lines = draw(st.lists(st.sampled_from(HEADER_BLOCK_LINES), max_size=8))
    lines += draw(st.lists(st.sampled_from(BODY_LINES), max_size=3))
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]]))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode(draw(st.sampled_from(["utf-8", "latin-1"])))


def split_fields(msg):
    # the raw payload: get_payload() would read distinct 8-bit bytes as one U+FFFD
    return msg._headers, msg._payload, msg.get_unixfrom()


@given(header_block())
@example(b"From: a@x.com\rTo: b@x.com\r\rbody\r")  # CR line ends
@example(b"From: a@x.com\r\nTo: b@x.com\r\n folded\r\n\r\nbody\r\n")  # CRLF line ends
@example(b"From: a@x.com\nTo: b@x.com\r\n folded\rCc: c@x.com\r\n\rbody\n")  # mixed
@example(b" lead\nSubject: hello\n\nbody\n")  # a continuation line first
@example(b"From a@x.com Mon Jan  1 00:00:00 2024\r\n\tlead\r\nSubject: hello\r\n\r\nbody")
@example(b"Subject: hello\nFrom a@x.com Mon Jan  1\n folded\nTo: b@x.com\n\nbody\n")
@example(b"Subject: hello\nFrom a@x.com Mon Jan  1\n\nbody\n")  # "From " last, then blank
@example(b"Subject: hello\nFrom a@x.com Mon Jan  1\nno colon\nbody\n")
@example(b"Subject: hello\n: no name\n folded\nTo: b@x.com\n\nbody\n")  # ":" first
@example(b"Subject: hello\nno colon\n\nbody\n")  # no blank line before the body
@example(b"no colon\nSubject: hello\n")  # no headers at all
@example(b"\r\nSubject: hello\r\n")
@example(b"")
@example(b"Subject:\t  hello \r\n folded ")  # no line end at the end
@example(b"X-8bit: caf\xc3\xa9\ncaf\xe9: 8-bit name\n\nbody \xff\n")  # 8-bit bytes
@settings(max_examples=300, deadline=None)
def test_header_split_matches_stdlib_parse(raw):
    split = ingest._split_headers(raw.decode("ascii", "surrogateescape"))
    assert split_fields(split) == split_fields(stdlib_split_headers(raw))


def mime_mbox(path, count):
    """`count` mails of five MIME shapes, none with a message/* part:
    single-part, alternative, nested mixed with an attachment, base64
    and quoted-printable; every other one has CRLF line ends."""
    shapes = [
        ("text/plain", ["plain words"]),
        ('multipart/alternative; boundary="alt"',
         ["--alt", "Content-Type: text/plain", "", "alternative words", "--alt",
          "Content-Type: text/html", "", "<p>markup words</p>", "--alt--"]),
        ('multipart/mixed; boundary="mix"',
         ["preamble", "--mix", 'Content-Type: multipart/alternative; boundary="alt"', "",
          "--alt", "Content-Type: text/plain; charset=utf-8",
          "Content-Transfer-Encoding: base64", "", "bmVzdGVkIHdvcmRz", "--alt--", "--mix",
          'Content-Type: application/pdf; name="a.pdf"',
          'Content-Disposition: attachment; filename="a.pdf"', "", "JVBERi0=", "--mix--"]),
        ("text/plain; charset=utf-8", ["caf=C3=A9 quoted words"]),
        ('multipart/mixed; boundary="=_x"',
         ["--=_x", 'Content-Disposition: attachment; filename="a.txt"', "", "attached",
          "--=_x", "Content-Type: text/plain; format=flowed", "", "mixed words", "--=_x--"]),
    ]
    with open(path, "wb") as fh:
        for i in range(count):
            content_type, body = shapes[i % len(shapes)]
            end = "\r\n" if i % 2 else "\n"
            encoding = ["Content-Transfer-Encoding: quoted-printable"] if i % 5 == 3 else []
            lines = ["From MAILER-DAEMON Mon Jan  1 00:00:00 2024", "From: a@x.com",
                     "To: b@x.com", f"Date: Mon, 1 Jan 2024 00:{i % 60:02}:00 +0000",
                     f"Message-ID: <m{i}@x.com>", f"Content-Type: {content_type}", *encoding,
                     "", *body, ""]
            fh.write(end.join(lines).encode())


def test_parse_piece_runs_no_feedparser(tmp_path, monkeypatch):
    path = tmp_path / "mime.mbox"
    mime_mbox(path, 50)
    piece = str(path), 0, path.stat().st_size
    expected = ingest._parse_piece(piece, (IngestConfig(), ingest._Memo({})))
    assert expected[0] == 0
    assert [event.tokens for event in expected[1][:5]] == [
        ["plain", "words"], ["alternative", "words"], ["nested", "words"],
        ["café", "quoted", "words"], ["mixed", "words"]]

    def refuse(*args, **kwargs):
        raise AssertionError("email.feedparser parsed a mail")

    monkeypatch.setattr(email.feedparser.FeedParser, "__init__", refuse)
    assert ingest._parse_piece(piece, (IngestConfig(), ingest._Memo({}))) == expected


# ---------------------------------------------------------------------------
# alias and unit maps
# ---------------------------------------------------------------------------

def test_read_alias_csv(tmp_path):
    path = tmp_path / "aliases.csv"
    path.write_text("raw_address,canonical_address\nJDoe@x.com,jane.doe@x.com\n")
    assert read_alias_csv(path) == {"jdoe@x.com": "jane.doe@x.com"}


def test_read_unit_csv_rejects_conflicting_assignment(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text("address,unit\na@x.com,u1\na@x.com,u2\n")
    with pytest.raises(EventSchemaError, match="row 3"):
        read_unit_csv(path)


def test_read_unit_csv_bad_row_names_row(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text("address,unit\nnot-an-address,u1\n")
    with pytest.raises(EventSchemaError, match="row 2"):
        read_unit_csv(path)


# ---------------------------------------------------------------------------
# shared strings and once-per-address checks in read_event_csv
# ---------------------------------------------------------------------------

def test_event_csv_repeats_share_one_string(tmp_path):
    path = tmp_path / "events.csv"
    write_event_csv([
        mk_event("a@x.com", ["b@x.com"], hours=1, tokens=["plan", "plan", "notes"]),
        mk_event("b@x.com", ["a@x.com", "c@x.com"], hours=2, tokens=["plan"]),
    ], path)
    first, second = read_event_csv(path).to_events()
    assert first.tokens[0] is first.tokens[1] is second.tokens[0]
    assert first.sender is second.recipients[0][0]
    assert first.recipients[0][0] is second.sender


@pytest.mark.parametrize("last, message", [
    (mk_event("a@x.com", ["b@x.com", "Bad@X.com"], hours=3),
     "non-canonical recipient: 'Bad@X.com'"),
    (mk_event("A@x.com", ["b@x.com"], hours=3), "non-canonical sender: 'A@x.com'"),
    (mk_event("a@x.com", ["b@x.com", "a@x.com"], hours=3), "sender duplicated in recipients"),
    (mk_event("a@x.com", [("b@x.com", 1.5)], hours=3), "recipient weight out of (0,1]: 1.5"),
])
def test_event_csv_fault_after_good_rows_names_its_row(tmp_path, last, message):
    path = tmp_path / "events.csv"
    write_event_csv([
        mk_event("a@x.com", ["b@x.com"], hours=1),
        mk_event("b@x.com", ["a@x.com"], hours=2),
        last,
        mk_event("Bad@X.com", ["a@x.com"], hours=4),
    ], path)
    with pytest.raises(EventSchemaError) as raised:
        read_event_csv(path)
    assert str(raised.value) == f"row 4, column *: {message}"


# ---------------------------------------------------------------------------
# address headers: split before decoding, canonicalized once per raw form
# ---------------------------------------------------------------------------

def test_encoded_display_name_adds_no_recipient(tmp_path):
    path = tmp_path / "phantom.mbox"
    make_mbox(path, [({**BASE_HEADERS, "To": "=?utf-8?q?bob=40x=2Ecom=2C_Team?= <carol@x.com>"},
                      "hello")])
    (event,) = parse_mbox(path)
    assert event.recipients == [("carol@x.com", 1.0)]


def test_encoded_sender_name_with_comma_is_parsed(tmp_path):
    path = tmp_path / "comma.mbox"
    make_mbox(path, [({**BASE_HEADERS,
                       "From": "=?utf-8?q?M=C3=BCller=2C_J=C3=BCrgen?= <JM@x.com>"}, "hello")])
    report = IngestReport()
    (event,) = parse_mbox(path, report=report)
    assert event.sender == "jm@x.com"
    assert report.skipped == 0


def test_each_raw_address_canonicalized_once(tmp_path, monkeypatch):
    import orgsignals.ingest as ingest

    calls = []

    def counting(raw, aliases=None):
        calls.append(raw)
        return canonicalize_actor(raw, aliases)

    monkeypatch.setattr(ingest, "canonicalize_actor", counting)
    path = tmp_path / "many.mbox"
    make_mbox(path, [
        ({**BASE_HEADERS, "Message-ID": f"<m{i}@x.com>", "Cc": "C@x.com, c@x.com"}, "hi")
        for i in range(5)
    ])
    events = parse_mbox(path)
    assert len(events) == 5
    assert sorted(calls) == ["C@x.com", "a@x.com", "b@x.com", "c@x.com"]
    assert events[0].recipients == [("b@x.com", 1.0), ("c@x.com", 0.5)]


def test_duplicate_across_archives_kept_once(tmp_path):
    first, second = tmp_path / "one.mbox", tmp_path / "two.mbox"
    make_mbox(first, [(BASE_HEADERS, "hello")])
    make_mbox(second, [(BASE_HEADERS, "hello"),
                       ({**BASE_HEADERS, "Message-ID": "<m2@x.com>"}, "other")])
    report = IngestReport()
    events = parse_mbox([first, second], report=report)
    assert [e.message_id for e in events] == ["<m1@x.com>", "<m2@x.com>"]
    assert (report.parsed, report.deduped) == (2, 1)


# ---------------------------------------------------------------------------
# byte-range splitting, checked against mailbox.mbox
# ---------------------------------------------------------------------------

# Concatenated, these make lines of every kind the splitter must tell
# apart: "From " lines (in bodies too, unescaped), CRLF and bare "\r"
# endings, runs of blank lines ("\n" is listed twice to come up more
# often), junk before the first "From " line, a "From" without its
# space, a last line without a newline and, from no fragments, an empty
# file.
MBOX_FRAGMENTS = [
    b"From a@x.com Mon Jan  1 00:00:00 2024\n", b"From \n", b"From x\r\n",
    b"\n", b"\n", b"\r\n", b"body text\n", b">From quoted\n", b"Subject: s\r\n",
    b"From", b" ", b"x", b"\r",
]


def mailbox_messages(path):
    box = mailbox.mbox(str(path), create=False)
    try:
        return [box.get_bytes(key) for key in box.keys()]
    finally:
        box.close()


@given(st.lists(st.sampled_from(MBOX_FRAGMENTS), max_size=40), st.data())
@settings(max_examples=300, deadline=None)
def test_mbox_ranges_split_like_mailbox(tmp_path_factory, fragments, data):
    path = tmp_path_factory.mktemp("split") / "box.mbox"
    path.write_bytes(b"".join(fragments))
    size = path.stat().st_size
    expected = mailbox_messages(path)
    assert list(ingest._mbox_messages(path, 0, size)) == expected

    cuts = sorted(data.draw(st.lists(st.integers(0, size), max_size=6)))
    bounds = [0, *cuts, size]
    assert [raw for start, stop in zip(bounds, bounds[1:])
            for raw in ingest._mbox_messages(path, start, stop)] == expected

    piece_bytes = data.draw(st.integers(1, size + 1))
    pieces = ingest._pieces([path], [size], piece_bytes)
    assert [raw for piece in pieces for raw in ingest._mbox_messages(*piece)] == expected


# ---------------------------------------------------------------------------
# the worker pool gives what the in-process path gives
# ---------------------------------------------------------------------------

class RecordingPool(concurrent.futures.ProcessPoolExecutor):
    """A ProcessPoolExecutor that records the pieces mapped over it."""

    pieces = []

    def map(self, fn, pieces, **kwargs):
        RecordingPool.pieces = list(pieces)
        return super().map(fn, RecordingPool.pieces, **kwargs)


def use_pool_of_small_pieces(monkeypatch):
    """Make parse_mbox cut pieces of about 300 bytes and parse them on a
    pool of three workers, whatever the number of CPUs."""
    monkeypatch.setattr(ingest, "_MIN_PIECE_BYTES", 300)
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.pieces = []


def varied_mbox(path, first_id):
    """Messages that parse_mbox parses, skips and drops as broadcasts, and
    at the end a duplicate of the first one."""
    first = {**BASE_HEADERS, "Message-ID": first_id}
    no_date = {k: v for k, v in BASE_HEADERS.items() if k != "Date"}
    make_mbox(path, [
        (first, "first words"),
        ({**BASE_HEADERS, "Message-ID": "<cc@x.com>", "Cc": "C@x.com, a@x.com"}, "cc words"),
        ({**no_date, "Message-ID": "<nodate@x.com>"}, "never parsed"),
        ({**BASE_HEADERS, "Message-ID": "<wide@x.com>",
          "To": ", ".join(f"r{i}@x.com" for i in range(5))}, "to everyone"),
        ({**BASE_HEADERS, "Message-ID": "<late@x.com>",
          "Date": "Sun, 1 Dec 2024 00:00:00 +0000"}, "out of range"),
        ({**BASE_HEADERS, "Message-ID": "<enc@x.com>",
          "From": "=?utf-8?q?M=C3=BCller=2C_J=C3=BCrgen?= <JM@x.com>"},
         "new text\n> quoted text\nOn Mon, Jan 1, a@x.com wrote:\nold text"),
        (first, "first words again"),
    ])


def integration_mbox(path):
    """The events of tests/test_integration.py as mail, one message each."""
    messages = []
    for index in range(16):
        for event in unit_events(index)[1]:
            messages.append(({
                "From": event.sender,
                "To": ", ".join(addr for addr, _ in event.recipients),
                "Date": format_datetime(event.timestamp),
                "Message-ID": event.message_id,
                "Subject": f"Re: round {index}",
            }, " ".join(event.tokens)))
    make_mbox(path, messages)


def test_pool_matches_in_process_with_duplicates(tmp_path, monkeypatch):
    one, two = tmp_path / "one.mbox", tmp_path / "two.mbox"
    varied_mbox(one, "<first@x.com>")
    varied_mbox(two, "<second@x.com>")  # all but its first message repeat one.mbox
    config = IngestConfig(broadcast_threshold=3,
                          date_end=datetime(2024, 6, 1, tzinfo=timezone.utc))
    alone = IngestReport()
    expected = parse_mbox([one, two], config, alone)
    assert alone == IngestReport(parsed=4, skipped=4, deduped=4, broadcast_dropped=2)

    use_pool_of_small_pieces(monkeypatch)
    pooled = IngestReport()
    assert parse_mbox([one, two], config, pooled) == expected
    assert pooled == alone
    # the last message of one.mbox repeats its first from a later piece
    last = one.read_bytes().rindex(b"\nFrom ") + 1
    starts = [start for path, start, stop in RecordingPool.pieces
              if path == str(one) and start <= last < stop]
    assert starts[0] > 0


def test_pool_matches_in_process_on_integration_corpus(tmp_path, monkeypatch):
    path = tmp_path / "chain.mbox"
    integration_mbox(path)
    alone = IngestReport()
    expected = parse_mbox(path, report=alone)
    assert alone == IngestReport(parsed=728)

    use_pool_of_small_pieces(monkeypatch)
    pooled = IngestReport()
    assert parse_mbox(path, report=pooled) == expected
    assert pooled == alone
    assert len(RecordingPool.pieces) > 3


class ExitWhenUnpickled:
    """Ends the process that unpickles it."""

    def __reduce__(self):
        return os._exit, (3,)


def test_pool_fault_propagates_and_is_not_skipped(tmp_path, monkeypatch):
    path = tmp_path / "one.mbox"
    varied_mbox(path, "<first@x.com>")
    use_pool_of_small_pieces(monkeypatch)
    report = IngestReport()
    with pytest.raises(BrokenProcessPool):
        parse_mbox(path, IngestConfig(aliases={"a@x.com": ExitWhenUnpickled()}), report)
    assert report == IngestReport()


def test_read_fault_propagates_and_is_not_skipped(tmp_path, monkeypatch):
    path = tmp_path / "one.mbox"
    varied_mbox(path, "<first@x.com>")
    real = ingest._mbox_messages

    def failing(*piece):
        messages = real(*piece)
        yield next(messages)
        raise OSError("read error")

    monkeypatch.setattr(ingest, "_mbox_messages", failing)
    report = IngestReport()
    with pytest.raises(OSError, match="read error"):
        parse_mbox(path, report=report)
    assert report == IngestReport()
