"""Seeded mbox archives for the mbox-ingest workload, with the events the
archives should yield.

The generator writes the mbox text itself (one `From ` line, headers, a
blank line, the body), which is far faster than `mailbox.mbox.add`, and
records for every message the event that `ingest` should make of it: the
canonical sender, the To and Cc recipients in order with self-sends and
repeats dropped, the UTC timestamp, the reply link, the normalized
subject and the body tokens outside quoted material.  The expected
tokens are the words the generator placed in the body, not the output of
a tokenizer: everything it adds around them (capitals, digits, single
letters, punctuation, quotes, HTML, attachments, transfer encodings) is
chosen so that the documented rules drop it.

The make-up is the same for every seed; only the choice of people,
words, layouts and times follows the seed.  The recipient mix is matched
to the `canonicalize_actor` call rate of a profiled prototype archive;
the other proportions are assumptions (README.md says which and why):

- `N_MESSAGES` messages in `N_ARCHIVES` archives, every timestamp a
  distinct second, so the time order of the expected events is unique;
- `PLANTED_DUPLICATES` repeats of earlier messages of the same archive,
  `PLANTED_SKIPPED` malformed messages and `PLANTED_BROADCASTS` messages
  with more recipients than the broadcast threshold;
- `PHANTOM_MESSAGES`, a fixed set that does not depend on the seed: each
  has a recipient whose RFC 2047 encoded display name decodes to
  `<address>, <name>`.  Decoding before splitting the address list turns
  that display name into an extra recipient, so these are counted as
  failed operations while that fault stands.
"""

from __future__ import annotations

import base64
import json
import quopri
import random
from datetime import datetime, timedelta, timezone
from email.header import Header
from email.utils import format_datetime
from pathlib import Path

N_MESSAGES = 20_000
N_ARCHIVES = 2
PLANTED_DUPLICATES = 150
PLANTED_SKIPPED = 120
PLANTED_BROADCASTS = 30
BROADCAST_THRESHOLD = 100  # the CLI default of `ingest --broadcast-threshold`
TO_WEIGHT = 1.0
CC_WEIGHT = 0.5
# Recipient mix (see README.md, "Inputs"): To names 1, 2 or 3 people with
# these weights, CC_SHARE of the messages have a Cc of 1 or 2, and
# SELF_COPY_SHARE copy the sender in.  That is about 1.2 address entries
# a message, so `canonicalize_actor` runs about 2.4 times a message.
TO_SIZE_WEIGHTS = (0.92, 0.07, 0.01)
CC_SHARE = 0.04
SELF_COPY_SHARE = 0.02

START = datetime(2024, 1, 1, tzinfo=timezone.utc)
SPAN_SECONDS = 180 * 86400
DOMAIN = "corp.example"
ALIAS_DOMAIN = "mail.corp.example"

FIRST = ["anna", "ben", "carla", "dev", "emma", "farid", "greta", "hugo", "ines", "jonas",
         "karin", "liam", "mona", "nils", "olga", "pavel", "quinn", "rosa", "sven", "tara"]
LAST = ["adler", "berg", "costa", "diaz", "engel", "fischer", "garcia", "hansen", "ivanov",
        "jung", "keller", "lopez", "meyer", "novak", "ortiz", "peters", "quast", "richter",
        "schmidt", "torres", "ulrich", "vogel", "weber", "yilmaz", "zimmer"]
# display forms with non-ASCII letters, sent as RFC 2047 encoded words
ACCENTED = {"greta": "Grétä", "hugo": "Hügo", "ines": "Inés", "jonas": "Jönas",
            "muller": "Müller", "zimmer": "Zïmmer", "costa": "Cósta",
            "diaz": "Díaz", "lopez": "López", "yilmaz": "Yılmaz"}
N_PEOPLE = 300

WORDS = ("budget review plan team meeting agenda report draft figures quarter sales "
         "market client project launch schedule update notes action items design "
         "testing release cost estimate forecast hiring office travel contract vendor "
         "invoice payment approval policy training support ticket incident server "
         "network backup storage customer feedback survey results target growth "
         "risk audit compliance legal offer proposal pricing discount partner "
         "workshop slides summary decision deadline priority status weekly monthly "
         "annual board review strategy roadmap milestone feature request bug patch "
         "deploy staging production metrics dashboard analysis data model quality").split()
# words with letters outside ASCII; they reach the tokenizer through
# quoted-printable and base64 bodies and encoded subjects
UNICODE_WORDS = ["größe", "café", "naïve", "résumé",
                 "übersicht", "planung", "são", "mañana", "façade",
                 "été"]
QUOTED_WORDS = ["quotedonly", "earliermail", "oldthread", "previously", "forwardedtext"]
HIDDEN_WORDS = ["attachmentword", "htmlalternative", "invisiblepart"]


class Person:
    """One correspondent: a canonical address, maybe an alias, and the few
    raw forms (display names, letter case, alias) that mail clients write
    for them, as in a real archive where each person appears in a handful
    of spellings."""

    __slots__ = ("canonical", "alias", "first", "last", "forms")

    def __init__(self, index: int):
        self.first = FIRST[index % len(FIRST)]
        self.last = LAST[(index * 7 + index // len(FIRST)) % len(LAST)]
        self.canonical = f"{self.first}.{self.last}{index}@{DOMAIN}"
        self.alias = f"{self.first[0]}{self.last}{index}@{ALIAS_DOMAIN}" if index % 2 else None
        rng = random.Random(f"person/{index}")
        self.forms = [self._render(rng) for _ in range(rng.randrange(2, 8))]

    def _render(self, rng: random.Random) -> str:
        addr = self.canonical
        if self.alias and rng.random() < 0.35:
            addr = self.alias
        if rng.random() < 0.3:
            addr = "".join(c.upper() if rng.random() < 0.3 else c for c in addr)
        first, last = self.first.capitalize(), self.last.capitalize()
        roll = rng.random()
        if roll < 0.2:
            return addr
        if roll < 0.3:
            return f"<{addr}>"
        if roll < 0.55:
            return f"{first} {last} <{addr}>"
        if roll < 0.75:
            return f'"{last}, {first}" <{addr}>'
        # encoded display name without a comma, so that decoding it first is harmless
        name = f"{ACCENTED.get(self.first, first)} {ACCENTED.get(self.last, last)}"
        return f"{_encoded(name)} <{addr}>"


def _encoded(text: str) -> str:
    return Header(text, "utf-8").encode()


PEOPLE = [Person(i) for i in range(N_PEOPLE)]


def _render_words(rng: random.Random, tokens: list[str]) -> list[str]:
    """Lines holding `tokens` in order, with separators and noise that the
    tokenizer drops (digits, single letters, punctuation)."""
    lines, line = [], []
    i = 0
    while i < len(tokens):
        word = tokens[i]
        roll = rng.random()
        if roll < 0.15:
            word = word.capitalize()
        elif roll < 0.2 and word.isascii():
            word = word.upper()
        if i + 1 < len(tokens) and rng.random() < 0.08:
            word = f"{word}{rng.choice('_-/')}{tokens[i + 1]}"
            i += 1
        line.append(word + rng.choice(["", "", "", ",", ".", ";", "!", "?", ":"]))
        roll = rng.random()
        if roll < 0.05:
            line.append(str(rng.randrange(1, 3000)))
        elif roll < 0.08:
            line.append(rng.choice("aAIx"))
        if len(line) >= rng.randrange(6, 12):
            lines.append(" ".join(line))
            line = []
        i += 1
    if line:
        lines.append(" ".join(line))
    return lines


def _quoted_block(rng: random.Random, sender_name: str, when: datetime) -> list[str]:
    words = [rng.choice(QUOTED_WORDS) for _ in range(rng.randrange(4, 12))]
    style = rng.random()
    quoted = ["> " + " ".join(words[:6]), ">", "> " + " ".join(words[6:]) + " 42"]
    if style < 0.5:
        intro = f"On {format_datetime(when)}, {sender_name} wrote:"
        return ["", intro] + quoted + ["unquoted " + " ".join(words)]
    if style < 0.8:
        return ["", "-----Original Message-----", f"Sent: {format_datetime(when)}",
                "Subject: " + " ".join(words[:3])] + [" ".join(words)]
    return quoted


def _body(rng: random.Random, tokens: list[str], sender: Person, when: datetime):
    """(content-type headers, body text) of one message."""
    layout = rng.random()
    if layout < 0.15:
        # HTML only: tags become breaks or spaces, entities are unescaped
        sep = rng.choice([" ", " &nbsp;", " &amp; "])
        markup = "<html><body><p>" + rng.choice(["<br>", "</p><p>", "<br/>\n"]).join(
            line.replace(" ", sep) for line in _render_words(rng, tokens)
        ) + "</p></body></html>\n"
        return _qp_part("text/html", markup)
    lines = _render_words(rng, tokens)
    if rng.random() < 0.35:
        # quote lines in the middle are dropped one by one
        cut = rng.randrange(len(lines) + 1)
        lines = lines[:cut] + ["> " + rng.choice(QUOTED_WORDS)] + lines[cut:]
    if rng.random() < 0.45:
        lines += _quoted_block(rng, sender.first.capitalize(), when - timedelta(hours=5))
    text = "\n".join(lines) + "\n"
    if layout < 0.55:
        if text.isascii():
            return "Content-Type: text/plain; charset=us-ascii\n", text
        return _qp_part("text/plain", text)
    if layout < 0.70:
        payload = base64.encodebytes(text.encode("utf-8")).decode("ascii")
        return ("Content-Type: text/plain; charset=utf-8\n"
                "Content-Transfer-Encoding: base64\n", payload)
    hidden = " ".join(HIDDEN_WORDS)
    boundary = f"=_b{rng.randrange(10**9):09d}"
    plain = _qp_part("text/plain", text)
    if layout < 0.85:
        # text/plain is preferred over the HTML alternative
        other = _qp_part("text/html", f"<div>{hidden} {' '.join(tokens)}</div>\n")
        kind = "alternative"
    else:
        # a part with a file name is an attachment, never the body
        other = ("Content-Type: text/plain; charset=utf-8; name=\"notes.txt\"\n"
                 "Content-Disposition: attachment; filename=\"notes.txt\"\n", hidden + "\n")
        kind = "mixed"
    body = ["This is a multi-part message in MIME format.", ""]
    for headers, payload in (plain, other):
        body += [f"--{boundary}", headers.rstrip("\n"), "", payload.rstrip("\n")]
    body += [f"--{boundary}--", ""]
    return (f"MIME-Version: 1.0\nContent-Type: multipart/{kind}; boundary=\"{boundary}\"\n",
            "\n".join(body))


def _qp_part(ctype: str, text: str) -> tuple[str, str]:
    payload = quopri.encodestring(text.encode("utf-8")).decode("ascii")
    return (f"Content-Type: {ctype}; charset=utf-8\n"
            "Content-Transfer-Encoding: quoted-printable\n", payload)


def _subject(rng: random.Random, words: list[str], reply: bool) -> str:
    base = " ".join(words)
    prefix = ""
    if reply:
        prefix = rng.choice(["Re: ", "RE: ", "Re: Re: ", "AW: ", "Fwd: ", "FW: ", "re:"])
    spaced = base.replace(" ", rng.choice([" ", "  ", " \t"]))
    text = prefix + (spaced.capitalize() if rng.random() < 0.5 else spaced)
    if any(ord(c) > 127 for c in text) or rng.random() < 0.1:
        return _encoded(text)
    return text


def _fold(name: str, items: list[str]) -> str:
    """A header whose address list is folded over several lines."""
    return f"{name}: " + ",\n ".join(items) + "\n"


def _message(msg_id, date_header, from_header, to_items, cc_items, subject,
             in_reply_to, content_headers, body) -> str:
    head = []
    if from_header is not None:
        head.append(f"From: {from_header}\n")
    if to_items:
        head.append(_fold("To", to_items))
    if cc_items:
        head.append(_fold("Cc", cc_items))
    if subject is not None:
        head.append(f"Subject: {subject}\n")
    if date_header is not None:
        head.append(f"Date: {date_header}\n")
    head.append(f"Message-ID: {msg_id}\n")
    if in_reply_to:
        head.append(f"In-Reply-To: {in_reply_to}\n")
    return "".join(head) + content_headers + "\n" + body


ZONES = [timezone.utc, timezone(timedelta(hours=-5)), timezone(timedelta(hours=5, minutes=30)),
         timezone(timedelta(hours=1)), timezone(timedelta(hours=-8)),
         timezone(timedelta(hours=9))]


def _date_header(rng: random.Random, stamp: datetime) -> str:
    if rng.random() < 0.03:
        # -0000: the zone is unknown, which ingest reads as UTC
        return format_datetime(stamp.replace(tzinfo=None))
    return format_datetime(stamp.astimezone(rng.choice(ZONES)))


def _iso(stamp: datetime) -> str:
    return stamp.astimezone(timezone.utc).isoformat()


def _tokens(rng: random.Random, n: int) -> list[str]:
    return [rng.choice(UNICODE_WORDS) if rng.random() < 0.05 else rng.choice(WORDS)
            for _ in range(n)]


def _recipients(sender: Person, to: list[Person], cc: list[Person]):
    """Expected (address, weight) list: To before Cc, self and repeats dropped."""
    out, seen = [], set()
    for people, weight in ((to, TO_WEIGHT), (cc, CC_WEIGHT)):
        for p in people:
            if p.canonical == sender.canonical or p.canonical in seen:
                continue
            seen.add(p.canonical)
            out.append([p.canonical, weight])
    return out


def _normal_message(rng, msg_id, stamp, earlier_ids):
    sender = rng.choice(PEOPLE)
    to = rng.sample(PEOPLE, rng.choices((1, 2, 3), TO_SIZE_WEIGHTS)[0])
    cc = rng.sample(PEOPLE, rng.randrange(1, 3)) if rng.random() < CC_SHARE else []
    if rng.random() < SELF_COPY_SHARE:
        to.append(sender)  # the sender copied in: dropped as a self-send
    if cc and rng.random() < 0.2:
        cc.append(to[0])  # a repeat across To and Cc keeps the To entry
    recipients = _recipients(sender, to, cc)
    if not recipients:
        to.append(next(p for p in PEOPLE if p is not sender))
        recipients = _recipients(sender, to, cc)
    reply_to = rng.choice(earlier_ids) if earlier_ids and rng.random() < 0.4 else None
    subject_words = _tokens(rng, rng.randrange(1, 5))
    has_subject = rng.random() > 0.02
    tokens = _tokens(rng, rng.randrange(0, 40))
    content_headers, body = _body(rng, tokens, sender, stamp)
    text = _message(
        msg_id, _date_header(rng, stamp), rng.choice(sender.forms),
        [rng.choice(p.forms) for p in to], [rng.choice(p.forms) for p in cc],
        _subject(rng, subject_words, reply_to is not None) if has_subject else None,
        reply_to, content_headers, body,
    )
    event = [msg_id, _iso(stamp), sender.canonical, recipients, reply_to or "",
             " ".join(subject_words) if has_subject else "", tokens]
    return text, event


def _skipped_message(rng, msg_id, stamp, kind):
    """A message ingest must skip: no date, bad date, no sender, no recipient."""
    sender, other = rng.sample(PEOPLE, 2)
    date = _date_header(rng, stamp)
    from_header = rng.choice(sender.forms)
    to = [rng.choice(other.forms)]
    if kind == 0:
        date = None
    elif kind == 1:
        date = "sometime last week"
    elif kind == 2:
        from_header = None
    elif kind == 3:
        from_header = "postmaster without address"
    elif kind == 4:
        to = [rng.choice(sender.forms)]  # only to itself
    elif kind == 5:
        to = ["undisclosed-recipients:;"]
    else:
        to = []
    content_headers, body = _body(rng, _tokens(rng, 8), sender, stamp)
    return _message(msg_id, date, from_header, to, [], "skipped", None,
                    content_headers, body)


def _broadcast_message(rng, msg_id, stamp):
    sender = rng.choice(PEOPLE)
    others = [p for p in PEOPLE if p is not sender]
    to = rng.sample(others, BROADCAST_THRESHOLD + 1 + rng.randrange(60))
    content_headers, body = _body(rng, _tokens(rng, 12), sender, stamp)
    return _message(msg_id, _date_header(rng, stamp), rng.choice(sender.forms),
                    [p.canonical for p in to], [], "All hands", None, content_headers, body)


def phantom_messages() -> list[tuple[str, list]]:
    """The fixed messages that meet the RFC 2047 display-name fault.

    Each To list holds a display name that decodes to
    "<other address>, Team" in front of the real recipient; only the
    real recipient is addressed.  Timestamps are odd seconds, which the
    seeded messages never use.
    """
    out = []
    for k in range(12):
        sender, target, named = PEOPLE[k * 7], PEOPLE[k * 7 + 1], PEOPLE[k * 7 + 2]
        stamp = START + timedelta(seconds=2 * (k * 1_000_003 % (SPAN_SECONDS // 2)) + 1)
        name = _encoded(f"{named.canonical}, Team")
        tokens = ["phantom", "check", WORDS[k]]
        msg_id = f"<phantom.{k}@{DOMAIN}>"
        text = _message(
            msg_id, format_datetime(stamp), sender.canonical, [f"{name} <{target.canonical}>"],
            [], f"Phantom check {k}", None,
            "Content-Type: text/plain; charset=us-ascii\n", " ".join(tokens) + "\n",
        )
        event = [msg_id, _iso(stamp), sender.canonical, [[target.canonical, TO_WEIGHT]], "",
                 f"phantom check {k}", tokens]
        out.append((text, event))
    return out


def _escape_from(text: str) -> str:
    return "\n".join(">" + line if line.startswith("From ") else line
                     for line in text.split("\n"))


def write_archives(seed: int, out_dir: Path) -> dict:
    """Write the archives, `aliases.csv` and `expected.json` into `out_dir`."""
    rng = random.Random(f"mbox/{seed}")
    phantoms = phantom_messages()
    n_seeded = N_MESSAGES - len(phantoms)
    n_normal = n_seeded - PLANTED_DUPLICATES - PLANTED_SKIPPED - PLANTED_BROADCASTS
    slots = rng.sample(range(SPAN_SECONDS // 2), n_seeded)
    stamps = [START + timedelta(seconds=2 * s) for s in slots]

    kinds = (["normal"] * n_normal + ["skipped"] * PLANTED_SKIPPED
             + ["broadcast"] * PLANTED_BROADCASTS)
    rng.shuffle(kinds)
    per_archive = -(-len(kinds) // N_ARCHIVES)
    archives: list[list[str]] = []
    expected: list[list] = []
    for a in range(N_ARCHIVES):
        texts: list[str] = []
        earlier_ids: list[str] = []
        for i, kind in enumerate(kinds[a * per_archive:(a + 1) * per_archive]):
            index = a * per_archive + i
            msg_id = f"<{seed}.{index}.{rng.randrange(16**8):08x}@{DOMAIN}>"
            stamp = stamps[index]
            if kind == "normal":
                text, event = _normal_message(rng, msg_id, stamp, earlier_ids[-500:])
                earlier_ids.append(msg_id)
                expected.append(event)
            elif kind == "skipped":
                text = _skipped_message(rng, msg_id, stamp, index % 7)
            else:
                text = _broadcast_message(rng, msg_id, stamp)
            texts.append(text)
        archives.append(texts)
    # repeats of earlier normal messages, later in the same archive
    for k in range(PLANTED_DUPLICATES):
        texts = archives[k % N_ARCHIVES]
        while True:
            pos = rng.randrange(len(texts))
            if "\nSubject: skipped\n" not in texts[pos] and "All hands" not in texts[pos]:
                break
        texts.insert(rng.randrange(pos + 1, len(texts) + 1), texts[pos])
    for k, (text, event) in enumerate(phantoms):
        texts = archives[k % N_ARCHIVES]
        texts.insert(k * 97 % len(texts), text)
        expected.append(event)

    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for a, texts in enumerate(archives):
        name = f"archive{a}.mbox"
        names.append(name)
        with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
            for text in texts:
                fh.write("From MAILER-DAEMON Mon Jan  1 00:00:00 2024\n")
                fh.write(_escape_from(text).rstrip("\n") + "\n\n")
    with open(out_dir / "aliases.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("raw_address,canonical_address\n")
        for p in PEOPLE:
            if p.alias:
                fh.write(f"{p.alias},{p.canonical}\n")
    expected.sort(key=lambda e: e[1])
    planted = {
        "parsed": len(expected),
        "skipped": PLANTED_SKIPPED,
        "deduped": PLANTED_DUPLICATES,
        "broadcast_dropped": PLANTED_BROADCASTS,
    }
    sidecar = {
        "archives": names,
        "messages": N_MESSAGES,
        "planted": planted,
        "phantom_ids": [event[0] for _, event in phantoms],
        "events": expected,
    }
    with open(out_dir / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)
    return sidecar
