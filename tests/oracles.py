"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's algorithms: betweenness is checked
by enumerating all simple paths (and, on graphs too large for that, by
textbook one-source-at-a-time Brandes), oscillations by a literal
local-extrema count, response runs by an explicit message-list scanner
(and, over whole event lists, by one merged sort per actor pair), OLS
by the normal equations, the columnar event stages by walking the
event objects one at a time, the event CSV reader by parsing each
row into a MessageEvent and validating it, a mail's body by the
standard library's full MIME parse, and a mail's header block by the
standard library's headers-only parse.

Two references are earlier forms of the library's own code, for tests
that ask for the same output bit for bit: the Brandes kernel with every
block in float64, and the reply runs as one walk in time order.
"""

import csv
import email
import math
from bisect import bisect_left
from collections import Counter, defaultdict, deque
from datetime import datetime, timedelta, timezone
from email.parser import BytesParser
from fractions import Fraction
from itertools import chain

import numpy as np
from scipy import sparse

from orgsignals._betweenness_py import SOURCE_BLOCK
from orgsignals.ingest import (
    EVENT_CSV_COLUMNS,
    EventSchemaError,
    MessageEvent,
    _html_to_text,
)
from orgsignals.signals import ResponseEvent
from orgsignals.table import EventTable, stamp_datetime


def brute_betweenness(n: int, edges: set[tuple[int, int]]) -> list[Fraction]:
    """Normalized betweenness by enumerating every simple path per pair."""
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    raw = [Fraction(0) for _ in range(n)]
    for s in range(n):
        for t in range(s + 1, n):
            paths: list[list[int]] = []

            def dfs(v, path):
                if v == t:
                    paths.append(list(path))
                    return
                for w in adj[v]:
                    if w not in path:
                        path.append(w)
                        dfs(w, path)
                        path.pop()

            dfs(s, [s])
            if not paths:
                continue
            shortest_len = min(len(p) for p in paths)
            shortest = [p for p in paths if len(p) == shortest_len]
            for v in range(n):
                if v in (s, t):
                    continue
                through = sum(1 for p in shortest if v in p)
                raw[v] += Fraction(through, len(shortest))
    denom = Fraction((n - 1) * (n - 2), 2)
    return [x / denom if denom else Fraction(0) for x in raw]


def loop_brandes(n: int, edges: set[tuple[int, int]]) -> list[float]:
    """Ordered-pair betweenness scores, one BFS and one sweep per source.

    Brandes (2001) as published, on an undirected simple graph; the
    kernels' contract, so the caller halves the scores.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    scores = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0.0] * n
        delta = [0.0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s], sigma[s] = 0, 1.0
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                scores[w] += delta[w]
    return scores


def float64_brandes_accumulate(indptr, indices, n: int) -> np.ndarray:
    """`_betweenness_py.brandes_accumulate` with every block in float64.

    The same block-synchronous Brandes, block order and float operations,
    with each level of the forward sweep a sparse product of the float64
    adjacency, and the sweep ending on a level that reaches nothing new.
    The kernel counts its paths in float32 below 2**24, and must match
    this bit for bit.
    """
    adjacency = sparse.csr_array(
        (np.ones(len(indices), dtype=np.float64), indices, indptr), shape=(n, n)
    )
    scores = _float64_block_dependencies(adjacency, 0, n, SOURCE_BLOCK)
    for first in range(SOURCE_BLOCK, n, SOURCE_BLOCK):
        scores += _float64_block_dependencies(adjacency, first, n, SOURCE_BLOCK)
    return scores


def _float64_block_dependencies(adjacency, first: int, n: int, block: int) -> np.ndarray:
    width = min(block, n - first)
    columns = np.arange(width)
    shape = (n, width)
    dist = np.zeros(shape, dtype=np.int32)
    unreached = np.ones(shape, dtype=bool)
    unreached[columns + first, columns] = False
    frontier = np.zeros(shape, dtype=np.float64)
    frontier[columns + first, columns] = 1.0
    sigma = frontier.copy()

    fresh = np.empty(shape, dtype=bool)
    depth = 0
    while True:
        frontier = adjacency @ frontier
        np.greater(frontier, 0.0, out=fresh)
        fresh &= unreached
        dist += unreached
        if not fresh.any():
            break
        depth += 1
        frontier *= fresh
        sigma += frontier
        unreached ^= fresh

    sigma += unreached
    delta = np.zeros(shape, dtype=np.float64)
    level = fresh
    np.equal(dist, depth, out=level)
    work = frontier
    for d in range(depth, 1, -1):
        np.add(delta, 1.0, out=work)
        work /= sigma
        work *= level
        work = adjacency @ work
        np.equal(dist, d - 1, out=level)
        work *= sigma
        work *= level
        delta += work
    return delta.sum(axis=1)


def brute_oscillations(series: list[float]) -> int:
    """Strict local extrema of the plateau-compressed series."""
    compressed = [series[0]]
    for x in series[1:]:
        if x != compressed[-1]:
            compressed.append(x)
    return sum(
        1
        for i in range(1, len(compressed) - 1)
        if (compressed[i] - compressed[i - 1]) * (compressed[i + 1] - compressed[i]) < 0
    )


def brute_response_runs(requests, responses, horizon):
    """Explicit run scanner over one ordered pair's message times.

    Returns (run_start, run_last, response_at, nudges) tuples.  Requests
    sort ahead of responses at equal timestamps; a response must be
    strictly later than the last request of the run it closes.
    """
    merged = sorted([(t, 0) for t in requests] + [(t, 1) for t in responses])
    run: list = []
    out = []
    for t, kind in merged:
        if kind == 0:
            run.append(t)
        elif run and t > max(run):
            if t - min(run) <= horizon:
                out.append((min(run), max(run), t, len(run)))
            run = []
    return out


def pairwise_response_events(events, horizon) -> list[ResponseEvent]:
    """Request runs found pair by pair, from one sorted merge per pair.

    For each ordered pair (A, B), A's request times and B's reply times
    are merged in one sorted list, requests ahead of replies at equal
    timestamps, and scanned for runs.  Same contract and output order as
    `signals.extract_response_events`.
    """
    pair_times = defaultdict(list)
    for e in events:
        for addr, _ in e.recipients:
            pair_times[(e.sender, addr)].append(e.timestamp)
    out = []
    for (requester, responder), requests in pair_times.items():
        responses = pair_times.get((responder, requester), [])
        merged = sorted([(t, 0) for t in requests] + [(t, 1) for t in responses])
        run_start = run_last = None
        nudges = 0
        for t, kind in merged:
            if kind == 0:
                if run_start is None:
                    run_start, run_last, nudges = t, t, 1
                else:
                    run_last = t
                    nudges += 1
            elif run_start is not None and t > run_last:
                if t - run_start <= horizon:
                    out.append(ResponseEvent(requester, responder, run_start, run_last, t, nudges))
                run_start, run_last, nudges = None, None, 0
    out.sort(key=lambda r: (r.run_start, r.requester, r.responder))
    return out


def loop_response_events(table: EventTable, max_response_horizon) -> list[ResponseEvent]:
    """`signals.extract_response_events` as one walk over the recipient
    entries in time order, holding the open run of each actor pair.

    Within one timestamp every entry first acts as a request, then as a
    reply, so a reply never closes a run whose last request has the same
    timestamp.  Pairs are keyed sender * A + recipient over actor ids.
    """
    table = table.time_sorted()
    k = len(table.actors)
    horizon = max_response_horizon // timedelta(microseconds=1)
    src = table.recipient_senders().astype(np.int64)
    dst = table.recipient_ids.astype(np.int64)
    stamps = np.repeat(table.stamp_us, np.diff(table.recipient_indptr))
    requests, replies = (src * k + dst).tolist(), (dst * k + src).tolist()
    # the first entry of each timestamp, then the end
    cuts = [*np.flatnonzero(np.diff(stamps, prepend=stamps[:1] - 1)).tolist(), len(stamps)]
    stamps = stamps.tolist()

    open_runs: dict[int, list] = {}  # pair -> [run start, last request, nudges]
    closed = []
    for first, last in zip(cuts, cuts[1:]):
        stamp = stamps[first]
        for pair in requests[first:last]:
            run = open_runs.get(pair)
            if run is None:
                open_runs[pair] = [stamp, stamp, 1]
            else:
                run[1] = stamp
                run[2] += 1
        for pair in replies[first:last]:
            run = open_runs.get(pair)
            if run is not None and stamp > run[1]:
                del open_runs[pair]
                if stamp - run[0] <= horizon:
                    closed.append((run[0], *divmod(pair, k), run[1], stamp, run[2]))
    closed.sort()  # actor ids are ranks, so this is (run_start, requester, responder) order
    actors = table.actors
    return [
        ResponseEvent(actors[requester], actors[responder], stamp_datetime(start),
                      stamp_datetime(last), stamp_datetime(response_at), nudges)
        for start, requester, responder, last, response_at, nudges in closed
    ]


def normal_equations_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference OLS solve via (X'X)^-1 X'y."""
    return np.linalg.solve(x.T @ x, x.T @ y)


# ---------------------------------------------------------------------------
# Event-object walks: the references for the columnar stages of graph.py
# and signals.py, which must match them bit for bit.
# ---------------------------------------------------------------------------

def loop_windows(events, cfg):
    """(sorted nodes, edges) of each window, one event object at a time.

    `events` is time-sorted.  Each message in [start, end) adds its sender
    and recipients as nodes, and one message and its weight to the edge
    (sender, recipient), in event order.
    """
    from orgsignals.graph import window_spans

    stamps = [e.timestamp for e in events]
    out = []
    for start, end in window_spans(cfg):
        edges = {}
        nodes = set()
        for e in events[bisect_left(stamps, start):bisect_left(stamps, end)]:
            nodes.add(e.sender)
            for addr, weight in e.recipients:
                nodes.add(addr)
                count, total = edges.get((e.sender, addr), (0, 0.0))
                edges[(e.sender, addr)] = (count + 1, total + weight)
        out.append((sorted(nodes), edges))
    return out


def loop_symmetrized_csr(nodes, edges):
    """Simple undirected adjacency (indptr, indices) over `nodes`, from sets."""
    pos = {v: i for i, v in enumerate(nodes)}
    neighbours = [set() for _ in nodes]
    for src, dst in edges:
        a, b = pos[src], pos[dst]
        if a != b:
            neighbours[a].add(b)
            neighbours[b].add(a)
    indptr = [0]
    flat = []
    for ns in neighbours:
        flat.extend(sorted(ns))
        indptr.append(len(flat))
    return np.array(indptr), np.array(flat, dtype=np.int64)


def loop_actor_activity(events):
    """Per-actor (sent, received) counts; each recipient occurrence counts 1."""
    sent, received = Counter(), Counter()
    for e in events:
        sent[e.sender] += 1
        for addr, _ in e.recipients:
            received[addr] += 1
    return {a: (sent[a], received[a]) for a in set(sent) | set(received)}


def loop_honest_sentiment(events, lexicon):
    """Population standard deviation of per-message emotional-token density."""
    emotional = lexicon.positive | lexicon.negative
    values = [sum(t in emotional for t in e.tokens) / len(e.tokens) for e in events if e.tokens]
    if len(values) < 2:
        raise ValueError("insufficient messages")
    mean = math.fsum(values) / len(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


def loop_token_counts(events):
    return Counter(chain.from_iterable(e.tokens for e in events))


def loop_read_event_csv(path) -> list[MessageEvent]:
    """The events of an event CSV, one MessageEvent per row: each row is
    parsed field by field, then checked by `MessageEvent.validate`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != EVENT_CSV_COLUMNS:
            raise EventSchemaError(
                f"row 1, column header: expected {','.join(EVENT_CSV_COLUMNS)}"
            )
        return [_row_event(row, lineno) for lineno, row in enumerate(reader, start=2)]


def table_rows(table: EventTable) -> list[tuple]:
    """Each row of the table as (timestamp, sender, recipients, tokens), by
    string: the fields of a MessageEvent that a table keeps."""
    actors, words = table.actors, table.words
    rec_ptr, rec_ids = table.recipient_indptr.tolist(), table.recipient_ids.tolist()
    weights = table.recipient_weights.tolist()
    tok_ptr, tok_ids = table.token_indptr.tolist(), table.token_ids.tolist()
    return [
        (stamp_datetime(us), actors[sender],
         [(actors[a], w) for a, w in zip(rec_ids[rec_ptr[i]:rec_ptr[i + 1]],
                                         weights[rec_ptr[i]:rec_ptr[i + 1]])],
         [words[t] for t in tok_ids[tok_ptr[i]:tok_ptr[i + 1]]])
        for i, (us, sender) in enumerate(zip(table.stamp_us.tolist(), table.sender.tolist()))
    ]


def _row_event(row: list[str], lineno: int) -> MessageEvent:
    if len(row) != len(EVENT_CSV_COLUMNS):
        raise EventSchemaError(f"row {lineno}, column count: got {len(row)} fields")
    msg_id, stamp_raw, sender, recips_raw, reply_raw, subject, tokens_raw = row
    try:
        timestamp = datetime.fromisoformat(stamp_raw.replace("Z", "+00:00"))
        if timestamp.tzinfo is not None:
            timestamp = timestamp.astimezone(timezone.utc)
    except (ValueError, OverflowError):
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
        addr, sep, weight_raw = item.rpartition(":")
        try:
            weight = float(weight_raw)
        except ValueError:
            sep = ""
        if not sep:
            raise EventSchemaError(f"row {lineno}, column recipients: {item!r}")
        recipients.append((addr, weight))
    event = MessageEvent(
        message_id=msg_id,
        timestamp=timestamp,
        sender=sender,
        recipients=recipients,
        in_reply_to=reply_raw or None,
        subject_key=subject,
        tokens=tokens_raw.split(),
    )
    try:
        event.validate()
    except ValueError as exc:
        raise EventSchemaError(f"row {lineno}, column *: {exc}") from None
    return event


def full_parse_body(raw: bytes) -> str:
    """The body text of a mail: `email.message_from_bytes` parses it
    whole, and `Message.walk` gives its parts.  The first text/plain part
    without a file name wins, else the first such text/html part; a file
    name that cannot be decoded is still one."""
    msg = email.message_from_bytes(raw)
    plain, markup = None, None
    for part in msg.walk():
        maintype, _, subtype = part.get_content_type().partition("/")
        if maintype != "text":
            continue
        if subtype == "plain":
            if plain is not None:
                continue
        elif subtype != "html" or markup is not None:
            continue
        try:
            if part.get_filename():
                continue
        except UnicodeError:  # an RFC 2231 name that cannot be decoded names a file too
            continue
        payload = part.get_payload(decode=True)
        if payload is None:
            continue
        charset = part.get_content_charset() or "utf-8"
        try:
            text = payload.decode(charset, errors="replace")
        except (LookupError, UnicodeError):  # no text codec, or one that refuses "replace"
            text = payload.decode("utf-8", errors="replace")
        if subtype == "plain":
            plain = text
        else:
            markup = text
    if plain is not None:
        return plain
    return _html_to_text(markup) if markup is not None else ""


def stdlib_split_headers(raw: bytes):
    """The compat32 Message of a mail's header block, its body the payload."""
    return BytesParser().parsebytes(raw, headersonly=True)
