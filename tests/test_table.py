"""The columnar event table, its reader against a row-by-row reader, and
its stages against the event-object walks."""

import csv
import io
import math
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orgsignals.graph import TimeWindowConfig, build_windows
from orgsignals.ingest import (
    EVENT_CSV_COLUMNS,
    EventSchemaError,
    MessageEvent,
    read_event_csv,
    write_event_csv,
)
from orgsignals.signals import (
    LexiconConfig,
    _window_ci_vectors,
    balanced_contribution,
    honest_sentiment,
    token_counts,
)
from orgsignals.table import EventTable, stamp_us

from conftest import T0, mk_event
from oracles import (
    loop_actor_activity,
    loop_honest_sentiment,
    loop_read_event_csv,
    loop_symmetrized_csr,
    loop_token_counts,
    loop_windows,
    table_rows,
)

ACTORS = ["amy@x.com", "bob@x.com", "cy@x.com", "dee@x.com", "ed@x.com"]
WORDS = ["great", "terrible", "plan", "notes", "draft"]
LEX = LexiconConfig(positive={"great"}, negative={"terrible"})


@st.composite
def event_lists(draw):
    """Unsorted messages among five actors.

    Recipients repeat, a sender may mail itself (a one-node window),
    many messages share one second, some stamps have microseconds, and
    some messages have no tokens.
    """
    events = []
    for i in range(draw(st.integers(0, 30))):
        sender = draw(st.sampled_from(ACTORS))
        pool = ACTORS if draw(st.integers(0, 9)) == 0 else [a for a in ACTORS if a != sender]
        recipients = draw(st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from([1.0, 0.5, 0.1, 0.2, 0.7])),
            min_size=1, max_size=4,
        ))
        stamp = T0 + timedelta(
            hours=draw(st.integers(0, 60)),
            seconds=draw(st.sampled_from([0, 0, 1])),
            microseconds=draw(st.sampled_from([0, 0, 1, 250_000])),
        )
        events.append(MessageEvent(
            message_id=f"<t{i}@x>", timestamp=stamp, sender=sender, recipients=recipients,
            tokens=draw(st.lists(st.sampled_from(WORDS), max_size=5)),
        ))
    return events


@given(event_lists(), st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_columnar_stages_match_event_walks(events, length, step):
    ordered = sorted(events, key=lambda e: e.timestamp)
    cfg = TimeWindowConfig(timedelta(hours=length), timedelta(hours=step), T0,
                           T0 + timedelta(hours=70))
    graphs = build_windows(ordered, cfg)
    expected = loop_windows(ordered, cfg)
    assert len(graphs) == len(expected)
    for g, (nodes, edges) in zip(graphs, expected):
        assert g.nodes == nodes
        assert len(g.edges) == len(edges) and dict(g.edges) == edges
        want = loop_symmetrized_csr(nodes, edges)
        assert np.array_equal(g.csr[0], want[0]) and np.array_equal(g.csr[1], want[1])
    assert _window_ci_vectors(EventTable.from_events(ordered), graphs) == [
        loop_contribution_indices(
            [e for e in ordered if g.window_start <= e.timestamp < g.window_end])
        for g in graphs
    ]

    table = EventTable.from_events(events)
    assert token_counts(table) == loop_token_counts(events)
    assert outcome(honest_sentiment, table, LEX) == outcome(loop_honest_sentiment, events, LEX)
    assert outcome(balanced_contribution, table) == outcome(loop_balanced_contribution, events)


@given(event_lists())
@settings(max_examples=50, deadline=None)
def test_windows_of_an_event_list_are_those_of_its_table(events):
    # perfbench/checks.py passes build_windows a MessageEvent list
    ordered = sorted(events, key=lambda e: e.timestamp)
    cfg = TimeWindowConfig(timedelta(hours=12), timedelta(hours=6), T0,
                           T0 + timedelta(hours=70))
    got = build_windows(ordered, cfg)
    want = build_windows(EventTable.from_events(ordered), cfg)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.window_index, g.window_start, g.window_end, g.nodes, dict(g.edges)) == (
            w.window_index, w.window_start, w.window_end, w.nodes, dict(w.edges))
        assert all(np.array_equal(a, b) for a, b in zip(g.csr, w.csr))


def test_content_counts_copy_no_whole_token_column():
    # 100,000 messages of 0, 20 or 40 tokens, 2,000,000 in all, over 300 words
    # of which half are in the lexicon
    rng = np.random.default_rng(7)
    lengths = np.tile([20, 0, 40, 20], 25_000)
    n, words = len(lengths), [f"w{i:03d}" for i in range(300)]
    token_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=token_indptr[1:])
    table = EventTable(
        stamp_us=stamp_us(T0) + np.arange(n, dtype=np.int64) * 1_000_000,
        sender=np.zeros(n, dtype=np.int32),
        recipient_indptr=np.arange(n + 1, dtype=np.int64),
        recipient_ids=np.ones(n, dtype=np.int32),
        recipient_weights=np.ones(n),
        token_indptr=token_indptr,
        token_ids=rng.integers(0, len(words), token_indptr[-1], dtype=np.int32),
        actors=["a@x.com", "b@x.com"],
        words=words,
    )
    assert len(table.token_ids) == 2_000_000
    lexicon = LexiconConfig(positive=set(words[:100]), negative=set(words[200:250]))
    results = {}
    for stage, args in ((honest_sentiment, (table, lexicon)), (token_counts, (table,))):
        tracemalloc.start()
        try:
            results[stage] = stage(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (stage.__name__, peak)
    events = [MessageEvent(f"<m{i}@x>", stamp, sender, recipients, tokens=tokens)
              for i, (stamp, sender, recipients, tokens) in enumerate(table_rows(table))]
    assert results[honest_sentiment] == loop_honest_sentiment(events, lexicon)
    assert results[token_counts] == loop_token_counts(events)


def outcome(stage, *args):
    """The value of stage(*args), or ValueError when it raises one."""
    try:
        return stage(*args)
    except ValueError:
        return ValueError


def loop_contribution_indices(events):
    """Each active actor's (sent - received) / (sent + received)."""
    return {a: (s - r) / (s + r) for a, (s, r) in loop_actor_activity(events).items()}


def loop_balanced_contribution(events):
    values = list(loop_contribution_indices(events).values())
    if len(values) < 2:
        raise ValueError("insufficient actors")
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values) / len(values)


@given(event_lists(), st.data())
@settings(max_examples=60, deadline=None)
def test_table_round_trips_and_takes_rows(events, data):
    table = EventTable.from_events(events)
    assert len(table) == len(events)
    kept = [(e.timestamp, e.sender, e.recipients, e.tokens) for e in events]
    assert table_rows(table) == kept
    assert table.actors == sorted(table.actors) and table.words == sorted(table.words)
    rows = data.draw(st.lists(st.integers(0, max(len(events) - 1, 0)), max_size=8)
                     if events else st.just([]))
    assert table_rows(table.take(np.array(rows, dtype=np.intp))) == [kept[i] for i in rows]
    lo, hi = data.draw(st.integers(0, len(events))), data.draw(st.integers(0, len(events)))
    assert table_rows(table.take(slice(lo, hi))) == kept[lo:hi]


def test_stamp_and_weight_spellings_read_the_same(tmp_path):
    events = [
        mk_event("a@x.com", ["b@x.com", ("c@x.com", 0.5)], hours=1, tokens=["plan", "plan"]),
        mk_event("b@x.com", ["a@x.com"], hours=2.5, in_reply_to="<r@x>", subject_key="hi"),
    ]
    canonical, variant = tmp_path / "canonical.csv", tmp_path / "variant.csv"
    write_event_csv(events, canonical)
    text = canonical.read_text()
    # a "Z" stamp, an offset stamp and a recipient weight in another spelling
    variant.write_text(text.replace("01:00:00+00:00", "01:00:00Z")
                       .replace("2024-01-01T02:30:00+00:00", "2024-01-01T03:30:00+01:00")
                       .replace("c@x.com:0.5", "c@x.com:0.50"))
    assert variant.read_text() != text
    assert loop_read_event_csv(variant) == loop_read_event_csv(canonical) == events
    assert (table_rows(read_event_csv(variant)) == table_rows(read_event_csv(canonical))
            == table_rows(EventTable.from_events(events)))


def test_fractional_second_stamps_keep_their_microseconds(tmp_path):
    offsets = [1, 999_999, 1_000_001]
    events = [MessageEvent(f"<f{i}@x>", T0 + timedelta(microseconds=us), "a@x.com",
                           [("b@x.com", 1.0)], tokens=["plan"])
              for i, us in enumerate(offsets)]
    path = tmp_path / "events.csv"
    write_event_csv(events, path)
    table = read_event_csv(path)
    t0_us = (T0 - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(microseconds=1)
    assert table.stamp_us.tolist() == [t0_us + us for us in offsets]
    assert loop_read_event_csv(path) == events
    assert table_rows(table) == table_rows(EventTable.from_events(events))


# Cells of an event CSV row: good values, and the mutations the reader
# must reject, or accept as other spellings of a good value.
STAMPS = (["2024-01-01T00:00:00+00:00", "2024-01-01T05:00:00+00:00"],
          ["2024-01-01T05:00:00Z", "2024-01-01T06:00:00+01:00", "2023-12-31T23:30:00-05:30",
           "2024-01-01T00:00:00.250000+00:00", "2024-01-01T00:00:00.5Z",
           "2024-01-01T00:00:00", "not-a-date", "", "0001-01-01T00:30:00+00:00",
           "0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
SENDERS = (["amy@x.com", "bob@x.com", "cy@x.com"], ["Amy@x.com", "amy", "a@b@x.com", ""])
RECIPIENTS = (["dee@x.com", "ed@x.com", "cy@x.com", "amy@x.com"], SENDERS[1])
WEIGHTS = (["1.0", "0.5"], ["0.50", "1", "nan", "1.5", "0", "-1", "nope", ""])


def pick(draw, pools, odds=8):
    """A value of the first pool, or one time in `odds` of the second."""
    good, mutations = pools
    return draw(st.sampled_from(mutations if draw(st.integers(1, odds)) == odds else good))


@st.composite
def recipient_cells(draw):
    """A recipients cell of one or two items, some of them mutated."""
    items = []
    for _ in range(draw(st.integers(1, 2))):
        addr, weight = pick(draw, RECIPIENTS), pick(draw, WEIGHTS)
        items.append(pick(draw, ([f"{addr}:{weight}"], [addr])))
    return ";".join(pick(draw, ([items], [[]]))) + pick(draw, ([""], [";"]))


@st.composite
def event_csv_texts(draw):
    """An event CSV of a few rows, whose cells are drawn from small pools so
    that addresses and recipient cells repeat across rows."""
    cells = draw(st.lists(recipient_cells(), min_size=1, max_size=3))
    rows = []
    for i in range(draw(st.integers(1, 6))):
        row = [
            pick(draw, ([f"<m{i}@x>"], [""])),
            pick(draw, STAMPS, odds=3),
            pick(draw, SENDERS),
            draw(st.sampled_from(cells)),
            draw(st.sampled_from(["", "<m0@x>"])),
            draw(st.sampled_from(["", "hi", "hi there"])),
            draw(st.sampled_from(["", "plan notes", "plan  plan"])),
        ]
        rows.append(pick(draw, ([row], [row[:6], row + ["extra"]]), odds=20))
    return csv_text(rows)


def csv_text(rows):
    """An event CSV of the header and `rows`."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(EVENT_CSV_COLUMNS)
    writer.writerows(rows)
    return out.getvalue()


def read_outcome(reader, path):
    """The table `reader` reads from `path`, or the type and text of what it raises."""
    try:
        return reader(path)
    except Exception as exc:
        return type(exc), str(exc)


# a cell first seen valid, then under a sender that it contains
@example(csv_text([
    ["<m0@x>", "2024-01-01T00:00:00+00:00", "amy@x.com", "bob@x.com:1.0;cy@x.com:0.5", "", "", ""],
    ["<m1@x>", "2024-01-01T05:00:00Z", "bob@x.com", "bob@x.com:1.0;cy@x.com:0.5", "", "", ""],
]))
@given(event_csv_texts())
@settings(max_examples=300, deadline=None)
def test_reader_matches_row_by_row_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "events.csv"
    path.write_text(text, encoding="utf-8", newline="")
    got, want = read_outcome(read_event_csv, path), read_outcome(loop_read_event_csv, path)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, EventTable)
    want = EventTable.from_events(want)
    for column in ("stamp_us", "sender", "recipient_indptr", "recipient_ids",
                   "recipient_weights", "token_indptr", "token_ids"):
        assert np.array_equal(getattr(got, column), getattr(want, column)), column
    for column in ("actors", "words"):
        assert getattr(got, column) == getattr(want, column), column


def test_reader_names_the_first_fault_in_check_order(tmp_path):
    # one row with a fault of each kind, mended one at a time in the order
    # of the checks: each read names the next fault
    row = ["", "0001-01-01T00:30:00+01:00", "Amy@x.com",
           "Dee@x.com:1.0;amy@x.com:1.5;cy@x.com:nope", "", "", "plan", "extra"]
    mends = [  # (column, its mended value, or None to drop it; the fault it mends)
        (7, None, "column count: got 8 fields"),
        (1, "2024-01-01T00:30:00", "column timestamp_iso8601_utc: '0001-01-01T00:30:00+01:00'"),
        (1, "2024-01-01T00:30:00Z", "column timestamp_iso8601_utc: missing timezone"),
        (3, "Dee@x.com:1.0;amy@x.com:1.5;cy@x.com:0.5", "column recipients: 'cy@x.com:nope'"),
        (0, "<m@x>", "column *: empty message_id"),
        (2, "amy@x.com", "column *: non-canonical sender: 'Amy@x.com'"),
        (3, "dee@x.com:1.0;amy@x.com:1.5;cy@x.com:0.5",
         "column *: non-canonical recipient: 'Dee@x.com'"),
        (2, "bob@x.com", "column *: sender duplicated in recipients"),
        (3, "dee@x.com:1.0;amy@x.com:1.0;cy@x.com:0.5",
         "column *: recipient weight out of (0,1]: 1.5"),
    ]
    path = tmp_path / "events.csv"
    for column, mended, fault in mends:
        path.write_text(csv_text([row]), encoding="utf-8", newline="")
        want = (EventSchemaError, f"row 2, {fault}")
        assert read_outcome(read_event_csv, path) == read_outcome(loop_read_event_csv, path) == want
        if mended is None:
            del row[column]
        else:
            row[column] = mended
    path.write_text(csv_text([row]), encoding="utf-8", newline="")
    assert (table_rows(read_event_csv(path))
            == table_rows(EventTable.from_events(loop_read_event_csv(path))))
    assert len(read_event_csv(path)) == 1
