"""Request-run extraction and the reply-time metrics."""

import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orgsignals.signals import (
    ResponseEvent,
    extract_response_events,
    rapid_response,
)
from orgsignals.table import EventTable

from conftest import T0, mk_event

HORIZON = timedelta(days=14)


def test_single_request_reply():
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=0),
        mk_event("b@x.com", ["a@x.com"], hours=4),
    ]
    (r,) = extract_response_events(EventTable.from_events(events))
    assert (r.requester, r.responder) == ("a@x.com", "b@x.com")
    assert r.nudges == 1
    assert r.elapsed_hours == pytest.approx(4.0)


def test_nudge_run_accumulates():
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=0),
        mk_event("a@x.com", ["b@x.com"], hours=24),
        mk_event("b@x.com", ["a@x.com"], hours=30),
    ]
    (r,) = extract_response_events(EventTable.from_events(events))
    assert r.nudges == 2
    assert r.elapsed_hours == pytest.approx(30.0)
    assert r.run_last == T0 + timedelta(hours=24)


def test_unanswered_run_censored():
    events = [mk_event("a@x.com", ["b@x.com"], hours=0)]
    assert extract_response_events(EventTable.from_events(events)) == []


def test_reply_beyond_horizon_censored():
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=0),
        mk_event("b@x.com", ["a@x.com"], hours=15 * 24),
    ]
    assert extract_response_events(EventTable.from_events(events), HORIZON) == []


def test_reply_after_censoring_starts_fresh_run():
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=0),
        mk_event("b@x.com", ["a@x.com"], hours=15 * 24),   # censored close
        mk_event("a@x.com", ["b@x.com"], hours=16 * 24),
        mk_event("b@x.com", ["a@x.com"], hours=16 * 24 + 2),
    ]
    runs = extract_response_events(EventTable.from_events(events), HORIZON)
    (r,) = [x for x in runs if x.requester == "a@x.com"]
    assert r.run_start == T0 + timedelta(hours=16 * 24)
    assert r.elapsed_hours == pytest.approx(2.0)
    # the censored reply itself opened a b->a run that a's next message closes
    (rev,) = [x for x in runs if x.requester == "b@x.com"]
    assert rev.elapsed_hours == pytest.approx(24.0)


def test_same_second_reply_is_crossing_mail():
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=1),
        mk_event("b@x.com", ["a@x.com"], hours=1),
        mk_event("b@x.com", ["a@x.com"], hours=2),
    ]
    (r,) = extract_response_events(EventTable.from_events(events))
    assert r.response_at == T0 + timedelta(hours=2)
    assert r.nudges == 1


def test_recipient_anywhere_in_list_counts():
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=0),
        mk_event("b@x.com", [("c@x.com", 1.0), ("a@x.com", 0.5)], hours=3),
    ]
    (r,) = extract_response_events(EventTable.from_events(events))
    assert r.elapsed_hours == pytest.approx(3.0)


def test_both_directions_tracked_independently():
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=0),
        mk_event("b@x.com", ["a@x.com"], hours=2),    # closes a->b, opens b->a
        mk_event("a@x.com", ["b@x.com"], hours=5),    # closes b->a, opens a->b
        mk_event("b@x.com", ["a@x.com"], hours=6),    # closes a->b
    ]
    runs = extract_response_events(EventTable.from_events(events))
    assert len(runs) == 3
    elapsed = sorted(r.elapsed_hours for r in runs)
    assert elapsed == pytest.approx([1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# fuzz against the brute-force run scanner
# ---------------------------------------------------------------------------

def test_fuzzed_pairwise_timelines_match_oracle():
    from oracles import brute_response_runs

    rng = random.Random(4242)
    for trial in range(120):
        horizon = timedelta(hours=rng.choice([6, 24, 72]))
        events = []
        a_times, b_times = [], []
        clock = 0
        for _ in range(rng.randint(1, 30)):
            clock += rng.choice([0, 1, 2, 5, 30, 100])  # hours, ties included
            stamp_hours = clock
            if rng.random() < 0.5:
                a_times.append(T0 + timedelta(hours=stamp_hours))
                events.append(mk_event("a@x.com", ["b@x.com"], hours=stamp_hours,
                                       message_id=f"<{trial}-{len(events)}>"))
            else:
                b_times.append(T0 + timedelta(hours=stamp_hours))
                events.append(mk_event("b@x.com", ["a@x.com"], hours=stamp_hours,
                                       message_id=f"<{trial}-{len(events)}>"))
        got = extract_response_events(EventTable.from_events(events), horizon)
        expected = brute_response_runs(a_times, b_times, horizon) + [
            # symmetric direction: b requests, a responds
            run for run in brute_response_runs(b_times, a_times, horizon)
        ]
        got_tuples = sorted(
            (r.requester, r.run_start, r.run_last, r.response_at, r.nudges) for r in got
        )
        expected_tuples = sorted(
            [("a@x.com", *run) for run in brute_response_runs(a_times, b_times, horizon)]
            + [("b@x.com", *run) for run in brute_response_runs(b_times, a_times, horizon)]
        )
        assert got_tuples == expected_tuples, f"trial {trial}"


ACTORS = ["a@x.com", "b@x.com", "c@x.com", "d@x.com"]


@st.composite
def mixed_stream(draw):
    """Messages among four actors, several recipients each, many in one second."""
    events = []
    for i in range(draw(st.integers(0, 40))):
        sender = draw(st.sampled_from(ACTORS))
        others = [a for a in ACTORS if a != sender]
        recipients = draw(st.lists(st.sampled_from(others), min_size=1, max_size=3))
        seconds = draw(st.integers(0, 12)) * 1800 + draw(st.sampled_from([0, 0, 0, 1]))
        events.append(mk_event(sender, recipients, hours=seconds / 3600,
                               message_id=f"<mix{i}>"))
    return events


@given(mixed_stream(), st.sampled_from([1, 2, 4, 48]))
@settings(max_examples=200, deadline=None)
def test_one_pass_matches_pairwise_merge(events, horizon_hours):
    from oracles import pairwise_response_events

    horizon = timedelta(hours=horizon_hours)
    expected = pairwise_response_events(events, horizon)
    assert extract_response_events(EventTable.from_events(events), horizon) == expected
    assert extract_response_events(EventTable.from_events(events[::-1]), horizon) == expected
    assert extract_response_events(
        EventTable.from_events(sorted(events, key=lambda e: e.timestamp)), horizon
    ) == expected


@st.composite
def crowded_table(draw):
    """3 to 6 actors; rows with up to five recipients, repeats among them,
    in no particular order, and many rows on each of a few stamps."""
    actors = [f"{name}@x.com" for name in "abcdef"[:draw(st.integers(3, 6))]]
    events = []
    for i in range(draw(st.integers(0, 60))):
        sender = draw(st.sampled_from(actors))
        others = [a for a in actors if a != sender]
        recipients = draw(st.lists(st.sampled_from(others), min_size=1, max_size=5))
        events.append(mk_event(sender, recipients, hours=draw(st.integers(0, 16)) * 3,
                               message_id=f"<crowd{i}>"))
    return EventTable.from_events(events)


@given(crowded_table(), st.one_of(st.integers(0, 60), st.just(10_000)))
@settings(max_examples=200, deadline=None)
def test_one_sort_matches_time_ordered_walk(table, horizon_hours):
    # horizons from 0, which keeps no run, to past the 48 hours of stamps
    from oracles import loop_response_events

    horizon = timedelta(hours=horizon_hours)
    assert extract_response_events(table, horizon) == loop_response_events(table, horizon)


def test_same_second_request_and_reply_in_either_order():
    request = mk_event("a@x.com", ["b@x.com"], hours=0, message_id="<q0>")
    nudge = mk_event("a@x.com", ["b@x.com"], hours=1, message_id="<q1>")
    crossing = mk_event("b@x.com", ["a@x.com"], hours=1, message_id="<r1>")
    reply = mk_event("b@x.com", ["a@x.com"], hours=2, message_id="<r2>")
    for middle in ([nudge, crossing], [crossing, nudge]):
        (r,) = extract_response_events(EventTable.from_events([request, *middle, reply]))
        assert (r.run_last, r.response_at, r.nudges) == (
            nudge.timestamp, reply.timestamp, 2
        )


# ---------------------------------------------------------------------------
# rapid_response aggregation
# ---------------------------------------------------------------------------

def mk_response(hours, nudges=1):
    return ResponseEvent(
        requester="a@x.com", responder="b@x.com",
        run_start=T0, run_last=T0,
        response_at=T0 + timedelta(hours=hours), nudges=nudges,
    )


def test_rapid_response_single():
    avg, nudges, responsiveness = rapid_response([mk_response(4.0)])
    assert avg == pytest.approx(4.0)
    assert nudges == pytest.approx(1.0)
    assert responsiveness == pytest.approx(6 / 7)


def test_rapid_response_mean():
    avg, _, _ = rapid_response([mk_response(4.0), mk_response(30.0)])
    assert avg == pytest.approx(17.0)


def test_rapid_response_instant_boundary():
    # response_at == run_start is not producible by extraction (strictly later
    # replies only) but the aggregation handles the 0h boundary
    _, _, responsiveness = rapid_response([mk_response(0.0)])
    assert responsiveness == 1.0


def test_rapid_response_strictly_decreasing():
    values = [rapid_response([mk_response(h)])[2] for h in [0, 1, 5, 24, 100]]
    assert values == sorted(values, reverse=True)
    assert all(0.0 < v <= 1.0 for v in values)


def test_rapid_response_empty():
    with pytest.raises(ValueError, match="no response events"):
        rapid_response([])
