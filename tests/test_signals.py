"""Signal metric unit tests: contribution, oscillation, content measures."""

import math
from collections import Counter
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

from orgsignals.graph import TimeWindowConfig
from orgsignals.signals import (
    LexiconConfig,
    PreconditionError,
    balanced_contribution,
    compute_signal_record,
    honest_sentiment,
    innovative_language,
    jensen_shannon_divergence,
    load_lexicon,
    load_reference_csv,
    oscillation_count,
    out_of_vocabulary_rate,
    read_signals_csv,
    rotating_leadership,
    write_signals_csv,
    SIGNAL_DIMENSIONS,
    SignalRecord,
)
from orgsignals.table import EventTable

from conftest import T0, mk_event
from oracles import brute_oscillations

LEX = LexiconConfig(positive={"great"}, negative={"terrible"})


# ---------------------------------------------------------------------------
# contribution index variance
# ---------------------------------------------------------------------------

def test_balanced_contribution_two_extremes():
    # a sends, b only receives: CI +1 and -1, population variance 1
    events = [mk_event("a@x.com", ["b@x.com"], hours=i) for i in range(3)]
    assert balanced_contribution(EventTable.from_events(events)) == pytest.approx(1.0)


def test_balanced_contribution_all_zero():
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=0),
        mk_event("b@x.com", ["a@x.com"], hours=1),
    ]
    assert balanced_contribution(EventTable.from_events(events)) == pytest.approx(0.0)


def test_balanced_contribution_three_values_derived():
    # CIs {1, 0, -1}: a pure sender to c, b balanced with c, c net receiver
    # a->c, b->c, c->b gives a: (1,0)=1, b: (1,1)=0, c: (1,2)=-1/3 ... build exactly:
    events = [
        mk_event("a@x.com", ["c@x.com"], hours=0),   # a sends 1
        mk_event("b@x.com", ["c@x.com"], hours=1),   # b sends 1
        mk_event("c@x.com", ["b@x.com"], hours=2),   # b receives 1 -> b CI 0
        mk_event("c@x.com", ["a@x.com"], hours=3),
        mk_event("c@x.com", ["a@x.com"], hours=4),
        mk_event("c@x.com", ["a@x.com"], hours=5),
    ]
    # a: sent 1, received 3 -> -0.5; b: sent 1 received 1 -> 0; c: sent 4 received 2 -> 1/3
    values = [-0.5, 0.0, 1 / 3]
    mean = sum(values) / 3
    expected = sum((v - mean) ** 2 for v in values) / 3
    assert balanced_contribution(EventTable.from_events(events)) == pytest.approx(expected)


def test_balanced_contribution_variance_of_plus_minus_one_and_zero():
    # direct hand-computed case {1, 0, -1} -> 2/3 via the actors argument
    events = [
        mk_event("a@x.com", ["c@x.com"], hours=0),           # a: 1 sent
        mk_event("b@x.com", ["c@x.com"], hours=1),           # b: 1 sent
        mk_event("c@x.com", ["b@x.com"], hours=2),           # b: 1 received
    ]
    # restrict to a (CI 1), b (CI 0), c (sent 1, received 2 -> -1/3)... instead
    # assert the documented hand value on explicit counts:
    cis = [1.0, 0.0, -1.0]  # (sent - received) / (sent + received) of 1:0, 1:1, 0:1
    mean = sum(cis) / 3
    assert sum((v - mean) ** 2 for v in cis) / 3 == pytest.approx(2 / 3)
    table = EventTable.from_events(events)
    assert balanced_contribution(table, actors={"a@x.com", "b@x.com"}) == pytest.approx(0.25)


def test_balanced_contribution_insufficient():
    with pytest.raises(PreconditionError, match="insufficient actors"):
        balanced_contribution(EventTable.from_events([mk_event("a@x.com", ["b@x.com"])]),
                              actors={"a@x.com"})


def test_balanced_contribution_invariant_under_direction_flip():
    # reversing every message negates each CI; the variance is unchanged
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=0),
        mk_event("a@x.com", ["c@x.com"], hours=1),
        mk_event("b@x.com", ["c@x.com"], hours=2),
    ]
    flipped = [
        mk_event(e.recipients[0][0], [e.sender], hours=i)
        for i, e in enumerate(events)
    ]
    assert balanced_contribution(EventTable.from_events(events)) == pytest.approx(
        balanced_contribution(EventTable.from_events(flipped)))


def test_balanced_contribution_relabel_invariant():
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=0),
        mk_event("b@x.com", ["c@x.com"], hours=1),
        mk_event("c@x.com", ["a@x.com"], hours=2),
        mk_event("a@x.com", ["c@x.com"], hours=3),
    ]
    swapped = [
        mk_event({"a@x.com": "z@x.com", "b@x.com": "y@x.com", "c@x.com": "x@x.com"}[e.sender],
                 [({"a@x.com": "z@x.com", "b@x.com": "y@x.com", "c@x.com": "x@x.com"}[r], w)
                  for r, w in e.recipients],
                 hours=i)
        for i, e in enumerate(events)
    ]
    assert balanced_contribution(EventTable.from_events(events)) == pytest.approx(
        balanced_contribution(EventTable.from_events(swapped)))


# ---------------------------------------------------------------------------
# oscillation count
# ---------------------------------------------------------------------------

def test_oscillation_up_down_up():
    assert oscillation_count([0.1, 0.5, 0.2, 0.7]) == 2


def test_oscillation_monotone():
    assert oscillation_count([1, 2, 3, 4]) == 0


def test_oscillation_constant():
    assert oscillation_count([2, 2, 2]) == 0


def test_oscillation_plateau_counts_once():
    assert oscillation_count([0, 1, 1, 0]) == 1


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=50))
def test_oscillation_matches_brute_force(series):
    assert oscillation_count(series) == brute_oscillations(series)


@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=40))
def test_oscillation_reversal_invariant(series):
    assert oscillation_count(series) == oscillation_count(series[::-1])


# ---------------------------------------------------------------------------
# rotating leadership on constructed series
# ---------------------------------------------------------------------------

def test_rotating_leadership_alternating_hubs():
    betw = [{"a": 1.0, "b": 0.0}, {"a": 0.0, "b": 1.0}] * 2 + [{"a": 1.0, "b": 0.0}]
    ci = [{"a": 1.0, "b": -1.0}, {"a": -1.0, "b": 1.0}] * 2 + [{"a": 1.0, "b": -1.0}]
    rate_b, rate_ci = rotating_leadership(betw, ci, {"a", "b"})
    assert rate_b == pytest.approx(1.0)
    assert rate_ci == pytest.approx(1.0)


def test_rotating_leadership_static_star():
    betw = [{"a": 1.0, "b": 0.0, "c": 0.0}] * 5
    ci = [{"a": 0.0, "b": 0.0, "c": 0.0}] * 5
    assert rotating_leadership(betw, ci, {"a", "b", "c"}) == (0.0, 0.0)


def test_rotating_leadership_single_oscillation():
    betw = [{"a": 0.0}, {"a": 1.0}, {"a": 0.0}]
    ci = [{"a": 0.0}] * 3
    rate_b, rate_ci = rotating_leadership(betw, ci, {"a"})
    assert rate_b == pytest.approx(1.0)
    assert rate_ci == 0.0


def test_rotating_leadership_absent_actor_counts_as_zero():
    # actor b only appears in the middle window: series [0, 1, 0] -> one extremum
    betw = [{"a": 0.5}, {"a": 0.5, "b": 1.0}, {"a": 0.5}]
    rate_b, _ = rotating_leadership(betw, [{}, {}, {}], {"a", "b"})
    assert rate_b == pytest.approx(0.5)  # mean of b's 1 and a's 0 over 2 actors


def test_rotating_leadership_too_short():
    with pytest.raises(ValueError, match="series too short"):
        rotating_leadership([{}, {}], [{}, {}], {"a"})


# ---------------------------------------------------------------------------
# sentiment dispersion
# ---------------------------------------------------------------------------

def test_honest_sentiment_two_messages():
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=0,
                 tokens=["great", "great", "terrible", "meeting"]),   # 0.75
        mk_event("b@x.com", ["a@x.com"], hours=1,
                 tokens=["great", "ok", "ok", "ok"]),                 # 0.25
    ]
    assert honest_sentiment(EventTable.from_events(events), LEX) == pytest.approx(0.25)


def test_honest_sentiment_identical_messages():
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=i, tokens=["great", "plan"])
        for i in range(4)
    ]
    assert honest_sentiment(EventTable.from_events(events), LEX) == pytest.approx(0.0)


def test_honest_sentiment_half_split():
    tokens = {0: ["great"], 1: ["plan"], 2: ["plan"], 3: ["terrible"]}
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=i, tokens=tokens[i]) for i in range(4)
    ]
    assert honest_sentiment(EventTable.from_events(events), LEX) == pytest.approx(0.5)


def test_honest_sentiment_reorder_invariant():
    events = [
        mk_event("a@x.com", ["b@x.com"], hours=i, tokens=t)
        for i, t in enumerate([["great"], ["plan", "x1"], ["terrible", "great"], ["meh", "meh"]])
    ]
    assert honest_sentiment(EventTable.from_events(events), LEX) == pytest.approx(
        honest_sentiment(EventTable.from_events(events[::-1]), LEX)
    )


def test_honest_sentiment_insufficient():
    with pytest.raises(PreconditionError, match="insufficient messages"):
        honest_sentiment(
            EventTable.from_events([mk_event("a@x.com", ["b@x.com"], tokens=["hi", "there"])]), LEX)


# ---------------------------------------------------------------------------
# Jensen-Shannon divergence
# ---------------------------------------------------------------------------

def test_jsd_identity():
    assert jensen_shannon_divergence({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == 0.0


def test_jsd_disjoint_supports():
    assert jensen_shannon_divergence({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0)


def test_jsd_hand_computed_case():
    # frozen from an independent numeric evaluation of the base-2 JSD
    assert jensen_shannon_divergence({"a": 1.0}, {"a": 0.5, "b": 0.5}) == pytest.approx(
        0.3113, abs=1e-4
    )


@st.composite
def distribution(draw):
    keys = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6, unique=True))
    weights = [draw(st.floats(0.01, 1.0, allow_nan=False)) for _ in keys]
    total = sum(weights)
    return {k: w / total for k, w in zip(keys, weights)}


# scipy's `jensenshannon` gives NaN here: the square root of a sum that
# rounding makes slightly negative
@example({k: 0.2 for k in "abcde"}, {**{k: 0.2 for k in "abcde"}, "c": 0.19999999999999998})
@given(distribution(), distribution())
@settings(max_examples=120)
def test_jsd_matches_scipy_and_properties(p, q):
    value = jensen_shannon_divergence(p, q)
    keys = sorted(p.keys() | q.keys())
    P = np.array([p.get(k, 0.0) for k in keys])
    Q = np.array([q.get(k, 0.0) for k in keys])
    M = (P + Q) / 2
    reference = (rel_entr(P, M).sum() + rel_entr(Q, M).sum()) / 2 / math.log(2)
    assert value == pytest.approx(reference, abs=1e-9)
    assert 0.0 <= value <= 1.0
    assert value == pytest.approx(jensen_shannon_divergence(q, p), abs=1e-12)


def test_innovative_language_identical_distribution():
    # token stream exactly proportional to the reference
    reference = {"aa": 0.5, "bb": 0.25, "cc": 0.25}
    counts = Counter(["aa", "aa", "bb", "cc"])
    assert innovative_language(counts, reference) == pytest.approx(0.0, abs=1e-12)


def test_innovative_language_scaling_invariant():
    reference = {"aa": 0.6, "bb": 0.4}
    tokens = ["aa", "aa", "bb"]
    assert innovative_language(Counter(tokens), reference) == pytest.approx(
        innovative_language(Counter(tokens * 7), reference), abs=1e-12
    )


def test_innovative_language_empty():
    with pytest.raises(ValueError, match="no content"):
        innovative_language(Counter(), {"aa": 1.0})


def test_oov_rate():
    assert out_of_vocabulary_rate(Counter(["aa", "zz"]), {"aa": 1.0}) == 0.5


# ---------------------------------------------------------------------------
# record composition
# ---------------------------------------------------------------------------

def star_round_events(days, n=5, reply_hours=None):
    """One hub->leaf round per day, optional same-day replies."""
    events = []
    hub = "hub@x.com"
    leaves = [f"leaf{i}@x.com" for i in range(n - 1)]
    for day in range(days):
        for leaf in leaves:
            events.append(mk_event(hub, [leaf], hours=day * 24 + 9,
                                   message_id=f"<{day}-{leaf}>",
                                   tokens=["great", "plan", "x7", "meeting"]))
            if reply_hours is not None:
                events.append(mk_event(leaf, [hub], hours=day * 24 + 9 + reply_hours,
                                       message_id=f"<{day}-{leaf}-r>",
                                       tokens=["terrible", "great", "terrible", "notes"]))
    return sorted(events, key=lambda e: e.timestamp)


def week_cfg():
    return TimeWindowConfig(timedelta(days=7), timedelta(days=7))


def test_compute_record_static_star():
    events = star_round_events(35, reply_hours=4)
    period = (T0, T0 + timedelta(days=35))
    record = compute_signal_record("u", period, EventTable.from_events(events), week_cfg(), LEX,
                                   response_horizon=timedelta(hours=8))
    assert record.central_leadership == pytest.approx(1.0, abs=1e-9)
    assert record.rotating_leadership == pytest.approx(0.0)
    assert record.avg_response_time_hours == pytest.approx(4.0, abs=1e-6)
    assert record.avg_nudges == pytest.approx(1.0)
    assert record.responsiveness == pytest.approx(6 / 7)
    assert record.balanced_contribution == pytest.approx(0.0)
    assert record.honest_sentiment == pytest.approx(0.25)


HUBS = ["h0@x.com", "h1@x.com"]


def alternating_hubs_table():
    """Five weeks in which the two hubs take turns, a week each, to mail
    everyone else daily."""
    events = []
    others = HUBS + ["l0@x.com", "l1@x.com"]
    for day in range(35):
        hub = HUBS[(day // 7) % 2]
        for other in others:
            if other != hub:
                events.append(mk_event(hub, [other], hours=day * 24,
                                       message_id=f"<{day}-{other}>", tokens=["x7", "y7"]))
    return EventTable.from_events(sorted(events, key=lambda e: e.timestamp))


def test_compute_record_alternating_star():
    period = (T0, T0 + timedelta(days=35))
    record = compute_signal_record("u", period, alternating_hubs_table(), week_cfg(), LEX,
                                   members=set(HUBS))
    assert record.rotating_leadership == pytest.approx(1.0)
    assert record.central_leadership == pytest.approx(1.0)


def test_compute_record_rotation_divides_by_the_members_seen():
    # the roster's third member sends and receives nothing, so the two
    # hubs' full rate is not diluted to 2/3
    period = (T0, T0 + timedelta(days=35))
    record = compute_signal_record("u", period, alternating_hubs_table(), week_cfg(), LEX,
                                   members={*HUBS, "absent@x.com"})
    assert record.rotating_leadership == pytest.approx(1.0)
    assert record.rotating_leadership_ci == pytest.approx(1.0)


def test_compute_record_single_message_mostly_missing():
    events = [mk_event("a@x.com", ["b@x.com"], hours=1, tokens=["hello", "world"])]
    period = (T0, T0 + timedelta(days=35))
    record = compute_signal_record("u", period, EventTable.from_events(events), week_cfg(), LEX)
    assert record.central_leadership is None
    assert record.balanced_contribution is not None  # two active actors (a, b)
    assert record.avg_response_time_hours is None
    assert record.responsiveness is None
    assert record.honest_sentiment is None
    assert record.innovative_language is None


def test_compute_record_no_events_raises():
    with pytest.raises(ValueError, match="no events"):
        compute_signal_record("u", (T0, T0 + timedelta(days=7)), EventTable.from_events([]),
                              week_cfg(), LEX)


def test_dimension_tags():
    assert SIGNAL_DIMENSIONS["central_leadership"] == "structure"
    assert SIGNAL_DIMENSIONS["balanced_contribution"] == "structure"
    assert SIGNAL_DIMENSIONS["rotating_leadership"] == "dynamics"
    assert SIGNAL_DIMENSIONS["responsiveness"] == "dynamics"
    assert SIGNAL_DIMENSIONS["honest_sentiment"] == "content"
    assert SIGNAL_DIMENSIONS["innovative_language"] == "content"


# ---------------------------------------------------------------------------
# lexicon and signals CSV round-trips
# ---------------------------------------------------------------------------

def test_load_lexicon_files(tmp_path):
    (tmp_path / "pos.txt").write_text("Great\nsuper\n\n")
    (tmp_path / "neg.txt").write_text("bad\n")
    (tmp_path / "ref.csv").write_text("word,relative_frequency\naa,0.6\nbb,0.4\n")
    lex = load_lexicon(tmp_path / "pos.txt", tmp_path / "neg.txt", tmp_path / "ref.csv")
    assert lex.positive == {"great", "super"}
    assert lex.negative == {"bad"}
    assert lex.reference_dictionary["aa"] == pytest.approx(0.6)


def test_lexicon_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        LexiconConfig(positive={"fine"}, negative={"fine"})


def test_reference_renormalized_with_warning(tmp_path, caplog):
    (tmp_path / "ref.csv").write_text("word,relative_frequency\naa,0.5\nbb,0.4\n")
    with caplog.at_level("WARNING"):
        ref = load_reference_csv(tmp_path / "ref.csv")
    assert "renormalizing" in caplog.text
    assert math.fsum(ref.values()) == pytest.approx(1.0, abs=1e-12)
    assert ref["aa"] == pytest.approx(5 / 9)


def test_reference_rejects_nonpositive(tmp_path):
    (tmp_path / "ref.csv").write_text("word,relative_frequency\naa,0\n")
    with pytest.raises(ValueError, match="must be > 0"):
        load_reference_csv(tmp_path / "ref.csv")


def test_signals_csv_round_trip(tmp_path):
    record = SignalRecord(
        unit="u1", period_start=T0, period_end=T0 + timedelta(days=7),
        central_leadership=0.5, responsiveness=0.875,
    )
    path = tmp_path / "signals.csv"
    write_signals_csv([record], path)
    (row,) = read_signals_csv(path)
    assert row["unit"] == "u1"
    assert row["central_leadership"] == 0.5
    assert row["responsiveness"] == 0.875
    assert row["honest_sentiment"] is None
