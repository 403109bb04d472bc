"""The six communication signal metrics, aggregated per unit and period.

Signals fall in three dimensions: structure (central_leadership,
balanced_contribution), dynamics (rotating_leadership, responsiveness
and the other reply metrics), content (honest_sentiment,
innovative_language).  Every metric degrades to "missing" (None) rather
than a fake zero when its inputs are insufficient.

Each stage takes an `orgsignals.table.EventTable` and counts on its
columns: `np.bincount` over actor ids, and one `np.lexsort` by integer
actor-pair key and stamp for the reply runs; the two vocabulary metrics
take the stream's `token_counts`, counted once.  Rotating leadership
reads each window's contribution indices from `graph.build_windows`.
The token column is counted a fixed-size slice at a time, so no count
copies the whole column at a wider integer type.  Every float that
reaches a signal gets the same operations as in a walk over event
objects (integer counts, exactly rounded `fsum`, `(v - mean) ** 2` on
Python floats), so the values do not depend on the layout.
"""

from __future__ import annotations

import csv
import logging
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .graph import (
    TimeWindowConfig,
    WindowPool,
    build_windows,
    group_centralization,
    window_betweenness,
    write_window_csv,
)
from .table import EventTable, stamp_datetime, stamp_us

log = logging.getLogger(__name__)

SIGNAL_DIMENSIONS = {
    "central_leadership": "structure",
    "balanced_contribution": "structure",
    "rotating_leadership": "dynamics",
    "rotating_leadership_ci": "dynamics",
    "avg_response_time_hours": "dynamics",
    "avg_nudges": "dynamics",
    "responsiveness": "dynamics",
    "honest_sentiment": "content",
    "innovative_language": "content",
    "oov_rate": "content",
}

SIGNALS_CSV_COLUMNS = [
    "unit",
    "period_start",
    "period_end",
    *SIGNAL_DIMENSIONS.keys(),
]

DEFAULT_RESPONSE_HORIZON = timedelta(days=14)

# token ids counted per slice: bincount and fancy indexing copy their
# int32 ids at 8 bytes each, so a slice bounds that copy at 512 KiB
_TOKEN_SLICE = 1 << 16


class PreconditionError(ValueError):
    """A signal's inputs are too few to define it; its cell stays missing."""


@dataclass(slots=True)
class SignalRecord:
    """Signal values for one unit over one analysis period; None = missing."""

    unit: str
    period_start: datetime
    period_end: datetime
    central_leadership: float | None = None
    balanced_contribution: float | None = None
    rotating_leadership: float | None = None
    rotating_leadership_ci: float | None = None
    avg_response_time_hours: float | None = None
    avg_nudges: float | None = None
    responsiveness: float | None = None
    honest_sentiment: float | None = None
    innovative_language: float | None = None
    oov_rate: float | None = None

    def as_row(self) -> list[str]:
        row = [self.unit, self.period_start.isoformat(), self.period_end.isoformat()]
        for name in SIGNAL_DIMENSIONS:
            value = getattr(self, name)
            row.append("" if value is None else repr(float(value)))
        return row


@dataclass(slots=True)
class ResponseEvent:
    """One closed request run: nudges from requester, then a reply."""

    requester: str
    responder: str
    run_start: datetime
    run_last: datetime
    response_at: datetime
    nudges: int

    @property
    def elapsed_hours(self) -> float:
        return (self.response_at - self.run_start).total_seconds() / 3600.0


@dataclass
class LexiconConfig:
    """Sentiment word lists plus the reference word-frequency dictionary."""

    positive: set[str] = field(default_factory=set)
    negative: set[str] = field(default_factory=set)
    reference_dictionary: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        overlap = self.positive & self.negative
        if overlap:
            raise ValueError(f"positive/negative lexicons overlap: {sorted(overlap)[:5]}")
        if self.reference_dictionary:
            if any(v <= 0 for v in self.reference_dictionary.values()):
                raise ValueError("reference frequencies must be positive")
            total = math.fsum(self.reference_dictionary.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"reference frequencies sum to {total}, expected 1")


# ---------------------------------------------------------------------------
# Structure: contribution balance
# ---------------------------------------------------------------------------

def _activity(table: EventTable) -> tuple[np.ndarray, np.ndarray]:
    """Messages sent and recipient entries received, per actor id."""
    k = len(table.actors)
    return (np.bincount(table.sender, minlength=k),
            np.bincount(table.recipient_ids, minlength=k))


def _id_mask(names: list[str], wanted) -> np.ndarray:
    """Which positions of the sorted list `names` hold a name in `wanted`."""
    mask = np.zeros(len(names), dtype=bool)
    for name in wanted:
        i = bisect_left(names, name)
        if i < len(names) and names[i] == name:
            mask[i] = True
    return mask


def balanced_contribution(table: EventTable, actors: set[str] | None = None) -> float:
    """Population variance of the contribution index over active actors.

    An actor's contribution index is (sent - received) / (sent + received):
    +1 for a pure sender, -1 for a pure receiver.  `actors` optionally
    restricts which actors enter the variance (unit members, typically);
    actors with no activity are excluded either way.
    """
    sent, received = _activity(table)
    active = sent + received >= 1
    if actors is not None:
        active &= _id_mask(table.actors, actors)
    s, r = sent[active], received[active]
    values = ((s - r) / (s + r)).tolist()
    if len(values) < 2:
        raise PreconditionError("insufficient actors")
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values) / len(values)


# ---------------------------------------------------------------------------
# Dynamics: leadership rotation
# ---------------------------------------------------------------------------

def oscillation_count(series: list[float]) -> int:
    """Direction changes in a series: local extrema after plateau compression."""
    if not series:
        raise ValueError("empty series")
    compressed = [series[0]]
    for x in series[1:]:
        if x != compressed[-1]:
            compressed.append(x)
    count = 0
    for i in range(2, len(compressed)):
        d_prev = compressed[i - 1] - compressed[i - 2]
        d_next = compressed[i] - compressed[i - 1]
        if (d_prev > 0) != (d_next > 0):
            count += 1
    return count


def rotating_leadership(
    betweenness_series: list[dict[str, float]],
    ci_series: list[dict[str, float]],
    actors: set[str],
) -> tuple[float, float]:
    """Mean oscillation rates of the actors' betweenness and CI across windows.

    Both series must cover the same window positions; an actor absent from
    a window takes value 0 there.  Each mean oscillation count is divided
    by (windows - 2), the maximum per actor, so the rate lies in [0, 1].
    """
    n_windows = len(betweenness_series)
    if len(ci_series) != n_windows:
        raise ValueError("series length mismatch")
    if n_windows < 3:
        raise ValueError("series too short")
    if not actors:
        raise ValueError("no actors")

    def mean_rate(series: list[dict[str, float]]) -> float:
        total = sum(
            oscillation_count([w.get(a, 0.0) for w in series]) for a in actors
        )
        return total / len(actors) / (n_windows - 2)

    return mean_rate(betweenness_series), mean_rate(ci_series)


# ---------------------------------------------------------------------------
# Dynamics: reply behaviour
# ---------------------------------------------------------------------------

def extract_response_events(
    table: EventTable,
    max_response_horizon: timedelta = DEFAULT_RESPONSE_HORIZON,
) -> list[ResponseEvent]:
    """Find every ordered actor pair's request runs and their replies.

    A run accumulates consecutive A->B messages with no intervening B->A;
    the first strictly later B->A message closes it.  The close emits a
    ResponseEvent only when it falls within the horizon of the run start;
    otherwise the run is censored and dropped, as are runs never closed.
    Same-second replies are treated as crossing mail and ignored.

    All request and reply entries are sorted at once by (pair, stamp,
    requests before replies); a pair's requests since its last close then
    sit together ahead of the reply that closes them.  Pairs are keyed
    requester * A + responder over actor ids, and times are epoch
    microseconds.
    """
    k = len(table.actors)
    horizon = max_response_horizon // timedelta(microseconds=1)
    src = table.recipient_senders().astype(np.int64)
    dst = table.recipient_ids.astype(np.int64)
    stamps = np.repeat(table.stamp_us, np.diff(table.recipient_indptr))
    # each entry is a request in the pair (sender, recipient) and a reply
    # in the pair (recipient, sender)
    size = 2 * len(stamps)
    pair = np.concatenate([src * k + dst, dst * k + src])
    stamp = np.concatenate([stamps, stamps])
    is_reply = np.arange(size) >= len(stamps)
    order = np.lexsort((is_reply, stamp, pair))
    pair, stamp, is_reply = pair[order], stamp[order], is_reply[order]
    is_request = ~is_reply

    position = np.arange(size)
    starts = np.ones(size, dtype=bool)  # the first entry of each pair
    np.not_equal(pair[1:], pair[:-1], out=starts[1:])
    # the last request at or before each entry, if it is of the same pair
    last_request = np.maximum.accumulate(np.where(is_request, position, -1))
    has_request = last_request >= np.maximum.accumulate(np.where(starts, position, 0))
    # A reply later than its pair's last request closes the open run, if
    # no such reply came before it.
    later = is_reply & has_request
    later[later] = stamp[later] > stamp[last_request[later]]
    closes = later.copy()
    closes[1:] &= ~later[:-1]
    # a run holds the requests since its pair's first entry or last close
    starts[1:] |= closes[:-1]
    close = np.flatnonzero(closes)
    run_from = np.maximum.accumulate(np.where(starts, position, 0))[close]
    requests_before = np.cumsum(is_request) - is_request
    first = np.flatnonzero(is_request)[requests_before[run_from]]
    last = last_request[close]
    nudges = requests_before[close] - requests_before[run_from]

    kept = np.flatnonzero(stamp[close] - stamp[first] <= horizon)
    # actor ids are ranks, so this is (run_start, requester, responder) order
    kept = kept[np.lexsort((pair[close[kept]], stamp[first[kept]]))]
    close, first, last, nudges = close[kept], first[kept], last[kept], nudges[kept]
    actors = table.actors
    return [
        ResponseEvent(actors[key // k], actors[key % k], stamp_datetime(start),
                      stamp_datetime(last_at), stamp_datetime(response_at), count)
        for key, start, last_at, response_at, count in zip(
            pair[close].tolist(), stamp[first].tolist(), stamp[last].tolist(),
            stamp[close].tolist(), nudges.tolist())
    ]


def rapid_response(
    response_events: list[ResponseEvent],
) -> tuple[float, float, float]:
    """(avg_response_time_hours, avg_nudges, responsiveness).

    Responsiveness is 1/(1 + avg_hours/24): 1.0 for instantaneous replies,
    decreasing toward 0 as the average response time grows.
    """
    if not response_events:
        raise ValueError("no response events")
    avg_hours = math.fsum(r.elapsed_hours for r in response_events) / len(response_events)
    avg_nudges = math.fsum(r.nudges for r in response_events) / len(response_events)
    return avg_hours, avg_nudges, 1.0 / (1.0 + avg_hours / 24.0)


# ---------------------------------------------------------------------------
# Content: sentiment dispersion and lexical divergence
# ---------------------------------------------------------------------------

def _token_slices(table: EventTable):
    """(offset, ids) of consecutive slices of `token_ids`, each at most
    `_TOKEN_SLICE` long."""
    ids = table.token_ids
    for lo in range(0, len(ids), _TOKEN_SLICE):
        yield lo, ids[lo:lo + _TOKEN_SLICE]


def honest_sentiment(table: EventTable, lexicon: LexiconConfig) -> float:
    """Population standard deviation of per-message emotionality.

    A message's emotionality is the share of its tokens that are in the
    positive or negative lexicon; messages without tokens are left out.
    A running count of emotional tokens is read off at each row
    boundary; a row's count is the running count at its end less that
    at its start.
    """
    emotional = _id_mask(table.words, lexicon.positive | lexicon.negative).view(np.int8)
    indptr = table.token_indptr
    before = np.zeros(len(indptr), dtype=np.int64)  # emotional tokens before each boundary
    counted = 0
    for lo, ids in _token_slices(table):
        running = np.cumsum(emotional.take(ids), dtype=np.int64)
        # the boundaries in (lo, lo + len(ids)]
        first, last = np.searchsorted(indptr, [lo, lo + len(ids)], side="right").tolist()
        before[first:last] = running.take(indptr[first:last] - lo - 1) + counted
        counted += int(running[-1])
    lengths = np.diff(indptr)
    messages = np.flatnonzero(lengths)
    ratios = np.diff(before)[messages] / lengths[messages]
    if len(ratios) < 2:
        raise PreconditionError("insufficient messages")

    def values():
        # Python floats a slice at a time: a list of them all would set
        # the peak memory of analyze
        for lo in range(0, len(ratios), _TOKEN_SLICE):
            yield from ratios[lo:lo + _TOKEN_SLICE].tolist()

    mean = math.fsum(values()) / len(ratios)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values()) / len(ratios))


def jensen_shannon_divergence(p: dict[str, float], q: dict[str, float]) -> float:
    """Base-2 Jensen-Shannon divergence over the union support, in [0, 1].

    The terms are summed exactly, in sorted key order, so the result does
    not depend on the hash order of the keys.
    """
    terms = []
    for key in sorted(p.keys() | q.keys()):
        pk = p.get(key, 0.0)
        qk = q.get(key, 0.0)
        m = 0.5 * (pk + qk)
        if pk > 0.0:
            terms.append(0.5 * pk * math.log2(pk / m))
        if qk > 0.0:
            terms.append(0.5 * qk * math.log2(qk / m))
    return min(1.0, max(0.0, math.fsum(terms)))


def token_counts(table: EventTable) -> Counter[str]:
    """How often each word occurs in the tokens of the events."""
    per_word = np.zeros(len(table.words), dtype=np.int64)
    for _, ids in _token_slices(table):
        per_word += np.bincount(ids, minlength=len(per_word))
    used = np.flatnonzero(per_word)
    return Counter(dict(zip([table.words[w] for w in used.tolist()], per_word[used].tolist())))


def innovative_language(counts: Counter[str], reference: dict[str, float]) -> float:
    """Divergence of the unigram distribution of `counts`, the
    `token_counts` of a stream, from the reference."""
    if not counts:
        raise ValueError("no content")
    n = counts.total()
    p = {w: c / n for w, c in counts.items()}
    return jensen_shannon_divergence(p, reference)


def out_of_vocabulary_rate(counts: Counter[str], reference: dict[str, float]) -> float:
    """Auxiliary metric: the fraction of the tokens counted in `counts`,
    the `token_counts` of a stream, that are absent from the reference."""
    if not counts:
        raise ValueError("no content")
    return sum(c for w, c in counts.items() if w not in reference) / counts.total()


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def _window_ci_vectors(graphs) -> list[dict[str, float]]:
    """Per-window contribution index per actor; inactive actors omitted."""
    return [dict(zip(g.nodes, g.ci.tolist())) for g in graphs]


def compute_signal_record(
    unit: str,
    period: tuple[datetime, datetime],
    table: EventTable,
    window_cfg: TimeWindowConfig,
    lexicon: LexiconConfig,
    members: set[str] | None = None,
    response_horizon: timedelta = DEFAULT_RESPONSE_HORIZON,
    pool: WindowPool | None = None,
    windows_path: str | Path | None = None,
) -> SignalRecord:
    """Populate a SignalRecord for one unit's event stream over one period.

    `table` is the unit's time-sorted stream (sender belongs to the unit);
    the period's events are found in it by bisection.  `members` restricts
    actor-level aggregates to the unit roster; without it every actor
    appearing in the stream is aggregated.  Sub-signals whose
    preconditions fail are left missing, never zeroed.

    The period's large windows are scored on `pool`'s workers while the
    content and reply signals are computed here.  With `windows_path`,
    the period's windows are written there by `write_window_csv`.
    """
    start, end = period
    if end <= start:
        raise ValueError("empty period")
    first, last = np.searchsorted(
        table.stamp_us, [stamp_us(start), stamp_us(end)], side="left"
    ).tolist()
    events = table.take(slice(first, last))
    if not len(events):
        raise ValueError(f"unit {unit!r} has no events in period")
    record = SignalRecord(unit=unit, period_start=start, period_end=end)

    graphs = build_windows(events, replace(window_cfg, corpus_start=start, corpus_end=end))
    scored = window_betweenness(graphs, pool)
    if windows_path is not None:
        write_window_csv(graphs, windows_path)

    try:
        record.balanced_contribution = balanced_contribution(events, members)
    except PreconditionError:
        pass

    responses = extract_response_events(events, response_horizon)
    if members is not None:
        responses = [r for r in responses if r.requester in members]
    if responses:
        avg_hours, avg_nudges, responsiveness = rapid_response(responses)
        record.avg_response_time_hours = avg_hours
        record.avg_nudges = avg_nudges
        record.responsiveness = responsiveness

    try:
        record.honest_sentiment = honest_sentiment(events, lexicon)
    except PreconditionError:
        pass

    counts = token_counts(events)
    if counts and lexicon.reference_dictionary:
        record.innovative_language = innovative_language(counts, lexicon.reference_dictionary)
        record.oov_rate = out_of_vocabulary_rate(counts, lexicon.reference_dictionary)

    # structure: mean betweenness centralization over computable windows
    betweenness_series = scored()
    centralizations = [group_centralization(vector)
                       for g, vector in zip(graphs, betweenness_series) if g.n >= 3]
    if centralizations:
        record.central_leadership = math.fsum(centralizations) / len(centralizations)

    # dynamics: oscillation rates need at least three window positions
    if len(graphs) >= 3:
        ci_series = _window_ci_vectors(graphs)
        seen = {a for w in betweenness_series for a in w} | {a for w in ci_series for a in w}
        actors = seen if members is None else members & seen
        if actors:
            rate_b, rate_ci = rotating_leadership(betweenness_series, ci_series, actors)
            record.rotating_leadership = rate_b
            record.rotating_leadership_ci = rate_ci
    return record


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_word_list(path: str | Path) -> set[str]:
    """One word per line, UTF-8; blank lines ignored."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip().lower()
            if word:
                words.add(word)
    return words


def load_reference_csv(path: str | Path) -> dict[str, float]:
    """Reference dictionary CSV (word,relative_frequency), renormalized.

    A deviation of the frequency sum beyond 1e-6 is logged as a warning;
    the distribution is renormalized either way so downstream invariants
    hold exactly.
    """
    freqs: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["word", "relative_frequency"]:
            raise ValueError("reference dictionary: expected header word,relative_frequency")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ValueError(f"reference dictionary row {lineno}: got {len(row)} fields")
            word = row[0].strip().lower()
            try:
                freq = float(row[1])
            except ValueError:
                raise ValueError(
                    f"reference dictionary row {lineno}: bad frequency {row[1]!r}"
                ) from None
            if freq <= 0:
                raise ValueError(f"reference dictionary row {lineno}: frequency must be > 0")
            if word in freqs:
                raise ValueError(f"reference dictionary row {lineno}: duplicate word {word!r}")
            freqs[word] = freq
    if not freqs:
        raise ValueError("reference dictionary is empty")
    total = math.fsum(freqs.values())
    if abs(total - 1.0) > 1e-6:
        log.warning("reference dictionary frequencies sum to %.9f; renormalizing", total)
    return {w: f / total for w, f in freqs.items()}


def load_lexicon(
    positive_path: str | Path,
    negative_path: str | Path,
    reference_path: str | Path | None = None,
) -> LexiconConfig:
    reference = load_reference_csv(reference_path) if reference_path else {}
    return LexiconConfig(
        positive=load_word_list(positive_path),
        negative=load_word_list(negative_path),
        reference_dictionary=reference,
    )


def write_signals_csv(records: list[SignalRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SIGNALS_CSV_COLUMNS)
        for record in records:
            writer.writerow(record.as_row())


def read_signals_csv(path: str | Path) -> list[dict]:
    """Rows as dicts with floats parsed and missing cells as None."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != SIGNALS_CSV_COLUMNS:
            raise ValueError(f"signals CSV: unexpected header {reader.fieldnames}")
        for raw in reader:
            row: dict = {
                "unit": raw["unit"],
                "period_start": raw["period_start"],
                "period_end": raw["period_end"],
            }
            for name in SIGNAL_DIMENSIONS:
                cell = raw[name]
                row[name] = float(cell) if cell else None
            rows.append(row)
    return rows
