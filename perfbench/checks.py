"""Checks of the program's outputs against computations made apart from it.

Every reference value here is computed from the generated inputs with
the benchmark's own code: its own CSV parsing, token counts, divergence,
reply-run scanner and emotionality, plus `networkx` for betweenness and
the generators' own records (`expected.json`) for planted values.  No
check compares against a stored copy of an earlier output.  Betweenness
is the one exception to full independence: `central_leadership` of a
whole-corpus unit is computed here from `graph.betweenness_centrality`,
which is checked against `networkx` on the windows in `SAMPLE_WINDOWS`
(networkx takes 0.5 s to 0.7 s a window, too long for all 52).

Each check function returns `(operations, failed, errors)`: an operation
is one output record (a signals row, or one ingested message), `failed`
counts the operations that meet a fault the benchmark knows of and keeps
(the planted RFC 2047 messages), and `errors` lists every other
disagreement, any one of which makes the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter, defaultdict
from datetime import datetime, timedelta
from pathlib import Path

EVENT_COLUMNS = ["message_id", "timestamp_iso8601_utc", "sender", "recipients",
                 "in_reply_to", "subject_key", "tokens"]
SIGNAL_COLUMNS = ["unit", "period_start", "period_end", "central_leadership",
                  "balanced_contribution", "rotating_leadership", "rotating_leadership_ci",
                  "avg_response_time_hours", "avg_nudges", "responsiveness",
                  "honest_sentiment", "innovative_language", "oov_rate"]
# documented ranges of every signal column
RANGES = {
    "central_leadership": (0.0, 1.0),
    "balanced_contribution": (0.0, 1.0),
    "rotating_leadership": (0.0, 1.0),
    "rotating_leadership_ci": (0.0, 1.0),
    "avg_response_time_hours": (0.0, math.inf),
    "avg_nudges": (1.0, math.inf),
    "responsiveness": (0.0, 1.0),
    "honest_sentiment": (0.0, 0.5),
    "innovative_language": (0.0, 1.0),
    "oov_rate": (0.0, 1.0),
}
# windows whose betweenness is compared with networkx, by index
SAMPLE_WINDOWS = (0, 26)


class Corpus:
    """The benchmark's own reading of a generated analysis bundle."""

    def __init__(self, bundle: Path):
        self.bundle = bundle
        self.events = []  # (timestamp, sender, [recipient], tokens)
        with open(bundle / "events.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                recipients = [item.rpartition(":")[0] for item in row[3].split(";") if item]
                self.events.append((datetime.fromisoformat(row[1]), row[2], recipients,
                                    row[6].split()))
        self.events.sort(key=lambda e: e[0])
        with open(bundle / "reference_dictionary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        total = math.fsum(float(f) for _, f in rows)
        self.reference = {w: float(f) / total for w, f in rows}
        self.positive = set((bundle / "positive.txt").read_text(encoding="utf-8").split())
        self.negative = set((bundle / "negative.txt").read_text(encoding="utf-8").split())
        self.expected = json.loads((bundle / "expected.json").read_text(encoding="utf-8"))


def read_signals(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != SIGNAL_COLUMNS:
            raise ValueError(f"signals.csv header {header}")
        return [
            {name: (cell if name in ("unit", "period_start", "period_end")
                    else (float(cell) if cell else None))
             for name, cell in zip(header, row)}
            for row in reader
        ]


def _close(a, b, tol) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b))


def jsd(tokens: list[str], reference: dict[str, float]) -> float:
    """Base-2 Jensen-Shannon divergence, summed over sorted keys."""
    counts = Counter(tokens)
    n = len(tokens)
    terms = []
    for key in sorted(counts.keys() | reference.keys()):
        p = counts.get(key, 0) / n
        q = reference.get(key, 0.0)
        m = 0.5 * (p + q)
        if p > 0.0:
            terms.append(0.5 * p * math.log2(p / m))
        if q > 0.0:
            terms.append(0.5 * q * math.log2(q / m))
    return min(1.0, max(0.0, math.fsum(terms)))


def oov(tokens: list[str], reference: dict[str, float]) -> float:
    return sum(1 for t in tokens if t not in reference) / len(tokens)


def sentiment_spread(token_lists, positive, negative) -> float | None:
    """Population standard deviation of emotional-token density per message."""
    values = []
    for tokens in token_lists:
        if tokens:
            hits = sum(1 for t in tokens if t in positive or t in negative)
            values.append(hits / len(tokens))
    if len(values) < 2:
        return None
    mean = math.fsum(values) / len(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


def reply_runs(events, horizon: timedelta):
    """(avg hours, avg nudges, responsiveness) of closed request runs.

    One pass in time order.  A message A->B opens or extends the run of
    the pair (A, B); a later message B->A closes it, and counts when it
    falls within the horizon of the run's first message.  Within one
    second, every message acts as a request before any acts as a reply,
    so a reply in the same second as the run's last message is ignored.
    """
    runs: dict[tuple[str, str], list] = {}
    hours, nudges = [], []
    i = 0
    while i < len(events):
        j = i
        while j < len(events) and events[j][0] == events[i][0]:
            j += 1
        batch = events[i:j]
        for stamp, sender, recipients, _ in batch:
            for r in recipients:
                run = runs.get((sender, r))
                if run is None:
                    runs[(sender, r)] = [stamp, stamp, 1]
                else:
                    run[1] = stamp
                    run[2] += 1
        for stamp, sender, recipients, _ in batch:
            for r in recipients:
                run = runs.get((r, sender))
                if run is not None and stamp > run[1]:
                    if stamp - run[0] <= horizon:
                        hours.append((stamp - run[0]).total_seconds() / 3600.0)
                        nudges.append(run[2])
                    del runs[(r, sender)]
        i = j
    if not hours:
        return None
    avg = math.fsum(hours) / len(hours)
    return avg, math.fsum(nudges) / len(nudges), 1.0 / (1.0 + avg / 24.0)


def _ranges(row: dict, errors: list[str]) -> None:
    for name, (lo, hi) in RANGES.items():
        value = row[name]
        if value is not None and not (lo <= value <= hi):
            errors.append(f"{row['unit']}: {name}={value} outside [{lo}, {hi}]")


class OneUnitReference:
    """Reference values for one unit holding every actor of the corpus.
    `errors` holds the disagreements found while computing them
    (betweenness against networkx)."""

    def __init__(self, corpus: Corpus, horizon: timedelta, start: datetime, end: datetime):
        tokens = [t for e in corpus.events for t in e[3]]
        self.expected = corpus.expected["expected"]
        central, self.errors = structure_reference(corpus, start, end)
        self.values = {
            "central_leadership": central,
            "oov_rate": oov(tokens, corpus.reference),
            "innovative_language": jsd(tokens, corpus.reference),
        }
        runs = reply_runs(corpus.events, horizon)
        for name, value in zip(("avg_response_time_hours", "avg_nudges", "responsiveness"),
                               runs or (None, None, None)):
            self.values[name] = value

    def check(self, signals_csv: Path):
        errors: list[str] = []
        rows = read_signals(signals_csv)
        if len(rows) != 1:
            return 1, 0, [f"expected one signals row, got {len(rows)}"]
        row = rows[0]
        _ranges(row, errors)
        for name in ("honest_sentiment", "balanced_contribution"):
            if not _close(row[name], self.expected.get(name), 1e-9):
                errors.append(f"{name}={row[name]}, construction gives {self.expected.get(name)}")
        tolerances = {"oov_rate": 0.0, "innovative_language": 1e-12}
        for name, want in self.values.items():
            if want is None and row[name] is None:
                continue
            if not _close(row[name], want, tolerances.get(name, 1e-12)):
                errors.append(f"{name}={row[name]}, reference {want}")
        return 1, 0, errors


class PerActorReference:
    """Reference values when every actor is a unit of its own.

    A unit's stream is the mail its one member sent, so each of its weekly
    windows is a star around that member: the member's normalized
    betweenness is 1, every other node's 0, and the centralization of a
    window of three or more nodes is exactly 1.
    """

    def __init__(self, corpus: Corpus, units: dict[str, str], start: datetime, end: datetime):
        sent: dict[str, list[list[str]]] = defaultdict(list)
        window_nodes: dict[tuple[str, int], set[str]] = defaultdict(set)
        for stamp, sender, recipients, tokens in corpus.events:
            sent[sender].append(tokens)
            if start <= stamp < end:
                window_nodes[(sender, (stamp - start) // timedelta(days=7))].update(
                    [sender, *recipients])
        starred = {sender for (sender, _), nodes in window_nodes.items() if len(nodes) >= 3}
        self.units = {units[a] for a in sent}
        self.values = {}
        for actor, messages in sent.items():
            tokens = [t for m in messages for t in m]
            self.values[units[actor]] = {
                "central_leadership": 1.0 if actor in starred else None,
                "honest_sentiment": sentiment_spread(messages, corpus.positive, corpus.negative),
                "oov_rate": oov(tokens, corpus.reference) if tokens else None,
                "innovative_language": jsd(tokens, corpus.reference) if tokens else None,
            }

    def check(self, signals_csv: Path):
        errors: list[str] = []
        rows = read_signals(signals_csv)
        seen = [row["unit"] for row in rows]
        if sorted(seen) != sorted(self.units):
            errors.append(f"{len(rows)} rows for {len(self.units)} sending actors")
        for row in rows:
            _ranges(row, errors)
            if row["balanced_contribution"] is not None:
                errors.append(f"{row['unit']}: balanced_contribution set for a one-actor unit")
            want = self.values.get(row["unit"], {})
            for name, value in want.items():
                if value is None and row[name] is None:
                    continue
                if not _close(row[name], value, 1e-12):
                    errors.append(f"{row['unit']}: {name}={row[name]}, reference {value}")
        return max(len(rows), 1), 0, errors


def freeman_centralization(scores: dict[str, float]) -> float:
    """Freeman group centralization of normalized betweenness scores: the
    gap sum against the most central actor over its maximum, n - 1."""
    top = max(scores.values())
    return min(1.0, max(0.0, math.fsum(top - v for v in scores.values()) / (len(scores) - 1)))


def structure_reference(corpus: Corpus, start: datetime, end: datetime):
    """(central_leadership, errors) of one unit holding every actor.

    The weekly windows are built by `graph.build_windows` and scored by
    `graph.betweenness_centrality`, as in the program; the windows in
    `SAMPLE_WINDOWS` are checked against `networkx.betweenness_centrality`
    of a graph built from the events.  The centralization of every window
    of three or more nodes, and their mean, are computed here.
    """
    import networkx as nx
    from orgsignals.graph import TimeWindowConfig, betweenness_centrality, build_windows
    from orgsignals.ingest import MessageEvent

    week = timedelta(days=7)
    events = [
        MessageEvent(f"<{k}@check>", stamp, sender, [(r, 1.0) for r in recipients])
        for k, (stamp, sender, recipients, _) in enumerate(corpus.events)
        if start <= stamp < end
    ]
    windows = build_windows(events, TimeWindowConfig(week, week, start, end))
    errors, centralizations = [], []
    for window in windows:
        if window.n < 3:
            continue
        got = betweenness_centrality(window)
        centralizations.append(freeman_centralization(got))
        if window.window_index not in SAMPLE_WINDOWS:
            continue
        lo, hi = window.window_start, window.window_end
        graph = nx.Graph()
        for stamp, sender, recipients, _ in corpus.events:
            if lo <= stamp < hi:
                graph.add_node(sender)
                for r in recipients:
                    graph.add_node(r)
                    if r != sender:
                        graph.add_edge(sender, r)
        if sorted(graph.nodes) != window.nodes:
            errors.append(f"window {window.window_index}: nodes differ from the events")
            continue
        want = nx.betweenness_centrality(graph, normalized=True)
        worst = max(abs(got[v] - want[v]) for v in want)
        if worst > 1e-12:
            errors.append(f"window {window.window_index}: betweenness differs from networkx "
                          f"by {worst:.3g}")
    if not centralizations:
        return None, errors
    return math.fsum(centralizations) / len(centralizations), errors


class MboxReference:
    """The mail generator's own record of the events the archives hold."""

    def __init__(self, sidecar: dict):
        self.sidecar = sidecar
        self.phantoms = set(sidecar["phantom_ids"])

    def check(self, out_dir: Path):
        errors: list[str] = []
        expected = self.sidecar["events"]
        operations = self.sidecar["messages"]
        report = json.loads((out_dir / "ingest_report.json").read_text(encoding="utf-8"))
        for name, count in self.sidecar["planted"].items():
            if report.get(name) != count:
                errors.append(f"ingest_report {name}={report.get(name)}, planted {count}")
        with open(out_dir / "events.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != EVENT_COLUMNS:
                errors.append("events.csv header")
            rows = list(reader)
        if len(rows) != len(expected):
            errors.append(f"{len(rows)} events written, {len(expected)} expected")
        failed = 0
        for row, want in zip(rows, expected):
            if _event_row(row) == _expected_row(want):
                continue
            if row[0] == want[0] and row[0] in self.phantoms:
                failed += 1
            else:
                errors.append(f"event {want[0]}: got {row}, expected {want}")
        return operations, failed, errors


def _event_row(row: list[str]):
    stamp = datetime.fromisoformat(row[1])
    recipients = []
    for item in row[3].split(";"):
        addr, _, weight = item.rpartition(":")
        recipients.append((addr, float(weight)))
    return (row[0], stamp, stamp.utcoffset(), row[2], recipients, row[4], row[5],
            row[6].split())


def _expected_row(event: list):
    stamp = datetime.fromisoformat(event[1])
    return (event[0], stamp, timedelta(0), event[2], [(a, w) for a, w in event[3]],
            event[4], event[5], event[6])
