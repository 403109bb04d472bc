"""Spans around the program's public functions, recorded from outside.

`Tracer.install` wraps each function in `TARGETS` and puts the wrapper in
place of the function wherever an `orgsignals` module holds it, which
is where callers look it up at call time: `cli` calls `ing.*` and
`sig.*`, `signals` binds `build_windows`, `betweenness_centrality` and
`group_centralization` by name, and `graph` reaches the kernel through
its `_kernel` module.  `MessageEvent.validate` is wrapped on the class.

A span is (name, start, end, parent); spans stay in memory until
`dump`.  Counts are recorded at the same boundaries.  `layer_metrics`
turns spans and counts into the per-layer metrics; the self time of a
span is its duration minus the durations of its direct children, which
never overlap because the program runs on one thread.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _rows(tracer, args, kwargs, result, state):
    tracer.counts["ingest.read_event_csv.rows"] += len(result)


def _report_total(args, kwargs):
    """Messages an IngestReport has seen: parse_mbox adds each message to one
    of its four counts."""
    report = args[2] if len(args) > 2 else kwargs.get("report")
    return sum(report.as_dict().values()) if report is not None else 0


def _messages(tracer, args, kwargs, result, state):
    tracer.counts["ingest.parse_mbox.messages"] += _report_total(args, kwargs) - state


def _distinct(tracer, args, kwargs, result, state):
    tracer.distinct_actors.add(args[0] if args else kwargs.get("raw"))


def _windows(tracer, args, kwargs, result, state):
    tracer.counts["graph.windows"] += len(result)
    tracer.counts["graph.window_nodes"] += sum(len(g.nodes) for g in result)
    tracer.counts["graph.window_edges"] += sum(len(g.edges) for g in result)


def _kernel_work(tracer, args, kwargs, result, state):
    indptr, indices, n = args[:3]
    # every node is a source; each undirected edge is stored twice
    tracer.counts["betweenness_py.source_edges"] += n * (len(indices) // 2)


def _responses(tracer, args, kwargs, result, state):
    tracer.counts["signals.response_events"] += len(result)


# (module[:attribute], function, span name, counter, state before the call)
TARGETS = [
    ("orgsignals.cli", "cmd_analyze", "cli.analyze", None, None),
    ("orgsignals.cli", "cmd_ingest", "cli.ingest", None, None),
    ("orgsignals.ingest", "read_event_csv", "ingest.read_event_csv", _rows, None),
    ("orgsignals.ingest", "parse_mbox", "ingest.parse_mbox", _messages, _report_total),
    ("orgsignals.ingest", "canonicalize_actor", "ingest.canonicalize_actor", _distinct, None),
    ("orgsignals.ingest", "tokenize", "ingest.tokenize", None, None),
    ("orgsignals.ingest", "strip_quoted_reply", "ingest.strip_quoted_reply", None, None),
    ("orgsignals.ingest", "write_event_csv", "ingest.write_event_csv", None, None),
    ("orgsignals.ingest:MessageEvent", "validate", "ingest.validate", None, None),
    ("orgsignals.graph", "build_windows", "graph.build_windows", _windows, None),
    ("orgsignals.graph", "betweenness_centrality", "graph.betweenness_centrality", None, None),
    ("orgsignals.graph", "group_centralization", "graph.group_centralization", None, None),
    ("orgsignals.graph:_kernel", "brandes_accumulate", "betweenness_py.brandes",
     _kernel_work, None),
    ("orgsignals.signals", "compute_signal_record", "signals.compute_signal_record",
     None, None),
    ("orgsignals.signals", "_window_ci_vectors", "signals.window_ci_vectors", None, None),
    ("orgsignals.signals", "balanced_contribution", "signals.balanced_contribution",
     None, None),
    ("orgsignals.signals", "extract_response_events", "signals.extract_response_events",
     _responses, None),
    ("orgsignals.signals", "honest_sentiment", "signals.honest_sentiment", None, None),
    ("orgsignals.signals", "innovative_language", "signals.innovative_language", None, None),
    ("orgsignals.signals", "out_of_vocabulary_rate", "signals.out_of_vocabulary_rate",
     None, None),
    ("orgsignals.signals", "write_signals_csv", "signals.write_signals_csv", None, None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct_actors: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None, before=None):
        code = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (code, start, end, parent)
            if counter is not None:
                counter(self, args, kwargs, result, state)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "orgsignals" or n.startswith("orgsignals."))]
        for target, attribute, name, counter, before in TARGETS:
            module_name, _, inner = target.partition(":")
            holder = sys.modules[module_name]
            if inner:
                holder = getattr(holder, inner)
            original = getattr(holder, attribute)
            wrapper = self.wrap(name, original, counter, before)
            if isinstance(holder, type):
                setattr(holder, attribute, wrapper)
                continue
            for module in modules + [holder]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self) -> dict:
        counts = dict(self.counts)
        counts["ingest.canonicalize_actor.distinct"] = len(self.distinct_actors)
        return {"names": self.names, "spans": self.spans, "counts": counts}


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer times and counts of one traced command."""
    names, spans = dump["names"], dump["spans"]
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    children = [0.0] * len(spans)
    for code, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    for index, (code, start, end, parent) in enumerate(spans):
        name = names[code]
        total[name] += end - start
        own[name] += end - start - children[index]
        calls[name] += 1
    counts = dump["counts"]
    brandes = total["betweenness_py.brandes"]
    source_edges = counts.get("betweenness_py.source_edges", 0)
    out = {
        "cli.analyze_self_s": own["cli.analyze"],
        "cli.ingest_self_s": own["cli.ingest"],
        "ingest.read_event_csv.rows": counts.get("ingest.read_event_csv.rows", 0),
        "ingest.parse_mbox_self_s": own["ingest.parse_mbox"],
        "ingest.parse_mbox.messages": counts.get("ingest.parse_mbox.messages", 0),
        "ingest.canonicalize_actor.calls": calls["ingest.canonicalize_actor"],
        "ingest.canonicalize_actor.distinct": counts.get("ingest.canonicalize_actor.distinct", 0),
        "graph.windows": counts.get("graph.windows", 0),
        "graph.window_nodes": counts.get("graph.window_nodes", 0),
        "graph.window_edges": counts.get("graph.window_edges", 0),
        "graph.betweenness_centrality.calls": calls["graph.betweenness_centrality"],
        "graph.betweenness_self_s": own["graph.betweenness_centrality"],
        "betweenness_py.teps": source_edges / brandes if brandes > 0 else 0.0,
        "signals.compute_signal_record.calls": calls["signals.compute_signal_record"],
        "signals.compute_signal_record_self_s": own["signals.compute_signal_record"],
        "signals.response_events": counts.get("signals.response_events", 0),
    }
    for name in ("ingest.read_event_csv", "ingest.validate", "ingest.parse_mbox",
                 "ingest.canonicalize_actor", "ingest.tokenize", "ingest.strip_quoted_reply",
                 "ingest.write_event_csv", "graph.build_windows",
                 "graph.betweenness_centrality", "betweenness_py.brandes",
                 "signals.compute_signal_record", "signals.window_ci_vectors",
                 "signals.balanced_contribution", "signals.extract_response_events",
                 "signals.honest_sentiment", "signals.innovative_language",
                 "signals.out_of_vocabulary_rate", "signals.write_signals_csv"):
        out[f"{name}_s"] = total[name]
    return out
