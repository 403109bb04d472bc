"""Windowed interaction graphs, actor centralities, group centralization.

Structure metrics run on the symmetrized simple graph (an edge iff a
message passed in either direction), which keeps the classic Freeman
extremal cases exact: a star centralizes to 1.0, a cycle to 0.0.

Betweenness is Brandes' algorithm over a CSR adjacency, run by the
vectorized numpy/scipy.sparse kernel in orgsignals._betweenness_py.
`_kernel` names that module and `KERNEL_BACKEND` names its backend.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from . import _betweenness_py as _kernel
from .ingest import MessageEvent

KERNEL_BACKEND = "numpy"


class DegenerateWindowError(ValueError):
    """Raised when a centrality is requested on a graph with < 2 nodes."""


class CentralizationError(ValueError):
    """Raised when group centralization is undefined (< 3 nodes)."""


@dataclass(slots=True)
class TimeWindowConfig:
    """Window series layout: tumbling by default, sliding when step < length."""

    window_length: timedelta = timedelta(days=7)
    step: timedelta = timedelta(days=7)
    corpus_start: datetime | None = None
    corpus_end: datetime | None = None

    def __post_init__(self):
        if self.window_length <= timedelta(0):
            raise ValueError("window_length must be positive")
        if self.step <= timedelta(0):
            raise ValueError("step must be positive")


@dataclass(slots=True)
class WindowedGraph:
    """Directed weighted multigraph for one window, one edge per actor pair."""

    window_index: int
    window_start: datetime
    window_end: datetime
    nodes: list[str] = field(default_factory=list)
    edges: dict[tuple[str, str], tuple[int, float]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.nodes)


def window_spans(cfg: TimeWindowConfig) -> list[tuple[datetime, datetime]]:
    """All fully contained [start, start+length) spans of the corpus range."""
    if cfg.corpus_start is None or cfg.corpus_end is None:
        raise ValueError("corpus_start and corpus_end must be set")
    spans = []
    start = cfg.corpus_start
    while start + cfg.window_length <= cfg.corpus_end:
        spans.append((start, start + cfg.window_length))
        start += cfg.step
    return spans


def build_windows(
    events: list[MessageEvent],
    cfg: TimeWindowConfig,
    unit_filter: tuple[str, dict[str, str]] | None = None,
) -> list[WindowedGraph]:
    """Build one interaction graph per window position.

    `events` must be time-sorted.  A message falls in a window iff
    window_start <= timestamp < window_end.  With a unit filter
    (unit name, actor->unit mapping), only events whose sender belongs
    to that unit contribute.
    """
    if unit_filter is not None:
        unit, mapping = unit_filter
        events = [e for e in events if mapping.get(e.sender) == unit]

    stamps = [e.timestamp for e in events]
    graphs: list[WindowedGraph] = []
    for index, (start, end) in enumerate(window_spans(cfg)):
        lo = bisect_left(stamps, start)
        hi = bisect_left(stamps, end)
        edges: dict[tuple[str, str], tuple[int, float]] = {}
        nodes: set[str] = set()
        for e in events[lo:hi]:
            nodes.add(e.sender)
            for addr, weight in e.recipients:
                nodes.add(addr)
                count, total = edges.get((e.sender, addr), (0, 0.0))
                edges[(e.sender, addr)] = (count + 1, total + weight)
        graphs.append(WindowedGraph(index, start, end, sorted(nodes), edges))
    return graphs


def _symmetrized_csr(g: WindowedGraph) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Simple undirected adjacency in CSR form, nodes in sorted order."""
    nodes = g.nodes
    pos = {v: i for i, v in enumerate(nodes)}
    neighbours: list[set[int]] = [set() for _ in nodes]
    for (src, dst) in g.edges:
        a, b = pos[src], pos[dst]
        if a != b:
            neighbours[a].add(b)
            neighbours[b].add(a)
    indptr = np.zeros(len(nodes) + 1, dtype=np.int32)
    flat: list[int] = []
    for i, ns in enumerate(neighbours):
        flat.extend(sorted(ns))
        indptr[i + 1] = len(flat)
    return indptr, np.asarray(flat, dtype=np.int32), nodes


def degree_centrality(g: WindowedGraph) -> dict[str, float]:
    """Freeman degree centrality deg(v)/(n-1) on the symmetrized graph."""
    if g.n < 2:
        raise DegenerateWindowError(f"degenerate window {g.window_index}: n={g.n}")
    indptr, _, nodes = _symmetrized_csr(g)
    denom = g.n - 1
    return {v: int(indptr[i + 1] - indptr[i]) / denom for i, v in enumerate(nodes)}


def betweenness_centrality(g: WindowedGraph) -> dict[str, float]:
    """Brandes betweenness, normalized by (n-1)(n-2)/2.

    Unreachable pairs contribute nothing.  Values are in [0, 1]; with
    n < 3 every value is zero, and n == 2 never reaches the kernel.
    """
    if g.n < 2:
        raise DegenerateWindowError(f"degenerate window {g.window_index}: n={g.n}")
    if g.n == 2:
        return dict.fromkeys(g.nodes, 0.0)
    indptr, indices, nodes = _symmetrized_csr(g)
    n = g.n
    scores = _kernel.brandes_accumulate(indptr, indices, n)
    scores = scores / (2.0 * ((n - 1) * (n - 2) / 2.0))
    return {v: float(scores[i]) for i, v in enumerate(nodes)}


def group_centralization(centralities: dict[str, float], kind: str) -> float:
    """Freeman group centralization of normalized centralities, in [0, 1].

    The gap sum against the most central actor is divided by its
    theoretical maximum: n-2 for degree, n-1 for betweenness.
    """
    n = len(centralities)
    if n < 3:
        raise CentralizationError(f"centralization undefined: n={n}")
    if kind == "degree":
        denom = n - 2
    elif kind == "betweenness":
        denom = n - 1
    else:
        raise ValueError(f"unknown centralization kind: {kind!r}")
    c_max = max(centralities.values())
    gap_sum = sum(c_max - c for c in centralities.values())
    return min(1.0, max(0.0, gap_sum / denom))


def write_window_csv(graphs: list[WindowedGraph], path) -> None:
    """Debug emission: one edge-list row per (window, src, dst)."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_index", "src", "dst", "count", "weight_sum"])
        for g in graphs:
            for (src, dst), (count, total) in sorted(g.edges.items()):
                writer.writerow([g.window_index, src, dst, count, repr(total)])
