"""Windowed interaction graphs, actor centralities, group centralization.

Structure metrics run on the symmetrized simple graph (an edge iff a
message passed in either direction), which keeps the classic Freeman
extremal cases exact: a star centralizes to 1.0, a cycle to 0.0.

`build_windows` builds every window of an EventTable at once, with its
directed edges and its symmetrized CSR adjacency, from array operations
over (window, actor) node codes; a window's edge dict of strings is
made only when someone looks it up.

Betweenness is Brandes' algorithm over a CSR adjacency, run by the
vectorized numpy/scipy.sparse kernel in orgsignals._betweenness_py.
`_kernel` names that module and `orgsignals.KERNEL_BACKEND` names its
backend.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from . import _betweenness_py as _kernel
from .ingest import MessageEvent
from .table import EventTable, concat_ranges, stamp_us


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


class _WindowEdges(Mapping):
    """A window's directed edges, (src, dst) -> (count, weight sum).

    Held as arrays of node positions; the dict of strings is made on the
    first lookup.
    """

    __slots__ = ("_nodes", "_src", "_dst", "_counts", "_sums", "_dict")

    def __init__(self, nodes, src, dst, counts, sums):
        self._nodes, self._src, self._dst = nodes, src, dst
        self._counts, self._sums = counts, sums
        self._dict = None

    def __len__(self) -> int:
        return len(self._src)

    def _items(self) -> dict[tuple[str, str], tuple[int, float]]:
        if self._dict is None:
            nodes = self._nodes
            self._dict = {
                (nodes[src], nodes[dst]): (count, total)
                for src, dst, count, total in zip(
                    self._src.tolist(), self._dst.tolist(),
                    self._counts.tolist(), self._sums.tolist(),
                )
            }
        return self._dict

    def __iter__(self):
        return iter(self._items())

    def __getitem__(self, key):
        return self._items()[key]

    def __repr__(self) -> str:
        return repr(self._items())


@dataclass(slots=True)
class WindowedGraph:
    """Directed weighted multigraph for one window, one edge per actor pair.

    `nodes` is sorted.  `csr` is the symmetrized simple adjacency over
    the node positions, (indptr, indices); `adjacency()` makes it from
    `edges` when it is not given.
    """

    window_index: int
    window_start: datetime
    window_end: datetime
    nodes: list[str] = field(default_factory=list)
    edges: Mapping[tuple[str, str], tuple[int, float]] = field(default_factory=dict)
    csr: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return len(self.nodes)

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        if self.csr is None:
            pos = {v: i for i, v in enumerate(self.nodes)}
            src, dst = np.array(
                [(pos[a], pos[b]) for a, b in self.edges], dtype=np.int64
            ).reshape(-1, 2).T
            indptr, indices = _symmetric_adjacency(src, dst, self.n)
            self.csr = indptr.astype(np.int32), indices.astype(np.int32)
        return self.csr


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values: np.unique by one sort, several times
    faster on these int64 codes than numpy 2's hash-based np.unique."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _symmetric_adjacency(src: np.ndarray, dst: np.ndarray, n: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the simple undirected graph on n nodes with the edges src-dst.

    Loops are dropped and each neighbour is listed once, in order.
    """
    keep = src != dst
    src, dst = src[keep], dst[keep]
    pairs = _distinct(np.concatenate([src * n + dst, dst * n + src]))
    rows, indices = np.divmod(pairs, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, indices


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


def window_members(table: EventTable, spans: list[tuple[datetime, datetime]]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows and recipient entries of every window of a time-sorted table.

    Returns (window of each row, rows, window of each entry, entries),
    window after window and in row order within each; a row is in a
    window iff start <= timestamp < end.
    """
    bounds = np.searchsorted(
        table.stamp_us, [stamp_us(t) for span in spans for t in span], side="left"
    )
    firsts, lasts = bounds[0::2], bounds[1::2]
    windows = np.arange(len(spans))
    indptr = table.recipient_indptr
    lo, hi = indptr[firsts], indptr[lasts]
    return (np.repeat(windows, lasts - firsts), concat_ranges(firsts, lasts),
            np.repeat(windows, hi - lo), concat_ranges(lo, hi))


def build_windows(events: EventTable | list[MessageEvent], cfg: TimeWindowConfig
                  ) -> list[WindowedGraph]:
    """Build one interaction graph per window position.

    `events`, a table or a MessageEvent list, must be time-sorted.  A
    message falls in a window iff window_start <= timestamp < window_end.

    All windows are built at once.  A window node is a (window, actor)
    pair, numbered window after window and in address order within a
    window.  Each recipient entry is an edge between the nodes of its
    sender and its recipient; the distinct edges, their message counts
    and their weight sums, accumulated in row order, come from one
    `np.unique` over the codes src * N + dst, and the symmetrized
    adjacency of every window from one more sort.
    """
    table = events if isinstance(events, EventTable) else EventTable.from_events(events)
    spans = window_spans(cfg)
    if not spans:
        return []
    k = len(table.actors)
    row_window, rows, entry_window, entries = window_members(table, spans)
    src_keys = entry_window * k + table.recipient_senders()[entries]
    dst_keys = entry_window * k + table.recipient_ids[entries]
    node_keys = _distinct(np.concatenate([row_window * k + table.sender[rows], dst_keys]))
    n_total = len(node_keys)
    offsets = np.searchsorted(node_keys, np.arange(len(spans) + 1) * k).tolist()
    first_node = np.repeat(offsets[:-1], np.diff(offsets))  # of each node's window

    codes, inverse = np.unique(
        np.searchsorted(node_keys, src_keys) * n_total + np.searchsorted(node_keys, dst_keys),
        return_inverse=True,
    )
    counts = np.bincount(inverse, minlength=len(codes))
    sums = np.bincount(inverse, weights=table.recipient_weights[entries], minlength=len(codes))
    src, dst = np.divmod(codes, n_total)
    edge_offsets = np.searchsorted(src, offsets).tolist()
    src_local, dst_local = src - first_node[src], dst - first_node[dst]

    indptr, indices = _symmetric_adjacency(src, dst, n_total)
    indices = (indices - first_node[indices]).astype(np.int32)

    actors = table.actors
    node_names = [actors[a] for a in (node_keys % k).tolist()]
    graphs: list[WindowedGraph] = []
    for index, (start, end) in enumerate(spans):
        lo, hi = offsets[index], offsets[index + 1]
        e_lo, e_hi = edge_offsets[index], edge_offsets[index + 1]
        nodes = node_names[lo:hi]
        edges = _WindowEdges(nodes, src_local[e_lo:e_hi], dst_local[e_lo:e_hi],
                             counts[e_lo:e_hi], sums[e_lo:e_hi])
        window_indptr = indptr[lo:hi + 1]
        csr = ((window_indptr - window_indptr[0]).astype(np.int32),
               indices[window_indptr[0]:window_indptr[-1]])
        graphs.append(WindowedGraph(index, start, end, nodes, edges, csr))
    return graphs


def degree_centrality(g: WindowedGraph) -> dict[str, float]:
    """Freeman degree centrality deg(v)/(n-1) on the symmetrized graph."""
    if g.n < 2:
        raise DegenerateWindowError(f"degenerate window {g.window_index}: n={g.n}")
    indptr, _ = g.adjacency()
    denom = g.n - 1
    return {v: int(indptr[i + 1] - indptr[i]) / denom for i, v in enumerate(g.nodes)}


def betweenness_centrality(g: WindowedGraph) -> dict[str, float]:
    """Brandes betweenness, normalized by (n-1)(n-2)/2.

    Unreachable pairs contribute nothing.  Values are in [0, 1]; with
    n < 3 every value is zero, and n == 2 never reaches the kernel.
    """
    if g.n < 2:
        raise DegenerateWindowError(f"degenerate window {g.window_index}: n={g.n}")
    if g.n == 2:
        return dict.fromkeys(g.nodes, 0.0)
    indptr, indices = g.adjacency()
    n = g.n
    scores = _kernel.brandes_accumulate(indptr, indices, n)
    scores = scores / (2.0 * ((n - 1) * (n - 2) / 2.0))
    return dict(zip(g.nodes, scores.tolist()))


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
