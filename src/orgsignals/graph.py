"""Windowed interaction graphs, betweenness, and its group centralization.

Betweenness runs on the symmetrized simple graph (an edge iff a message
passed in either direction), which keeps the classic Freeman extremal
cases exact: a star centralizes to 1.0, a cycle to 0.0.

`build_windows` builds every window of an EventTable at once, from
array operations over (window, actor) node codes: its directed edge
table, its symmetrized CSR adjacency and each node's contribution index
all come from the one grouping of the window's rows and entries.

Betweenness is Brandes' algorithm over a CSR adjacency, run by the
vectorized numpy/scipy.sparse kernel in orgsignals._betweenness_py.
`_kernel` names that module and `orgsignals.KERNEL_BACKEND` names its
backend.  `window_betweenness` scores a series of windows, the large
ones on the worker processes of a `WindowPool`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from . import _betweenness_py as _kernel
from . import _workers
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


# A window's directed edges, one row per (src, dst) pair of node positions
# within the window, in (src, dst) order: the message count and the sum of
# the recipient weights of the pair's entries.
EDGE_DTYPE = np.dtype([("src", np.int32), ("dst", np.int32),
                       ("count", np.int64), ("weight_sum", np.float64)])


@dataclass(slots=True)
class WindowedGraph:
    """Directed weighted multigraph for one window, one edge per actor pair.

    `nodes` is sorted, and the other fields index it by position:
    `edges` is an EDGE_DTYPE array in (src, dst) order, so also in the
    order of the address pairs; `csr` is the symmetrized simple
    adjacency, (indptr, indices); `ci` is each node's contribution
    index, (sent - received) / (sent + received), counting the messages
    it sent and the recipient entries it received in the window.
    """

    window_index: int
    window_start: datetime
    window_end: datetime
    nodes: list[str]
    edges: np.ndarray
    csr: tuple[np.ndarray, np.ndarray]
    ci: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)


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

    `events` must be time-sorted.  Every analyze stage passes an
    EventTable; the MessageEvent list form is kept because
    `perfbench/checks.py` builds its reference windows from one.  A
    message falls in a window iff window_start <= timestamp < window_end.

    All windows are built at once.  A window node is a (window, actor)
    pair, numbered window after window and in address order within a
    window; each row and each recipient entry is looked up once among
    them.  Each recipient entry is an edge between the nodes of its
    sender and its recipient; the distinct edges, their message counts
    and their weight sums, accumulated in row order, come from one
    `np.unique` over the codes src * N + dst, and the symmetrized
    adjacency of every window from one more sort.  A node's contribution
    index counts the rows it sent and the entries it received; every
    node sent or received something, so every index is defined.  Each
    window's `edges` and `ci` are views of one array for all windows.
    """
    table = events if isinstance(events, EventTable) else EventTable.from_events(events)
    spans = window_spans(cfg)
    if not spans:
        return []
    k = len(table.actors)
    row_window, rows, entry_window, entries = window_members(table, spans)
    row_keys = row_window * k + table.sender[rows]
    dst_keys = entry_window * k + table.recipient_ids[entries]
    node_keys = _distinct(np.concatenate([row_keys, dst_keys]))
    n_total = len(node_keys)
    offsets = np.searchsorted(node_keys, np.arange(len(spans) + 1) * k).tolist()
    first_node = np.repeat(offsets[:-1], np.diff(offsets))  # of each node's window

    row_node = np.searchsorted(node_keys, row_keys)
    dst_node = np.searchsorted(node_keys, dst_keys)
    # a window's entries are those of its rows, in row order
    src_node = np.repeat(row_node, np.diff(table.recipient_indptr)[rows])
    sent = np.bincount(row_node, minlength=n_total)
    received = np.bincount(dst_node, minlength=n_total)
    ci = (sent - received) / (sent + received)

    codes, inverse = np.unique(src_node * n_total + dst_node, return_inverse=True)
    src, dst = np.divmod(codes, n_total)
    edges = np.empty(len(codes), dtype=EDGE_DTYPE)
    edges["src"], edges["dst"] = src - first_node[src], dst - first_node[dst]
    edges["count"] = np.bincount(inverse, minlength=len(codes))
    edges["weight_sum"] = np.bincount(inverse, weights=table.recipient_weights[entries],
                                      minlength=len(codes))
    edge_offsets = np.searchsorted(src, offsets).tolist()

    indptr, indices = _symmetric_adjacency(src, dst, n_total)
    indices = (indices - first_node[indices]).astype(np.int32)

    actors = table.actors
    node_names = [actors[a] for a in (node_keys % k).tolist()]
    graphs: list[WindowedGraph] = []
    for index, (start, end) in enumerate(spans):
        lo, hi = offsets[index], offsets[index + 1]
        window_indptr = indptr[lo:hi + 1]
        csr = ((window_indptr - window_indptr[0]).astype(np.int32),
               indices[window_indptr[0]:window_indptr[-1]])
        graphs.append(WindowedGraph(
            index, start, end, node_names[lo:hi],
            edges[edge_offsets[index]:edge_offsets[index + 1]], csr, ci[lo:hi]))
    return graphs


def _betweenness_scores(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Brandes betweenness of the nodes of a window's CSR, n >= 3, normalized
    by (n-1)(n-2)/2.  A `WindowPool` task: it is pickled by name, and the
    worker looks the kernel up when it runs."""
    scores = _kernel.brandes_accumulate(indptr, indices, n)
    return scores / (2.0 * ((n - 1) * (n - 2) / 2.0))


def betweenness_centrality(g: WindowedGraph) -> dict[str, float]:
    """Brandes betweenness, normalized by (n-1)(n-2)/2.

    Unreachable pairs contribute nothing.  Values are in [0, 1]; with
    n < 3 every value is zero, and n == 2 never reaches the kernel.
    """
    if g.n < 2:
        raise DegenerateWindowError(f"degenerate window {g.window_index}: n={g.n}")
    if g.n == 2:
        return dict.fromkeys(g.nodes, 0.0)
    return dict(zip(g.nodes, _betweenness_scores(*g.csr, g.n).tolist()))


# Windows of more than this many nodes are scored on a WindowPool.  A small
# window costs less to score here than to send: `analyze` of the c10 corpus
# with every actor a unit (23k windows of 3 to 15 nodes) took 10.7 to 11.7 s
# with every window of 3 or more nodes sent to the workers, against 4.7 to
# 5.8 s, on a 2-core Xeon.
_POOLED_NODES = _kernel.SOURCE_BLOCK


class WindowPool:
    """Worker processes that score windows of more than `_POOLED_NODES` nodes.

    There is one worker per usable CPU, forked by `_workers.fork_pool` at
    the first `submit` that has at least two such windows; where there
    can be no pool, `submit` leaves every window to the caller.  A task
    sends only a window's CSR, and the scores come back in window order,
    so they are those of the calling process bit for bit.  `close`, or
    leaving the pool as a context manager, joins the workers.
    """

    def __init__(self):
        self._executor = None

    def submit(self, graphs: list[WindowedGraph]) -> list:
        """A future of each window's `_betweenness_scores` sent to the
        workers, None for a window left to the caller, in window order."""
        large = [g.n > _POOLED_NODES for g in graphs]
        if self._executor is None and sum(large) >= 2:
            self._executor = _workers.fork_pool(_workers.usable_cpus())
        if self._executor is None:
            return [None] * len(graphs)
        return [self._executor.submit(_betweenness_scores, *g.csr, g.n) if big else None
                for g, big in zip(graphs, large)]

    def close(self) -> None:
        """Join the workers; the tasks not started are cancelled."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> WindowPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def window_betweenness(graphs: list[WindowedGraph], pool: WindowPool | None = None
                       ) -> Callable[[], list[dict[str, float]]]:
    """Start scoring a series of windows; the call returned gives each
    window's `betweenness_centrality`, or {} for a window of fewer than 2
    nodes, in window order.

    The large windows go to `pool`'s workers now, and the caller can do
    other work before it makes the call; the rest are scored in the
    call.  A fault in a worker is raised by the call.
    """
    futures = pool.submit(graphs) if pool is not None else [None] * len(graphs)

    def collect() -> list[dict[str, float]]:
        series = []
        for g, future in zip(graphs, futures):
            if future is not None:
                series.append(dict(zip(g.nodes, future.result().tolist())))
            elif g.n < 2:
                series.append({})
            else:
                series.append(betweenness_centrality(g))
        return series

    return collect


def group_centralization(betweenness: dict[str, float]) -> float:
    """Freeman group centralization of normalized betweenness, in [0, 1].

    The gap sum against the most central actor is divided by its
    theoretical maximum, n-1, which a star reaches.
    """
    n = len(betweenness)
    if n < 3:
        raise CentralizationError(f"centralization undefined: n={n}")
    c_max = max(betweenness.values())
    gap_sum = sum(c_max - c for c in betweenness.values())
    return min(1.0, max(0.0, gap_sum / (n - 1)))


def write_window_csv(graphs: list[WindowedGraph], path) -> None:
    """Debug emission: one edge-list row per (window, src, dst)."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_index", "src", "dst", "count", "weight_sum"])
        for g in graphs:
            for src, dst, count, total in g.edges.tolist():
                writer.writerow([g.window_index, g.nodes[src], g.nodes[dst], count,
                                 repr(total)])
