"""Window construction, centralities, and Freeman centralization."""

import random
import warnings
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orgsignals import _betweenness_py, graph
from orgsignals.graph import (
    CentralizationError,
    DegenerateWindowError,
    TimeWindowConfig,
    WindowedGraph,
    betweenness_centrality,
    build_windows,
    group_centralization,
    window_spans,
)

from conftest import T0, mk_event
from oracles import (
    brute_betweenness,
    float64_brandes_accumulate,
    loop_brandes,
    loop_symmetrized_csr,
)

# There is one kernel; the parameter keeps the ids of the kernel tests stable.
each_kernel = pytest.mark.parametrize(
    "kernel", [_betweenness_py.brandes_accumulate], ids=["_betweenness_py"]
)


def make_graph(n, edges):
    nodes = [f"n{i:02d}@x.com" for i in range(n)]
    edge_map = {(nodes[a], nodes[b]): (1, 1.0) for a, b in edges}
    # int32, as build_windows makes it
    csr = tuple(a.astype(np.int32) for a in loop_symmetrized_csr(nodes, edge_map))
    return WindowedGraph(0, T0, T0 + timedelta(days=7), nodes, edge_map, csr), nodes


def star_edges(n):
    return [(0, i) for i in range(1, n)]


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


# ---------------------------------------------------------------------------
# build_windows
# ---------------------------------------------------------------------------

def test_single_event_lands_in_first_window():
    events = [mk_event("a@x.com", ["b@x.com"], hours=0)]
    cfg = TimeWindowConfig(corpus_start=T0, corpus_end=T0 + timedelta(days=14))
    graphs = build_windows(events, cfg)
    assert len(graphs) == 2
    assert graphs[0].edges == {("a@x.com", "b@x.com"): (1, 1.0)}
    assert graphs[1].edges == {}
    assert graphs[1].nodes == []


def test_recipient_weights_accumulate():
    events = [mk_event("a@x.com", [("b@x.com", 1.0), ("c@x.com", 0.5)], hours=1)]
    cfg = TimeWindowConfig(corpus_start=T0, corpus_end=T0 + timedelta(days=7))
    (g,) = build_windows(events, cfg)
    assert g.edges[("a@x.com", "b@x.com")] == (1, 1.0)
    assert g.edges[("a@x.com", "c@x.com")] == (1, 0.5)


def test_sliding_windows_event_membership_matches_enumeration():
    # derived oracle: enumerate the 7d/1d spans that contain day 10
    cfg = TimeWindowConfig(
        window_length=timedelta(days=7),
        step=timedelta(days=1),
        corpus_start=T0,
        corpus_end=T0 + timedelta(days=20),
    )
    spans = window_spans(cfg)
    event_time = T0 + timedelta(days=10)
    expected = [i for i, (lo, hi) in enumerate(spans) if lo <= event_time < hi]
    assert len(expected) == 7

    events = [mk_event("a@x.com", ["b@x.com"], hours=240)]
    graphs = build_windows(events, cfg)
    populated = [g.window_index for g in graphs if g.edges]
    assert populated == expected


def test_empty_corpus_range_gives_no_windows():
    cfg = TimeWindowConfig(corpus_start=T0, corpus_end=T0)
    assert build_windows([], cfg) == []


def test_window_isolation_under_added_edge():
    cfg = TimeWindowConfig(corpus_start=T0, corpus_end=T0 + timedelta(days=21))
    base = [mk_event("a@x.com", ["b@x.com"], hours=0)]
    extra = base + [mk_event("c@x.com", ["d@x.com"], hours=10 * 24)]
    before = build_windows(base, cfg)
    after = build_windows(extra, cfg)
    assert before[0].edges == after[0].edges
    assert before[2].edges == after[2].edges


def test_invalid_window_config():
    with pytest.raises(ValueError):
        TimeWindowConfig(window_length=timedelta(0))
    with pytest.raises(ValueError):
        TimeWindowConfig(step=timedelta(days=-1))


@given(
    st.integers(1, 14),   # window length days
    st.integers(1, 14),   # step days
    st.integers(0, 40 * 24),  # event offset hours
)
@settings(max_examples=80, deadline=None)
def test_event_membership_matches_span_arithmetic(length, step, offset):
    cfg = TimeWindowConfig(
        window_length=timedelta(days=length),
        step=timedelta(days=step),
        corpus_start=T0,
        corpus_end=T0 + timedelta(days=40),
    )
    event = mk_event("a@x.com", ["b@x.com"], hours=offset)
    graphs = build_windows([event], cfg)
    populated = {g.window_index for g in graphs if g.edges}
    expected = {
        i for i, (lo, hi) in enumerate(window_spans(cfg))
        if lo <= event.timestamp < hi
    }
    assert populated == expected


# ---------------------------------------------------------------------------
# betweenness centrality
# ---------------------------------------------------------------------------

def test_betweenness_path():
    g, nodes = make_graph(3, [(0, 1), (1, 2)])
    c = betweenness_centrality(g)
    assert c[nodes[1]] == 1.0
    assert c[nodes[0]] == c[nodes[2]] == 0.0


def test_betweenness_four_cycle_derived():
    g, nodes = make_graph(4, cycle_edges(4))
    c = betweenness_centrality(g)
    for v in nodes:
        assert c[v] == pytest.approx(1 / 6, abs=1e-12)


def test_betweenness_star():
    g, nodes = make_graph(5, star_edges(5))
    c = betweenness_centrality(g)
    assert c[nodes[0]] == 1.0
    assert all(c[v] == 0.0 for v in nodes[1:])


def test_betweenness_degenerate():
    g, _ = make_graph(1, [])
    with pytest.raises(DegenerateWindowError):
        betweenness_centrality(g)


def test_betweenness_n2_is_zero():
    g, nodes = make_graph(2, [(0, 1)])
    assert betweenness_centrality(g) == {nodes[0]: 0.0, nodes[1]: 0.0}


@pytest.mark.parametrize("edges", [[], [(0, 1)], [(1, 0)]], ids=["apart", "ab", "ba"])
def test_betweenness_n2_skips_the_kernel(monkeypatch, edges):
    def no_kernel(*args):
        raise AssertionError("kernel called for n == 2")

    monkeypatch.setattr(graph._kernel, "brandes_accumulate", no_kernel)
    g, nodes = make_graph(2, edges)
    result = betweenness_centrality(g)
    assert result == {nodes[0]: 0.0, nodes[1]: 0.0}
    assert list(result) == nodes


def test_edgeless_graph_all_zero():
    g, nodes = make_graph(4, [])
    assert set(betweenness_centrality(g).values()) == {0.0}
    assert group_centralization(betweenness_centrality(g)) == 0.0


def kernel_scores(kernel, n, edges):
    """Ordered-pair scores of `kernel` on the graph over nodes 0..n-1."""
    indptr, indices = make_graph(n, edges)[0].csr
    return list(kernel(indptr, indices, n))


@each_kernel
def test_betweenness_matches_brute_force_random_graphs(kernel):
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randint(3, 8)
        edges = {
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < rng.choice([0.2, 0.4, 0.7])
        }
        indptr, indices = make_graph(n, edges)[0].csr
        scores = kernel(indptr, indices, n)
        normalized = [s / ((n - 1) * (n - 2)) for s in scores]
        expected = brute_betweenness(n, edges)
        for i in range(n):
            assert abs(normalized[i] - float(expected[i])) <= 1e-12


@each_kernel
def test_kernel_path_longer_than_a_source_block(kernel):
    # vertex i of a path lies on every shortest path between its i left
    # and n-1-i right neighbours; the integer scores are exact in float64
    n = _betweenness_py.SOURCE_BLOCK + 72
    scores = kernel_scores(kernel, n, {(i, i + 1) for i in range(n - 1)})
    assert [s / 2 for s in scores] == [i * (n - 1 - i) for i in range(n)]


@each_kernel
def test_kernel_disconnected_components_and_isolated_nodes(kernel):
    # a triangle with a tail, a 3-path, a dyad, and the isolated node 9
    n = 10
    edges = {(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 6), (7, 8)}
    scores = kernel_scores(kernel, n, edges)
    expected = brute_betweenness(n, edges)
    for i in range(n):
        assert abs(scores[i] / ((n - 1) * (n - 2)) - float(expected[i])) <= 1e-12
    assert scores[9] == 0.0


@each_kernel
@pytest.mark.parametrize("edges", [set(), {(0, 1)}], ids=["apart", "joined"])
def test_kernel_two_nodes(kernel, edges):
    assert kernel_scores(kernel, 2, edges) == [0.0, 0.0]


@each_kernel
@pytest.mark.parametrize("n,mean_degree", [(60, 2.0), (150, 6.0), (300, 3.0)])
def test_kernel_matches_loop_brandes_on_larger_graphs(kernel, n, mean_degree):
    # too large for path enumeration; n=300 spans several source blocks.
    # Summation order differs from the loop, so compare to float64 rounding.
    rng = random.Random(n)
    p = mean_degree / (n - 1)
    edges = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p}
    assert kernel_scores(kernel, n, edges) == pytest.approx(
        loop_brandes(n, edges), rel=1e-12, abs=1e-12
    )


def several_blocks_graph():
    """n = 3 * SOURCE_BLOCK + 5 nodes: a sparse random part, a long path,
    a star, two dyads and isolated nodes, numbered so that every source
    block meets more than one component."""
    n = 3 * _betweenness_py.SOURCE_BLOCK + 5
    rng = random.Random(2011)
    order = list(range(n))
    rng.shuffle(order)
    random_part, path, star, dyads = order[:200], order[200:330], order[330:350], order[350:354]
    edges = {
        (a, b) for i, a in enumerate(random_part) for b in random_part[i + 1:]
        if rng.random() < 2.5 / len(random_part)
    }
    edges |= set(zip(path, path[1:]))
    edges |= {(star[0], leaf) for leaf in star[1:]}
    edges |= {(dyads[0], dyads[1]), (dyads[2], dyads[3])}
    return n, edges, order[354:]


def test_kernel_matches_loop_brandes_across_several_blocks():
    n, edges, isolated = several_blocks_graph()
    scores = kernel_scores(_betweenness_py.brandes_accumulate, n, edges)
    assert scores == pytest.approx(loop_brandes(n, edges), rel=1e-12, abs=1e-12)
    assert all(scores[v] == 0.0 for v in isolated)


def adjacency_of(n, edges):
    return (*make_graph(n, edges)[0].csr, n)


@st.composite
def shuffled_graphs(draw):
    """n from 3 to 3 * SOURCE_BLOCK + 5 nodes in random order: a path, a
    run of isolated nodes, and a random part that may fall apart."""
    n = draw(st.integers(3, 3 * _betweenness_py.SOURCE_BLOCK + 5))
    path = draw(st.integers(0, n))
    isolated = draw(st.integers(0, n - path))
    mean_degree = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0]))
    rng = draw(st.randoms(use_true_random=False))
    order = list(range(n))
    rng.shuffle(order)
    rest = order[path + isolated:]
    edges = set(zip(order[:path], order[1:path]))
    edges |= {
        (a, b) for i, a in enumerate(rest) for b in rest[i + 1:]
        if rng.random() < mean_degree / len(rest)
    }
    return n, edges


@given(shuffled_graphs())
@example((3 * _betweenness_py.SOURCE_BLOCK + 5,
          {(i, i + 1) for i in range(3 * _betweenness_py.SOURCE_BLOCK + 4)}))
@settings(max_examples=40, deadline=None)
def test_kernel_is_bit_identical_to_float64_blocks(graph_and_edges):
    # path counts in float32 below 2**24, level 1 from the adjacency's
    # rows, and no product after the last node is reached: the same bits
    n, edges = graph_and_edges
    indptr, indices, n = adjacency_of(n, edges)
    assert np.array_equal(_betweenness_py.brandes_accumulate(indptr, indices, n),
                          float64_brandes_accumulate(indptr, indices, n))


def layered_edges(layers, width=3):
    """Layers of `width` nodes, each joined to the next in full: from a
    node of the first layer, width ** (layers - 2) shortest paths reach
    each node of the last."""
    return {
        (layer * width + a, (layer + 1) * width + b)
        for layer in range(layers - 1) for a in range(width) for b in range(width)
    }


def one_past_2_24_paths():
    """2**24 + 1 shortest paths from node 0 to node 49: 2**24 through 24
    layers of 2 nodes (1 .. 48), and one more along the path 50 .. 73."""
    edges = {(0, 1), (0, 2), (47, 49), (48, 49)}
    edges |= {(a + 1, b + 1) for a, b in layered_edges(24, width=2)}
    path = [0, *range(50, 74), 49]
    edges |= set(zip(path, path[1:]))
    return 74, edges


@pytest.mark.parametrize("n,edges", [
    one_past_2_24_paths(),
    (3 * 18, layered_edges(18)),
    (3 * 90, layered_edges(90)),
], ids=["2**24+1", "3**16", "3**88"])
def test_kernel_counts_past_float32_exactness_in_float64(n, edges):
    # 2**24 + 1 rounds to 2**24 in float32, 3**16 is past 2**24, and 3**88
    # past float32's range; an inf or NaN would raise as a RuntimeWarning
    indptr, indices, n = adjacency_of(n, edges)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = _betweenness_py.brandes_accumulate(indptr, indices, n)
    assert list(scores) == pytest.approx(loop_brandes(n, edges), rel=1e-12, abs=1e-12)
    assert np.array_equal(scores, float64_brandes_accumulate(indptr, indices, n))


def test_betweenness_values_in_unit_interval_fuzz():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 12)
        edges = {
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3
        }
        g, _ = make_graph(n, edges)
        for value in betweenness_centrality(g).values():
            assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# group centralization
# ---------------------------------------------------------------------------

# One centrality is centralized; the parameter keeps the ids of these tests stable.
each_centrality = pytest.mark.parametrize(
    "centrality", [betweenness_centrality], ids=["betweenness"]
)


@each_centrality
def test_star_centralization_is_one(centrality):
    g, _ = make_graph(5, star_edges(5))
    assert group_centralization(centrality(g)) == pytest.approx(1.0, abs=1e-12)


@each_centrality
def test_cycle_centralization_is_zero(centrality):
    g, _ = make_graph(5, cycle_edges(5))
    assert group_centralization(centrality(g)) == pytest.approx(0.0, abs=1e-12)


def test_centralization_zero_iff_equal():
    assert group_centralization({"a": 0.4, "b": 0.4, "c": 0.4}) == 0.0
    assert group_centralization({"a": 0.5, "b": 0.4, "c": 0.4}) > 0.0


def test_centralization_undefined_below_three():
    with pytest.raises(CentralizationError, match="centralization undefined"):
        group_centralization({"a": 1.0, "b": 0.0})


def test_centralization_invariant_under_relabeling():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(3, 9)
        edges = {
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4
        }
        g, nodes = make_graph(n, edges)
        value = group_centralization(betweenness_centrality(g))

        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = {(perm[a], perm[b]) for a, b in edges}
        g2, _ = make_graph(n, relabeled)
        value2 = group_centralization(betweenness_centrality(g2))
        assert value == pytest.approx(value2, abs=1e-12)
