"""Vectorized Brandes kernel in numpy and scipy.sparse.

Ordered-pair betweenness scores over a symmetric simple CSR adjacency,
to be halved by the caller.

The algorithm is Brandes (2001) in the level-synchronous, algebraic form
of Kepner & Gilbert (eds., 2011), run for a block of sources at once.
Each source owns one column of an (n, block) matrix:

- forward: the BFS frontier, holding the shortest-path counts (sigma) of
  the nodes first reached at level d, times the adjacency gives the
  counts at level d + 1;
- backward: from the deepest level up, the coefficients (1 + delta) /
  sigma of the nodes at level d, times the adjacency and then sigma,
  give the dependencies (delta) of their predecessors at level d - 1.

Between the sparse products every pass is a plain dense ufunc: a level
is selected by multiplying with its 0/1 mask, not by boolean indexing
or `where=`, which cost several times as much per element.  The level
of each node is read back from `dist`, so memory is O(SOURCE_BLOCK * n)
per block whatever the depth of the graph.

Graphs larger than one block run their blocks one after another on the
calling thread, summed in block order.  scipy's sparse-by-dense product
holds the GIL, so a thread pool could overlap only the dense passes, and
each of its threads kept a malloc arena of its own.
"""

import numpy as np
from scipy import sparse

# Sources per block.  Bounds the working set to a few (n, SOURCE_BLOCK)
# matrices.  On 500-node windows, blocks of 64 to 512 sources ran equally
# fast, so the smaller working set wins.
SOURCE_BLOCK = 128


def brandes_accumulate(indptr, indices, n: int) -> np.ndarray:
    """Sum shortest-path dependencies from every source node.

    indptr/indices describe a symmetric simple graph in CSR form (each
    undirected edge stored in both directions).  Returns a float64 array
    of ordered-pair betweenness scores: the caller halves them to count
    each unordered pair once.
    """
    adjacency = sparse.csr_array(
        (np.ones(len(indices), dtype=np.float64), indices, indptr), shape=(n, n)
    )
    scores = _block_dependencies(adjacency, 0, n)
    for first in range(SOURCE_BLOCK, n, SOURCE_BLOCK):
        scores += _block_dependencies(adjacency, first, n)
    return scores


def _block_dependencies(adjacency, first: int, n: int) -> np.ndarray:
    """Dependencies summed over the sources first .. first + SOURCE_BLOCK - 1,
    one column per source."""
    width = min(SOURCE_BLOCK, n - first)
    columns = np.arange(width)
    shape = (n, width)
    dist = np.zeros(shape, dtype=np.int32)
    unreached = np.ones(shape, dtype=bool)
    unreached[columns + first, columns] = False
    frontier = np.zeros(shape, dtype=np.float64)
    frontier[columns + first, columns] = 1.0
    sigma = frontier.copy()

    # Each level adds 1 to the distance of every node not reached before
    # it, so a node first reached at level d ends at d, and a node never
    # reached ends one past the deepest level.
    fresh = np.empty(shape, dtype=bool)
    depth = 0
    while True:
        frontier = adjacency @ frontier
        np.greater(frontier, 0.0, out=fresh)
        fresh &= unreached
        dist += unreached
        if not fresh.any():
            break
        depth += 1
        frontier *= fresh
        sigma += frontier
        unreached ^= fresh

    # Sources sit at level 0; their own delta is never counted, so the
    # sweep stops once it has filled level 1.  Each entry of delta is
    # written once, at its own level, by adding to its zero.  Unreached
    # entries of sigma become 1, so that every quotient is finite; their
    # dist lies beyond every level, so no mask selects them.
    sigma += unreached
    delta = np.zeros(shape, dtype=np.float64)
    level = fresh
    np.equal(dist, depth, out=level)
    work = frontier
    for d in range(depth, 1, -1):
        np.add(delta, 1.0, out=work)
        work /= sigma
        work *= level
        work = adjacency @ work
        np.equal(dist, d - 1, out=level)
        work *= sigma
        work *= level
        delta += work
    return delta.sum(axis=1)
