"""Vectorized Brandes kernel in numpy and scipy.sparse.

Ordered-pair betweenness scores over a symmetric simple CSR adjacency,
to be halved by the caller.

The algorithm is Brandes (2001) in the level-synchronous, algebraic form
of Kepner & Gilbert (eds., 2011), run for a block of sources at once.
Each source owns one column of an (n, block) matrix:

- forward: the BFS frontier, holding the shortest-path counts (sigma) of
  the nodes first reached at level d, times the adjacency gives the
  counts at level d + 1.  Level 1 needs no product: it is the sources'
  own rows of the symmetric adjacency.  The sweep ends on a level that
  reaches nothing new, or as soon as every node is reached, which in a
  connected graph saves the last product;
- backward: from the deepest level up, the coefficients (1 + delta) /
  sigma of the nodes at level d, times the adjacency and then sigma,
  give the dependencies (delta) of their predecessors at level d - 1.

The forward sweep counts in float32, whose products take about half the
time of float64 ones.  Path counts are integers, and float32 holds every
integer below 2**24 exactly, so the counts are those of float64 until a
level's largest count reaches 2**24; the block's forward sweep then runs
again in float64, before any count can overflow.  The backward sweep is
float64.  Either way the scores are those of an all-float64 kernel, bit
for bit.

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

# Every integer below 2**24 is exact in float32, and so is every sum of
# such integers that stays below it.
_EXACT_FLOAT32 = 2.0 ** 24


def brandes_accumulate(indptr, indices, n: int) -> np.ndarray:
    """Sum shortest-path dependencies from every source node.

    indptr/indices describe a symmetric simple graph in CSR form (each
    undirected edge stored in both directions).  Returns a float64 array
    of ordered-pair betweenness scores: the caller halves them to count
    each unordered pair once.
    """
    # float32 ones: a product with a float32 block counts in float32, one
    # with a float64 block in float64, exactly as a float64 adjacency would
    adjacency = sparse.csr_array(
        (np.ones(len(indices), dtype=np.float32), indices, indptr), shape=(n, n)
    )
    scores = _block_dependencies(adjacency, 0, n)
    for first in range(SOURCE_BLOCK, n, SOURCE_BLOCK):
        scores += _block_dependencies(adjacency, first, n)
    return scores


def _block_dependencies(adjacency, first: int, n: int) -> np.ndarray:
    """Dependencies summed over the sources first .. first + SOURCE_BLOCK - 1,
    one column per source."""
    width = min(SOURCE_BLOCK, n - first)
    counted = _path_counts(adjacency, first, width, np.float32)
    if counted is None:
        counted = _path_counts(adjacency, first, width, np.float64)
    sigma, dist, depth = counted
    shape = sigma.shape

    # Sources sit at level 0; their own delta is never counted, so the
    # sweep stops once it has filled level 1.  Each entry of delta is
    # written once, at its own level, by adding to its zero.  Unreached
    # entries of sigma are 1, so that every quotient is finite; their
    # dist lies beyond every level, so no mask selects them.
    delta = np.zeros(shape, dtype=np.float64)
    work = np.empty(shape, dtype=np.float64)
    level = np.equal(dist, depth)
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


def _path_counts(adjacency, first: int, width: int, dtype):
    """The forward sweep of one block: (sigma, dist, depth).

    sigma holds each node's shortest-path count from each source, as
    float64, with 1 for the nodes a source never reaches; dist holds the
    level of each node, and one past the deepest level for those nodes.
    In float32 the counts are exact below 2**24; returns None once a
    count reaches that, before any can overflow.
    """
    n = adjacency.shape[0]
    shape = (n, width)
    columns = np.arange(width)
    dist = np.zeros(shape, dtype=np.int32)
    unreached = np.ones(shape, dtype=bool)
    unreached[columns + first, columns] = False
    sigma = np.zeros(shape, dtype=dtype)
    sigma[columns + first, columns] = 1.0
    # Level 1 is each source's row of the symmetric adjacency, one path
    # to each neighbour.  The row lengths are a subtraction: np.diff's
    # Python wrapper costs more than a dense pass on a window of 5 nodes.
    bounds = adjacency.indptr[first:first + width + 1]
    frontier = np.zeros(shape, dtype=dtype)
    frontier[adjacency.indices[bounds[0]:bounds[-1]],
             np.repeat(columns, bounds[1:] - bounds[:-1])] = 1.0

    # Each level adds 1 to the distance of every node not reached before
    # it, so a node first reached at level d ends at d, and a node never
    # reached ends one past the deepest level.  The sweep ends on a level
    # that reaches nothing new, or once every node is reached.
    left = width * (n - 1)
    fresh = np.empty(shape, dtype=bool)
    depth = 0
    while True:
        np.greater(frontier, 0.0, out=fresh)
        fresh &= unreached
        dist += unreached
        reached = np.count_nonzero(fresh)
        if not reached:
            break
        depth += 1
        frontier *= fresh
        # checked before the next product, whose sums of fewer than n
        # counts below 2**24 stay finite
        if dtype is np.float32 and frontier.max() >= _EXACT_FLOAT32:
            return None
        sigma += frontier
        unreached ^= fresh
        left -= reached
        if not left:
            break
        frontier = adjacency @ frontier
    sigma = sigma.astype(np.float64)
    sigma += unreached
    return sigma, dist, depth
