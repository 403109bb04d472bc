#!/usr/bin/env python3
"""Time the Brandes kernel on shallow and deep graphs.

Usage: python benchmarks/bench_betweenness.py [--sizes 100,300,500]

For each size it times one full Brandes pass (all sources), best of
three, on three graphs:

- `deg8`: seeded Erdos-Renyi with mean degree ~8, the regime a weekly
  window over a few hundred actors actually produces;
- `deg2`: the same at mean degree ~2, sparse and many levels deep;
- `path`: a path over all n nodes, the deepest graph there is.

The kernel does a sparse product per BFS level in each direction for a
whole block of sources, so its cost grows with the depth of the graph:
the deep cases show how much.  Blocks run one after another on one
thread.
"""

import argparse
import random
import time

import numpy as np

from orgsignals import _betweenness_py


def csr(neighbours):
    indptr = np.zeros(len(neighbours) + 1, dtype=np.int32)
    flat = []
    for i, ns in enumerate(neighbours):
        flat.extend(sorted(ns))
        indptr[i + 1] = len(flat)
    return indptr, np.asarray(flat, dtype=np.int32)


def random_neighbours(n: int, mean_degree: float, seed: int):
    rng = random.Random(seed)
    p = mean_degree / (n - 1)
    neighbours = [set() for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                neighbours[a].add(b)
                neighbours[b].add(a)
    return neighbours


def path_neighbours(n: int):
    neighbours = [set() for _ in range(n)]
    for a in range(n - 1):
        neighbours[a].add(a + 1)
        neighbours[a + 1].add(a)
    return neighbours


def time_kernel(indptr, indices, n, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _betweenness_py.brandes_accumulate(indptr, indices, n)
        best = min(best, time.perf_counter() - started)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", default="100,300,500",
                        help="comma-separated node counts")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    cases = {
        "deg8": lambda n: random_neighbours(n, 8.0, seed=n),
        "deg2": lambda n: random_neighbours(n, 2.0, seed=n),
        "path": path_neighbours,
    }
    print(f"source block {_betweenness_py.SOURCE_BLOCK}")
    print(f"{'n':>6}" + "".join(f" {name:>9} {'edges':>6}" for name in cases))
    for n in sizes:
        line = f"{n:>6}"
        for make in cases.values():
            indptr, indices = csr(make(n))
            line += f" {time_kernel(indptr, indices, n):>8.4f}s {len(indices) // 2:>6}"
        print(line)


if __name__ == "__main__":
    main()
