"""Worker processes: the one way `ingest` and `analyze` start them.

`fork_pool` forks the workers of a `ProcessPoolExecutor`.  A forked
worker runs no module again, and it keeps the malloc thresholds that
the parent has raised, which the betweenness kernel needs to run at
full speed (README, "Worker processes").  Forking is safe here: neither
command starts a thread of its own, numpy's BLAS threads are idle and
no worker calls into BLAS, and since Python 3.11 the executor forks
every worker before it starts its manager thread.

Each worker runs a daemon thread that polls `os.getppid()` and ends the
worker once its parent is gone: a worker waits on the executor's call
queue, whose write end it holds itself, so it would otherwise outlive a
killed parent.  `multiprocessing`, `concurrent.futures` and `threading`
are imported only when a pool starts.
"""

from __future__ import annotations

import os
import sys

_WATCH_S = 0.1  # seconds between a worker's looks at its parent


def usable_cpus() -> int:
    """The number of CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _watch(parent: int) -> None:
    import time

    while os.getppid() == parent:
        time.sleep(_WATCH_S)
    os._exit(1)


def _watched_start(parent: int, initializer, initargs: tuple) -> None:
    import signal
    import threading

    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the handler of the parent's command
    threading.Thread(target=_watch, args=(parent,), daemon=True).start()
    if initializer is not None:
        initializer(*initargs)


def fork_pool(workers: int, initializer=None, initargs: tuple = ()):
    """A pool of `workers` forked processes, each of which runs
    `initializer(*initargs)` first; None where fewer than 2 workers are
    asked for, where `fork` is not a start method, or before Python 3.11."""
    if workers < 2 or sys.version_info < (3, 11):
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_watched_start,
                               initargs=(os.getpid(), initializer, initargs))
