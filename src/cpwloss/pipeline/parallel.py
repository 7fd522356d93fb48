"""Order-preserving map over independent work items on a forked process pool.

:func:`ordered_map` runs ``fn`` over ``items`` on as many worker processes
as the CPUs this process may run on, the number of items and the size rule
allow, and returns the results in input order. Below two workers it is the
builtin ``map`` in this process. The workers are forked, so they inherit
the loaded modules, ``fn`` and ``items``; only item indices go to them and
only results come back. Forking is safe while no other thread runs in the
calling process, as in the CLI: the workers are all forked before the pool
starts its own threads, and those have ended when ``ordered_map`` returns.

A worker catches the warnings each item raises and the parent replays them
in item order; the first exception in item order is raised again in the
parent, so a pooled run warns and fails as the serial one does.
"""

from __future__ import annotations

import os
import warnings

# the least input, in bytes, that one worker process is started for: below
# twice this a map stays in this process. On a 2-CPU host two workers broke
# even at about 1 MiB each for trace ingest and 0.4 MiB for fits; this keeps
# a factor of two or more above both.
MIN_BYTES_PER_WORKER = 2 << 20

_job = None  # a worker's (fn, items), set when the worker starts


def worker_count(n_items: int, work_bytes: int) -> int:
    """Workers for ``n_items`` items holding ``work_bytes`` bytes of input:
    at most one per usable CPU, per item and per MIN_BYTES_PER_WORKER."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = 1
    return min(cpus, n_items, work_bytes // MIN_BYTES_PER_WORKER)


def _start_worker(fn, items) -> None:
    global _job
    _job = (fn, items)


def _run(i: int):
    """Item ``i`` of the running job: (result, exception, warnings)."""
    fn, items = _job
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out, err = fn(items[i]), None
        except Exception as exc:  # noqa: BLE001 - raised again in the parent
            out, err = None, exc
    return out, err, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def ordered_map(fn, items, work_bytes: int) -> list:
    """``list(map(fn, items))``, on worker processes when the work is large.

    Args:
        fn: a function of one item. On the pool it runs in a forked copy
            of this process, so anything it changes besides its result is
            lost.
        items: a sequence of independent work items.
        work_bytes: the size of the input the items stand for, which the
            size rule of :func:`worker_count` weighs.
    """
    n = worker_count(len(items), work_bytes)
    if n < 2:
        return list(map(fn, items))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # the executor, unlike multiprocessing.Pool, fails instead of hanging
    # when a worker dies; fork passes the initializer's arguments unpickled
    fork = multiprocessing.get_context("fork")
    chunk = -(-len(items) // (4 * n))
    with ProcessPoolExecutor(
        n, mp_context=fork, initializer=_start_worker, initargs=(fn, items)
    ) as pool:
        done = list(pool.map(_run, range(len(items)), chunksize=chunk))
    results = []
    for out, err, caught in done:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if err is not None:
            raise err
        results.append(out)
    return results
