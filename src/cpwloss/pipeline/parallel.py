"""Order-preserving map over independent work items on forked processes.

:func:`ordered_map` runs ``fn`` over ``items`` on one process per usable
CPU, the caller included, as the items and the size rule allow, and returns
the results in input order. A caller cuts its work into items and weighs
them; the map alone decides how many processes run, and the kernel where
they run. Each process runs one of the largest items, the caller the
largest, then takes its next block, largest first, from one pipe written
whole before any fork, until it is empty. Each worker, an ``os.fork``,
pickles its results down its own pipe and leaves through ``os._exit``; no
thread is started. Even if its share raised, the caller then reads each
pipe to its end and reaps each worker; it replays the warnings and raises
the first exception in item order, as a serial run would. A dead worker
fails the map with ``ChildProcessError`` (exit 1); a crash in the caller's
share ends it.
"""

from __future__ import annotations

import os
import pickle
import warnings

# the bytes read or written per process: below twice this a map stays in
# this process. From an end-to-end break-even scan on 2 CPUs (CHANGES.md).
MIN_BYTES_PER_WORKER = 512 << 10


def worker_count(n_items: int, work_bytes: int) -> int:
    """Processes, the caller included, for ``n_items`` items of ``work_bytes``
    bytes in all: at most one per usable CPU, per item and per MIN_BYTES_PER_WORKER."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = 1
    return min(cpus, n_items, work_bytes // MIN_BYTES_PER_WORKER)


def _run(fn, item):
    """``fn(item)`` as (result, exception, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out, err = fn(item), None
        except Exception as exc:  # noqa: BLE001 - raised again in the parent
            out, err = None, exc
    return out, err, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _share(fn, items, blocks, k, queue) -> dict:
    """``_run`` over block ``k``, then each block numbered in ``queue``, to its end."""
    done, record = {}, k.to_bytes(4, "little")
    while record:
        done.update((i, _run(fn, items[i])) for i in blocks[int.from_bytes(record, "little")])
        record = os.read(queue, 4)
    return done


def ordered_map(fn, items, sizes: list[int]) -> list:
    """``list(map(fn, items))``, on forked processes when the work is large.

    ``fn`` runs in this process or in a forked copy of it, so what it changes
    besides its result may be lost; forking is safe only while no other thread
    runs, as in the CLI. ``sizes`` are the bytes each item reads or writes (a
    sweep's file bytes, a table block's text bytes): the size rule weighs
    their sum, and the largest items run first. The map alone chooses how
    many processes run; a caller only cuts and weighs its items."""
    n = worker_count(len(items), sum(sizes))
    if n < 2:
        return list(map(fn, items))
    order = sorted(range(len(items)), key=lambda i: -sizes[i])
    run = -(-len(order) // (n + 1024))  # at most 1024 blocks queued: 4 KiB fit any Linux pipe
    blocks = [order[s : s + run] for s in range(0, len(order), run)]
    queue, w = os.pipe()
    with open(w, "wb") as pipe:
        pipe.write(b"".join(k.to_bytes(4, "little") for k in range(n, len(blocks))))
    workers = []
    try:
        for k in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker never returns; a failure leaves its pipe empty
                try:
                    data = pickle.dumps(_share(fn, items, blocks, k, queue))
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            workers.append((pid, r))
        done = _share(fn, items, blocks, 0, queue)
    finally:  # every worker forked is read to the end and reaped, even if a fork fails
        os.read(queue, 4096)  # empty the queue: after a failed share or fork, workers stop soon
        os.close(queue)
        reads = []
        for pid, r in workers:
            with open(r, "rb") as pipe:
                reads.append((pipe.read(), os.waitpid(pid, 0)[1]))
    try:  # a worker that exited non-zero counts as one that sent nothing
        for data, status in reads:
            done.update(pickle.loads(b"" if status else data))
    except Exception:  # noqa: BLE001 - an empty or cut-off pipe
        raise ChildProcessError("a worker process died before returning its results") from None
    for i in range(len(items)):
        _, err, caught = done[i]
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if err is not None:
            raise err
    return [done[i][0] for i in range(len(items))]
