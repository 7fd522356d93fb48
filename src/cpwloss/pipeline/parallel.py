"""Order-preserving map over independent work items on forked worker processes.

:func:`ordered_map` runs ``fn`` over ``items`` on as many workers as the
usable CPUs, the items and the size rule allow, and returns the results in
input order; below two workers it is the builtin ``map`` in this process.
The items are dealt out before any fork, largest first, each to the worker
with the fewest bytes so far. Each worker, an ``os.fork`` of the caller,
pickles its results down its own pipe and leaves through ``os._exit``. The
parent starts no thread: it reads each pipe to its end and reaps each
worker, then replays the warnings and raises the first exception in item
order, as a serial run would. A dead worker, or one that cannot pickle its
results, fails the map with ``ChildProcessError`` (an ``OSError``: exit 1).
"""

from __future__ import annotations

import os
import pickle
import warnings

# the input bytes per worker process: below twice this a map stays in this
# process. Two workers broke even at about 0.65 MiB each (2 CPUs, end to end).
MIN_BYTES_PER_WORKER = 2 << 20


def worker_count(n_items: int, work_bytes: int) -> int:
    """Workers for ``n_items`` items holding ``work_bytes`` bytes of input:
    at most one per usable CPU, per item and per MIN_BYTES_PER_WORKER."""
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


def ordered_map(fn, items, sizes: list[int]) -> list:
    """``list(map(fn, items))``, on worker processes when the work is large.

    ``fn`` runs in a forked copy of this process, so what it changes besides
    its result is lost; forking is safe only while no other thread runs, as
    in the CLI. ``sizes`` are the items' input bytes: the size rule weighs
    their sum, and the items are dealt to the workers by them."""
    n = worker_count(len(items), sum(sizes))
    if n < 2:
        return list(map(fn, items))
    shares, loads = [[] for _ in range(n)], [0] * n
    for i in sorted(range(len(items)), key=lambda i: -sizes[i]):
        k = min(range(n), key=lambda k: (loads[k], len(shares[k])))
        shares[k].append(i)
        loads[k] += sizes[i]
    workers = []
    try:
        for share in shares:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker never returns; a failure leaves its pipe empty
                status = 1
                try:
                    data = pickle.dumps({i: _run(fn, items[i]) for i in share})
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            workers.append((pid, r))
    finally:  # every worker forked is read to the end and reaped, even if a fork fails
        reads = []
        for pid, r in workers:
            with open(r, "rb") as pipe:
                reads.append((pipe.read(), os.waitpid(pid, 0)[1]))
    done = {}
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
