"""Independent work on every usable core: the one place the package forks.

Every ensemble is a set of independent path ranges, because each path's
noise is keyed by (seed, path index, step), and every identity scan is an
independent job with its own generator.  Such work is cut into shards, one
per usable core, by :func:`cuts`, and :func:`fork_map` runs each shard but
the first in a forked child; :func:`map_ranges` does both for an ensemble
and runs each shard in batches of at most BATCH items.  Shards and batches
may end at any item.  A shard runs the same code on the same inputs as it
would in process, so no output byte depends on the number of cores or on
BATCH.  The only core control is the process affinity: ``taskset -c 0
detcouple ...`` runs on one.
"""

from __future__ import annotations

import os
import pickle

# Fewer units of work (rows, path-steps or scanned states) than this in a
# shard do not pay for a fork.
MIN_SHARD_WORK = 100_000
# Most items (paths or scanned states) in one batch: an ensemble's step arrays
# and an identity scan's residuals do not grow with the shard.
BATCH = 2048


def usable_cores() -> int:
    """The number of cores this process may run on: its affinity mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def shard_count(work: int, most: int) -> int:
    """Shards for ``work`` units cut into at most ``most`` pieces: one per
    usable core, with at least MIN_SHARD_WORK units each, and at least one."""
    return max(1, min(usable_cores(), most, work // MIN_SHARD_WORK))


def cuts(n: int, work: int) -> list[int]:
    """Bounds of the :func:`shard_count` contiguous shards of items 0 .. n - 1, which
    hold ``work`` units; the shards differ in size by at most one item."""
    k = shard_count(work, n)
    return [n * s // k for s in range(k + 1)]


def batches(p0: int, p1: int) -> list[tuple[int, int]]:
    """The consecutive ranges of at most BATCH items that tile items p0 .. p1 - 1."""
    return [(q, min(q + BATCH, p1)) for q in range(p0, p1, BATCH)]


def map_ranges(fn, n: int, work: int) -> list:
    """``fn(p0, p1)`` for every batch p0 .. p1 - 1 of items, in item order: each shard of
    :func:`cuts` runs through :func:`fork_map`, in :func:`batches`."""
    bounds = cuts(n, work)
    shards = fork_map(lambda s: [fn(*b) for b in batches(bounds[s], bounds[s + 1])],
                      range(len(bounds) - 1))
    return [out for shard in shards for out in shard]


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, running every item but the first in a forked child.

    This process runs ``items[0]`` while the children run the others.  A
    child pickles its result, or the exception it raised, back over a pipe,
    then ends with ``os._exit``: no atexit handler runs and no buffer it
    inherited is flushed.  Results are read and children reaped in item
    order, and a child's exception is raised here unchanged.  No child
    outlives the call, whether it returns or raises.

    A child starts as a copy of this process, so ``fn`` may be a closure over
    large arrays; it must need no lock that another thread could hold at the
    fork.  Python code and numpy's array kernels need none.
    """
    items = list(items)
    children = []                       # (shard, pid, read end of its pipe), in order
    try:
        for i, item in enumerate(items[1:], 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    # keep only the write end: each pipe's reader is the parent alone
                    os.close(r)
                    for _, _, pipe in children:
                        pipe.close()
                    try:
                        payload = (True, fn(item))
                    except BaseException as exc:
                        payload = (False, exc)
                    data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((i, pid, open(r, "rb")))
        results = [fn(item) for item in items[:1]]
        while children:
            i, pid, pipe = children[0]
            try:
                ok, value = pickle.load(pipe)
            except EOFError:            # the child ended before it sent anything
                ok, value = False, None
            pipe.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if not ok:
                raise value if value is not None else ChildProcessError(
                    f"shard {i} of {len(items)} exited with status {status} and sent nothing")
            results.append(value)
        return results
    finally:
        # a child still writing gets a broken pipe once its read end is closed
        for _, _, pipe in children:
            pipe.close()
        for _, pid, _ in children:
            os.waitpid(pid, 0)
