import bisect
import os
import signal

import numpy as np
import pytest

from detcouple import shards as shards_mod
from detcouple.shards import batches, cuts, fork_map, map_ranges, shard_count, usable_cores


@pytest.fixture(autouse=True)
def deadline():
    """A test here that still waits on a child after 30 s fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("fork_map still waiting after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_usable_cores_is_the_affinity_mask():
    assert usable_cores() == len(os.sched_getaffinity(0)) >= 1


@pytest.mark.parametrize("cores,work,most,expect", [
    (4, 10**6, 100, 4),     # one shard per core
    (4, 250_000, 100, 2),   # at least MIN_SHARD_WORK units each
    (4, 10**6, 3, 3),       # at most `most`
    (4, 0, 100, 1),         # always one
    (1, 10**6, 100, 1),
])
def test_shard_count(cores, work, most, expect, monkeypatch):
    monkeypatch.setattr(shards_mod, "usable_cores", lambda: cores)
    assert shard_count(work, most) == expect


@pytest.mark.parametrize("cores,n,work,batch,expect", [
    (2, 1000, 10**6, 256, [0, 500, 1000]),      # e3-csv's simulator and paths.csv writer
    (2, 1000, 10**6, 1, [0, 500, 1000]),
    (2, 2000, 2 * 10**6, 1, [0, 1000, 2000]),   # verify-scan's oracle
    (3, 10, 10**6, 3, [0, 3, 6, 10]),
    (4, 10, 10**6, 3, [0, 2, 5, 7, 10]),
    (4, 1000, 250_000, 1, [0, 500, 1000]),      # at least MIN_SHARD_WORK units each
    (1, 1000, 10**6, 256, [0, 1000]),
    (2, 257, 257_000, 2048, [0, 128, 257]),     # a shard may end inside a 256-path sum block
    (4, 3, 10**6, 2, [0, 1, 2, 3]),             # at most one shard per item
])
def test_cuts(cores, n, work, batch, expect, monkeypatch):
    # shards differ in size by at most one item, whatever the batch bound, and the
    # batches of a shard tile it, each of at most BATCH items
    monkeypatch.setattr(shards_mod, "usable_cores", lambda: cores)
    monkeypatch.setattr(shards_mod, "BATCH", batch)
    assert cuts(n, work) == expect
    sizes = [b - a for a, b in zip(expect, expect[1:])]
    assert max(sizes) - min(sizes) <= 1
    for a, b in zip(expect, expect[1:]):
        ranges = batches(a, b)
        assert [p for q, q1 in ranges for p in range(q, q1)] == list(range(a, b))
        assert all(0 < q1 - q <= batch for q, q1 in ranges)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("n,batch,work", [
    (10, 3, 1), (10, 3, 2), (10, 1, 4), (7, 7, 1), (7, 2, 100),
])
def test_map_ranges_tiles_whole_blocks_in_bounded_batches(cores, n, batch, work, shards,
                                                          monkeypatch):
    forks = shards(cores)
    monkeypatch.setattr(shards_mod, "BATCH", batch)
    bounds = cuts(n, work)
    out = map_ranges(lambda p0, p1: (p0, p1, os.getpid()), n, work)
    # one unit of work may fill a shard: at most `work` shards, one per core
    assert len(forks) == len(bounds) - 2 == min(cores, work) - 1
    # the ranges tile range(n) in order, each non-empty
    assert all(p1 > p0 for p0, p1, _ in out)
    assert [p for p0, p1, _ in out for p in range(p0, p1)] == list(range(n))
    # a shard is whole blocks of BATCH items and one shorter last batch
    for p0, p1, pid in out:
        s = bisect.bisect_right(bounds, p0) - 1
        assert p1 - p0 == min(batch, bounds[s + 1] - p0), (p0, p1, bounds)
        assert pid == ([os.getpid()] + forks)[s]
    assert _no_child_left()


def test_map_ranges_raises_a_batch_exception_unchanged(shards, monkeypatch):
    shards(3)                           # shards [0, 3), [3, 6) and [6, 9), one path per batch
    monkeypatch.setattr(shards_mod, "BATCH", 1)
    for bad in (1, 4):                  # a batch in this process, then in a child

        def fn(p0, p1):
            if p0 == bad:
                raise KeyError("batch", p0)
            return p0

        with pytest.raises(KeyError) as info:
            map_ranges(fn, 9, 9)
        assert info.value.args == ("batch", bad)
        assert _no_child_left()


def test_fork_map_runs_the_first_item_here_and_keeps_the_order(shards):
    forks = shards(1)
    parent = os.getpid()
    out = fork_map(lambda x: (x, os.getpid(), np.arange(x * 50_000)), [3, 1, 4, 2])
    assert [x for x, _, _ in out] == [3, 1, 4, 2]
    assert out[0][1] == parent
    assert [pid for _, pid, _ in out[1:]] == forks
    for x, _, a in out:         # 1.6 MB and more: larger than a pipe's buffer
        assert np.array_equal(a, np.arange(x * 50_000))
    assert fork_map(lambda x: x, []) == []
    assert _no_child_left()


def test_fork_map_raises_a_child_exception_unchanged():
    def fn(x):
        if x == 2:
            raise KeyError("item 2", 7)
        return np.zeros(10**6) if x else x

    with pytest.raises(KeyError) as info:
        fork_map(fn, [0, 1, 2, 3])
    assert info.value.args == ("item 2", 7)
    assert _no_child_left()


def test_fork_map_reaps_every_child_when_this_process_raises():
    def fn(x):
        if x == 0:
            raise OSError("parent shard fails")
        return np.ones(10**6)   # the children block on a full pipe that is never read

    with pytest.raises(OSError, match="parent shard fails"):
        fork_map(fn, [0, 1, 2])
    assert _no_child_left()


def test_fork_map_names_a_child_that_sent_nothing():
    with pytest.raises(ChildProcessError, match="^shard 1 of 2 exited with status 1 "
                                                "and sent nothing$"):
        fork_map(lambda x: (lambda: x), [0, 1])     # a lambda does not pickle
    assert _no_child_left()
