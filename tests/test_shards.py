import os
import signal

import numpy as np
import pytest

from detcouple import shards as shards_mod
from detcouple.shards import fork_map, shard_count, usable_cores


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
