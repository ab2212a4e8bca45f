import os

import pytest

from detcouple import shards as shards_mod


@pytest.fixture
def shards(monkeypatch):
    """``shards(k)``: every sharded call runs in as many shards as it has pieces, up to ``k``.

    ``k`` cores are usable and one unit of work (a row, path-step or scanned
    state) may fill a shard.  The returned list collects the pid of every
    fork made from this process.
    """
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def set_cores(k):
        monkeypatch.setattr(shards_mod, "MIN_SHARD_WORK", 1)
        monkeypatch.setattr(shards_mod, "usable_cores", lambda: k)
        monkeypatch.setattr(os, "fork", fork)
        return forks

    return set_cores
