"""The contract of `owners.OwnerPool`, on a toy task and no solver."""

import multiprocessing
import os

import numpy as np
import pytest

from nlschwarz.owners import OwnerPool

N = 5   # subdomains


def toy(i, command, shared):
    """Subdomain i's part of `command`, (value, failing subdomains): raises
    if i is failing, else writes the value into shared[i] and returns (i,
    pid).  None counts a release in shared[N + i]."""
    if command is None:
        shared[N + i] += 1
        return None
    value, failing = command
    if i in failing:
        raise ValueError(f"subdomain {i}")
    shared[i] = value
    return i, os.getpid()


@pytest.fixture(params=[1, 2, 3])
def pool(request, monkeypatch):
    monkeypatch.setenv("NLSCHWARZ_WORKERS", str(request.param))
    with OwnerPool(N, 2 * N) as pool:
        yield pool


def test_results_in_subdomain_order(pool):
    """Owner k runs subdomains k, k + W, ...; with W = 2 and 3 the owners
    hold unequal numbers of them."""
    early, results = pool.run((1.0, ()), toy)
    assert early is None
    pids = [os.getpid()] + [proc.pid for proc in pool.procs]
    assert len(set(pids)) == pool.workers
    assert results == [(i, pids[i % pool.workers]) for i in range(N)]
    np.testing.assert_array_equal(pool.shared[:N], 1.0)


def test_lowest_failing_subdomain_raises(pool):
    """Subdomain 1, on an owner process if W > 1, the first subdomain of
    every later owner and the caller's last subdomain raise: subdomain 1's
    exception is raised, its owner ran none of its later subdomains, and no
    reply is left for the next run."""
    last = (N - 1) // pool.workers * pool.workers
    assert last > 1
    failing = (*range(1, pool.workers), 1, last)
    with pytest.raises(ValueError, match="subdomain 1$"):
        pool.run((2.0, failing), toy)
    assert pool.shared[0] == 2.0
    later = slice(1 + pool.workers, N, pool.workers)
    np.testing.assert_array_equal(pool.shared[later], 0.0)
    _, results = pool.run((3.0, ()), toy)
    assert [i for i, _ in results] == list(range(N))
    np.testing.assert_array_equal(pool.shared[:N], 3.0)


def test_first_raises_only_without_a_failed_task(pool):
    def first():
        raise RuntimeError("first")
    with pytest.raises(ValueError, match="subdomain 3$"):
        pool.run((1.0, (3,)), toy, first)
    with pytest.raises(RuntimeError, match="first"):
        pool.run((2.0, ()), toy, first)
    np.testing.assert_array_equal(pool.shared[:N], 2.0)
    early, results = pool.run((3.0, ()), toy, lambda: "early")
    assert early == "early"
    assert [i for i, _ in results] == list(range(N))


def test_close_releases_each_owned_subdomain(pool):
    """At `close`, each owner process releases each of its subdomains, also
    after a failed command, and exits; a run after that starts new
    owners."""
    with pytest.raises(ValueError):
        pool.run((1.0, (1,)), toy)
    procs = pool.procs
    released = np.array([float(i % pool.workers != 0) for i in range(N)])
    for rounds in (1, 2):
        pool.close()
        np.testing.assert_array_equal(pool.shared[N:], rounds * released)
        assert not any(proc.is_alive() for proc in procs)
        assert multiprocessing.active_children() == []
        _, results = pool.run((1.0, ()), toy)
        assert [i for i, _ in results] == list(range(N))
        procs = pool.procs
