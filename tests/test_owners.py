"""The contract of `owners.OwnerPool`, on a toy task and no solver."""

import multiprocessing
import os

import numpy as np
import pytest

from nlschwarz.owners import OwnerPool

N = 5   # subdomains


def toy(i, command, vector, out):
    """Subdomain i's part of `command`, the failing subdomains: raises if i
    is failing, else writes vector[i] into out[0] and returns (i, pid).
    None counts a release in out[1]."""
    if command is None:
        out[1] += 1
        return None
    if i in command:
        raise ValueError(f"subdomain {i}")
    out[0] = vector[i]
    return i, os.getpid()


def written(pool):
    """The value each subdomain's task last wrote."""
    return np.array([out[0] for out in pool.outs])


def toy_pool():
    """Subdomain i has the block [2i, 2i + 2) of the stacked results, the
    DOFs i and i + 1 of an (N + 1)-vector."""
    dofs = [np.array([i, i + 1]) for i in range(N)]
    return OwnerPool(dofs, N + 1, [np.ones(2)] * N)


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    monkeypatch.setenv("NLSCHWARZ_WORKERS", str(request.param))
    return request.param


@pytest.fixture
def pool(workers):
    with toy_pool() as pool:
        yield pool


def test_results_in_subdomain_order(pool):
    """Owner k runs subdomains k, k + W, ...; with W = 2 and 3 the owners
    hold unequal numbers of them.  `run` writes the vector the tasks read,
    and each task writes its own block of the stacked results."""
    early, results = pool.run((), toy, np.arange(N + 1.0))
    assert early is None
    pids = [os.getpid()] + [proc.pid for proc in pool.procs]
    assert len(set(pids)) == pool.workers
    assert results == [(i, pids[i % pool.workers]) for i in range(N)]
    np.testing.assert_array_equal(pool.results[::2], np.arange(N))
    np.testing.assert_array_equal(pool.results[1::2], 0.0)
    np.testing.assert_array_equal(pool.combine(), [0, 1, 2, 3, 4, 0])
    pool.run((), toy, np.ones(N + 1))
    np.testing.assert_array_equal(written(pool), 1.0)


def test_lowest_failing_subdomain_raises(pool):
    """Subdomain 1, on an owner process if W > 1, the first subdomain of
    every later owner and the caller's last subdomain raise: subdomain 1's
    exception is raised, its owner ran none of its later subdomains, and no
    reply is left for the next run."""
    last = (N - 1) // pool.workers * pool.workers
    assert last > 1
    failing = (*range(1, pool.workers), 1, last)
    with pytest.raises(ValueError, match="subdomain 1$"):
        pool.run(failing, toy, np.full(N + 1, 2.0))
    assert written(pool)[0] == 2.0
    later = slice(1 + pool.workers, N, pool.workers)
    np.testing.assert_array_equal(written(pool)[later], 0.0)
    _, results = pool.run((), toy, np.full(N + 1, 3.0))
    assert [i for i, _ in results] == list(range(N))
    np.testing.assert_array_equal(written(pool), 3.0)


def test_first_raises_only_without_a_failed_task(pool):
    def first():
        raise RuntimeError("first")
    with pytest.raises(ValueError, match="subdomain 3$"):
        pool.run((3,), toy, np.full(N + 1, 1.0), first)
    with pytest.raises(RuntimeError, match="first"):
        pool.run((), toy, np.full(N + 1, 2.0), first)
    np.testing.assert_array_equal(written(pool), 2.0)
    early, results = pool.run((), toy, first=lambda: "early")
    assert early == "early"
    assert [i for i, _ in results] == list(range(N))
    np.testing.assert_array_equal(written(pool), 2.0)


def test_close_releases_each_owned_subdomain(pool):
    """At `close`, each owner process releases each of its subdomains, also
    after a failed command, and exits; a run after that starts new
    owners."""
    with pytest.raises(ValueError):
        pool.run((1,), toy, np.ones(N + 1))
    procs = pool.procs
    released = np.array([float(i % pool.workers != 0) for i in range(N)])
    for rounds in (1, 2):
        pool.close()
        np.testing.assert_array_equal(pool.results[1::2], rounds * released)
        assert not any(proc.is_alive() for proc in procs)
        assert multiprocessing.active_children() == []
        _, results = pool.run((), toy, np.ones(N + 1))
        assert [i for i, _ in results] == list(range(N))
        procs = pool.procs


def test_release_reaches_every_subdomain(pool):
    """``run(None, task)`` calls each subdomain's task once with None, on
    the caller and on every owner, and leaves the owners running."""
    pool.run((), toy, np.ones(N + 1))
    procs = pool.procs
    early, results = pool.run(None, toy)
    assert early is None and results == [None] * N
    np.testing.assert_array_equal(pool.results[1::2], 1.0)
    assert pool.procs == procs
    assert all(proc.is_alive() for proc in procs)
