"""The processes that own a solver's subdomains.

With W workers, NLSCHWARZ_WORKERS capped at the number of subdomains, the
calling process is owner 0 and W - 1 processes, forked at the first
command, are owners 1, ..., W - 1; owner k owns subdomains k, k + W,
k + 2W, ....  This module is the only one that knows that map and the
layout of the memory the processes share: a command's vector and the
subdomains' results, stacked and summed.  Both solvers run their local work
on one `OwnerPool`, as a task ``task(i, command, vector, out)`` that
handles subdomain i, writing its result into `out`: the nonlinear Schwarz
operator its local Newton solves, factorizations and tangent solves, and
its subdomains' dense blocks of the coarse tangent A_0, which are small
enough to return through the pipes; NKS the factorizations and solves of
its preconditioner's blocks, cut from each process's own DF.  So each
factor is built, used and released by the only thread of one process (see
`sparse.Factorization`), and SuperLU, which holds the GIL, runs on W cores.
Each process also builds the per-subdomain data of its own subdomains, at
their first task: the operator's assembly plan of each, over its
ghost-extended elements, and its Galerkin plan of A_0's block, over its
own.  Only global data, such as the mesh, the DOF map, P_0 and NKS's
full-mesh plan, reach the owners from the caller, through the fork.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import signal
import weakref

import numpy as np


def workers_from_env() -> int:
    """The number of processes that own subdomains, NLSCHWARZ_WORKERS, 1 if
    it is unset.  Raises `ValueError` unless it is a positive integer."""
    raw = os.environ.get("NLSCHWARZ_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError("NLSCHWARZ_WORKERS must be a positive integer, "
                         f"got {raw!r}")
    return workers


def _stop_owners(procs: list, conns: list) -> None:
    """Close the caller's end of each owner's pipe, which ends the owner's
    command loop, and reap the owners."""
    for conn in conns:
        conn.close()
    for proc in procs:
        proc.join(timeout=5)
        if proc.is_alive():
            proc.kill()
            proc.join()


class OwnerPool:
    """Owners 1, ..., W - 1 of a solver's subdomains, forked from the
    caller, owner 0 (see the module docstring for W and the map).
    Subdomain i covers the entries `blocks[i]` of an n-vector, with the
    weights `weights[i]`.

    The caller and the owners share one anonymous mapping, made before the
    fork: the n-vector a command reads, which `run` writes, and the task
    results, stacked in subdomain order, which `combine`, both solvers' one
    sum over the subdomains, adds up; the arrays `vector` and `results` view
    them, and `outs[i]`, subdomain i's block of `results`, of the size of
    `blocks[i]`, is the `out` of its task.  One pipe per owner carries the
    commands and the small replies.
    The owners start at the first `run`; `close`, leaving a ``with`` block
    or the pool's garbage collection stops them, and a `run` after `close`
    starts them again.

    A command runs through a task, ``task(i, command, vector, out)``, which
    runs `command` on subdomain i and returns a small picklable result.
    Each owner calls it for its subdomains in increasing order and stops at
    the first that raises.  The command None releases what the task holds
    for subdomain i: a ``run(None, task)`` releases it on every subdomain,
    and an owner process that stops calls the task with None for each of
    its own.  The owners run the task of the `run` that started them, so
    every `run` hands the same one.  The pool does not keep the task, so it
    holds no reference to the solver that made it."""

    def __init__(self, blocks: list[np.ndarray], n: int,
                 weights: list[np.ndarray]):
        self.index = np.concatenate(blocks)
        self.weight = np.concatenate(weights)
        self.subdomains = len(blocks)
        self.workers = min(workers_from_env(), self.subdomains)
        self._map = mmap.mmap(-1, 8 * (n + self.index.size))
        self.vector, self.results = np.split(
            np.frombuffer(self._map, np.float64), [n])
        self.outs = np.split(self.results,
                             np.cumsum([d.size for d in blocks[:-1]]))
        self.procs, self.conns = [], []
        self._stop = None

    def close(self) -> None:
        """Stop the owner processes."""
        if self._stop is not None:
            self._stop()
            self._stop = None

    def __enter__(self) -> "OwnerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _start(self, task) -> None:
        # fork, not spawn: the owners need the solver's global data, which
        # the fork shares copy-on-write; the caller must then run no other
        # thread
        ctx = multiprocessing.get_context("fork")
        self.procs, self.conns = [], []
        try:
            for k in range(1, self.workers):
                caller_end, owner_end = ctx.Pipe()
                proc = ctx.Process(target=self._serve,
                                   args=(k, task, owner_end, caller_end),
                                   name=f"nlschwarz-owner-{k}", daemon=True)
                proc.start()
                owner_end.close()
                self.procs.append(proc)
                self.conns.append(caller_end)
        except BaseException:
            _stop_owners(self.procs, self.conns)
            raise
        self._stop = weakref.finalize(self, _stop_owners, self.procs,
                                      self.conns)

    def _share(self, k: int, command, task) -> tuple[list, tuple | None]:
        """Owner k's results of `command`, in subdomain order, and its
        failure: None, or (subdomain index, exception) for the task that
        raised, the last that ran."""
        results = []
        for i in range(k, self.subdomains, self.workers):
            try:
                results.append(task(i, command, self.vector, self.outs[i]))
            except Exception as exc:  # handed to the caller, which raises it
                return results, (i, exc)
        return results, None

    def _serve(self, k: int, task, conn, caller_end) -> None:
        """Owner k's command loop, until the caller's end of its pipe
        closes.  The owner first closes its copies of the caller's ends of
        the pipes, its own and those of the owners forked before it, so that
        each owner sees the caller exit.  It leaves interrupts to the
        caller, which stops it through the pipe."""
        caller_end.close()
        for other in self.conns:
            other.close()
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            while True:
                try:
                    command = conn.recv()
                except EOFError:
                    return
                conn.send(self._share(k, command, task))
        finally:
            for i in range(k, self.subdomains, self.workers):
                task(i, None, self.vector, self.outs[i])

    def _replies(self) -> list:
        """Each owner's reply to the last command, in owner order.  Reads
        every reply before it raises `RuntimeError` for an owner that
        exited."""
        out, lost = [], []
        for k, conn in enumerate(self.conns, 1):
            try:
                out.append(conn.recv())
            except EOFError:
                lost.append(k)
        if lost:
            raise RuntimeError(f"subdomain owner processes {lost} exited")
        return out

    def run(self, command, task, vector=None, first=None) -> tuple:
        """Run `command` on every subdomain: write `vector`, if given, into
        `self.vector`, send the command to the owners, call `first()` if
        given, the caller's own work meanwhile, then run the caller's
        subdomains here and read every owner's reply.  Only then is the
        failure of the lowest-numbered subdomain raised, or else an
        exception of `first`, so that the bits and the failure do not depend
        on the number of owners.  Returns the result of `first` and the
        task results in subdomain order."""
        if self.workers > 1 and self._stop is None:
            self._start(task)
        if vector is not None:
            self.vector[:] = vector
        for conn in self.conns:
            conn.send(command)
        early = error = None
        try:
            if first is not None:
                early = first()
        except Exception as exc:  # raised after the replies are read
            error = exc
        shares = [self._share(0, command, task)] + self._replies()
        failures = [failure for _, failure in shares if failure is not None]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        if error is not None:
            raise error
        results = [None] * self.subdomains
        for k, (share, _) in enumerate(shares):
            results[k::self.workers] = share
        return early, results

    def combine(self, x: np.ndarray | None = None) -> np.ndarray:
        """sum_i P_i w_i (y_i + x[d_i]) for the task results y_i in `outs`,
        which it overwrites, d_i = `blocks[i]`, w_i = `weights[i]`, P_i the
        extension by zero from d_i and an optional n-vector `x`.  One
        `bincount` adds the terms in subdomain order, as a loop of
        ``out[d_i] += w_i y_i`` would."""
        y = self.results
        if x is not None:
            y += x[self.index]
        y *= self.weight
        return np.bincount(self.index, y, minlength=self.vector.size)
