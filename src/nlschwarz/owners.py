"""The processes that own a solver's subdomains.

With W workers, the calling process is owner 0 and W - 1 processes, forked
at the first command, are owners 1, ..., W - 1; owner k owns subdomains
k, k + W, k + 2W, ....  Both solvers run their local work on one
`OwnerPool`: the nonlinear Schwarz operator its local Newton solves,
factorizations and tangent solves, NKS the factorizations and solves of its
preconditioner's blocks.  So each factor is built, used and released by the
only thread of one process (see `sparse.Factorization`), and SuperLU, which
holds the GIL, runs on W cores.
"""

from __future__ import annotations

import mmap
import multiprocessing
import signal
import weakref

import numpy as np


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
    """Owners 1, ..., W - 1 of one solver, forked from the caller, owner 0.

    The caller and the owners share `shared`, `size` doubles in one
    anonymous mapping made before the fork; the solver lays out in it what
    a command reads and what the owners write.  One pipe per owner carries
    the commands and the small replies.  The owners start at the first
    `run`; `close`, leaving a ``with`` block or the pool's garbage
    collection stops them, and a `run` after `close` starts them again.

    A command runs through a share function, `share(k, command, shared)`,
    which runs `command` on owner k's subdomains and returns (result,
    failure): failure is None or (subdomain index, exception), the first
    failure in the share.  When an owner stops it calls `share(k, None,
    shared)`, to release what it holds.  The pool does not keep the share
    function, so it holds no reference to the solver that made it."""

    def __init__(self, workers: int, size: int):
        self.workers = workers
        self.shared = np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)),
                                    np.float64, size)
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

    def _start(self, share) -> None:
        # fork, not spawn: the owners need the solver's assembly plans,
        # which the fork shares copy-on-write; the caller must then run no
        # other thread
        ctx = multiprocessing.get_context("fork")
        self.procs, self.conns = [], []
        try:
            for k in range(1, self.workers):
                caller_end, owner_end = ctx.Pipe()
                proc = ctx.Process(target=self._serve,
                                   args=(k, share, owner_end, caller_end),
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

    def _serve(self, k: int, share, conn, caller_end) -> None:
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
                conn.send(share(k, command, self.shared))
        finally:
            share(k, None, self.shared)

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

    def run(self, command, share, first=None):
        """Run `command` on every owner's share: send it to the owners,
        call `first()` if given, the caller's own work meanwhile, then run
        the caller's share here and read every owner's reply.  Only then is
        the failure of the lowest-numbered subdomain raised, or else an
        exception of `first`, so that the bits and the failure do not depend
        on the number of owners.  Returns the result of `first` and the
        share results in owner order."""
        if self.workers > 1 and self._stop is None:
            self._start(share)
        for conn in self.conns:
            conn.send(command)
        early = error = None
        try:
            if first is not None:
                early = first()
        except Exception as exc:  # raised after the replies are read
            error = exc
        replies = [share(0, command, self.shared)] + self._replies()
        failures = [failure for _, failure in replies if failure is not None]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        if error is not None:
            raise error
        return early, [result for result, _ in replies]
