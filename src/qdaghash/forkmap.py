"""An ordered map over forked worker processes, for the CLI's batch commands.

fork_map(fn, items) is fn(items), spread over up to one process per usable
CPU once the batch is large enough to repay a fork (PLANS_PER_WORKER items
per worker). fn maps a sequence of items to an iterable of their results,
in order, and an item's result must not depend on the items it comes with;
so each process can work through its whole share at once, in blocks. The
parent forks the workers, computes fn of its own share, then reads each
worker's results from one pipe and reaps it, so they come back in input
order whatever the count.

Shares are strided, worker w taking items w, w + W, w + 2W, ...: a corpus
sorted by file name keeps one plan family together, and families differ in
cost by more than 2x, so contiguous halves would leave one process waiting.

A share's results end where fn raised, or its worker died or was not forked.
fork_map returns the results before the first missing one in input order (a
worker with none before it is killed, not waited for); the caller's one-process
path does the rest, raising the error where a serial loop would.

Only the CLI calls this: a library must not fork a caller's process, which
may hold threads or locks that a forked child cannot use.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from typing import BinaryIO, Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# A worker repays its fork, pickling and reaping only with a large share. On
# a 2-core Xeon VM a plan of the seed-7 eval-loo corpus took 0.14 ms
# (structured) to 0.3 ms (n-gram) to load and fingerprint in one process, and
# index add with 2 workers, against one process (medians of alternating
# calls, BENCH_25.json fork_crossover), was 4% slower to 2% faster at 64
# plans per worker, within 2% at 96, 2-7% faster at 125 and 12-18% faster
# at 250-450.
PLANS_PER_WORKER = 64


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def worker_count(n_items: int) -> int:
    return max(1, min(usable_cpus(), n_items // PLANS_PER_WORKER))


def fork_map(fn: Callable[[Sequence[T]], Iterable[R]], items: Sequence[T]) -> tuple[list[R], int]:
    """fn(items) in input order as far as it got: the results of items[:done]
    and done, which is len(items) unless one is missing. With a single
    worker everything runs here."""
    workers = worker_count(len(items))
    shares = [items[w::workers] for w in range(workers)]
    forked: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe), in share order
    try:
        with contextlib.suppress(OSError):  # a share not forked has no results
            for share in shares[1:]:
                forked.append(_fork(fn, share))
        done: list[list[R]] = [_prefix(fn, shares[0])] + [[] for _ in shares[1:]]
        # The first item in input order without a result, so far.
        limit = len(items) if len(forked) == workers - 1 else len(forked) + 1
        for w, share in enumerate(shares):
            if 0 < w < limit:  # a worker with results before the limit
                with contextlib.suppress(Exception):  # one that died sent nothing
                    done[w] = pickle.load(forked[w - 1][1])
            if len(done[w]) < len(share):
                limit = min(limit, w + len(done[w]) * workers)
        return [done[i % workers][i // workers] for i in range(limit)], limit
    finally:
        for pid, pipe in forked:
            pipe.close()
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _prefix(fn: Callable[[Sequence[T]], Iterable[R]], share: Sequence[T]) -> list[R]:
    """fn(share) up to the first item it raises on, which the caller raises again."""
    results: list[R] = []
    with contextlib.suppress(Exception):
        results.extend(fn(share))
    return results


def _fork(fn: Callable[[Sequence[T]], Iterable[R]], share: Sequence[T]) -> tuple[int, BinaryIO]:
    """Start a worker on share; returns its pid and the read end of its pipe."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # The worker leaves by os._exit alone: no atexit handlers, no flush of
        # stdio buffers it shares with the parent, no unwinding into the caller.
        try:
            os.close(read_fd)
            payload = pickle.dumps(_prefix(fn, share), pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
