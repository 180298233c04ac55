"""An ordered map over forked worker processes, for the CLI's batch commands.

fork_map(fn, items) is fn(items), spread over up to one process per usable
CPU once the batch is large enough to repay a fork (PLANS_PER_WORKER items
per worker). fn maps a sequence of items to an iterable of their results,
in order, and an item's result must not depend on the items it comes with;
so each process can work through its whole share at once, in blocks. The
parent forks the workers, computes fn of its own share, then reads each
worker's results back from one pipe and reaps it, so the results come back
in input order whatever the count.

Shares are strided, worker w taking items w, w + W, w + 2W, ...: a corpus
sorted by file name keeps one plan family together, and families differ in
cost by more than 2x, so contiguous halves would leave one process waiting.

The map is all or nothing. If fn raises on any share, a worker dies or a
worker cannot be forked, fork_map returns None, and the caller runs its
one-process path, which then decides the output and raises the original
error where a serial loop would. A failure in the parent's own share kills
the workers still running. No exception crosses a pipe: a worker whose fn
raised just exits non-zero.

Only the CLI calls this: a library must not fork a caller's process, which
may hold threads or locks that a forked child cannot use.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from typing import Any, BinaryIO, Callable, Iterable, Sequence, TypeVar

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


def fork_map(fn: Callable[[Sequence[T]], Iterable[R]], items: Sequence[T]) -> list[R] | None:
    """fn(items) in input order, or None if anything failed.

    With a single worker everything runs here.
    """
    workers = worker_count(len(items))
    results: list[Any] = [None] * len(items)
    unreaped: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe), in share order
    try:
        for w in range(1, workers):
            unreaped.append(_fork(fn, items[w::workers]))
        results[::workers] = fn(items[::workers])
        for w in range(1, workers):
            pid, pipe = unreaped[0]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del unreaped[0]
            if status != 0:  # a worker exits 0 only after writing all of its results
                return None
            results[w::workers] = pickle.loads(payload)
        return results
    except Exception:  # the caller's one-process rerun raises it again, in order
        return None
    finally:
        for pid, pipe in unreaped:
            pipe.close()
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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
        code = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(list(fn(share)), pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
