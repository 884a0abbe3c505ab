"""Worker threads for the engines.

A worker count never changes a result.  Threads only compute arrays whose
every element is fixed in advance: each (factor, block) stream, or its next
share of rows in a row slab, is drawn in order on one thread, the
correlation mix is elementwise over disjoint column ranges, and a batch of
whole blocks steps each path on its own increments.  `blocks.fold` alone
opens a team, for the engine's `threads`, and decides how it is used, from
the row length: batches of short rows are drawn and stepped on workers
(`Team.imap`) down to one `Moments` per block, and long rows are drawn in
row slabs whose streams the team fills at once (`Team.run_split`, called
by `blocks.Stream.draw`).  Every merge stays on the calling thread, one
block at a time in block order.

NumPy releases the interpreter lock while it fills normals and runs
elementwise loops on large arrays, so threads fill streams at the same
time: every (factor, block) stream of a row slab on its own worker.
Stepping overlaps only where the arrays are long: each step is several
ufunc calls whose set-up holds the lock.  A batch of many small blocks
gives long arrays and lets one thread step while another draws; a slab of
long rows does not (stepping two blocks or two factors on two threads was
slower than stepping both on one), so the calling thread steps it alone.
"""
from __future__ import annotations

import os
from contextlib import contextmanager


def available_cores() -> int:
    """Cores this process may run on (its affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def resolve_threads(threads: int, cores: int) -> int:
    """Worker count for a `threads` setting on `cores` usable cores.

    0 means all cores, and a larger request is clamped to `cores`, so a
    setting never starts more threads than there are cores to run them.
    """
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    cores = max(1, cores)
    return cores if threads == 0 else min(threads, cores)


def split(count: int, pieces: int) -> list[tuple[int, int]]:
    """Cut range(count) into at most `pieces` contiguous near-equal spans.

    Never more spans than `count`, and never an empty one.
    """
    pieces = max(1, min(pieces, count))
    size, extra = divmod(count, pieces)
    spans, lo = [], 0
    for i in range(pieces):
        hi = lo + size + (i < extra)
        spans.append((lo, hi))
        lo = hi
    return spans


class Team:
    """The calling thread plus a pool of `size - 1` threads.

    The pool starts on the first `submit`, so a team that is never asked for
    work starts no thread.  `close` shuts it down.
    """

    def __init__(self, size: int):
        if size < 2:
            raise ValueError("a team needs at least two workers")
        self.size = size
        self._pool = None

    def submit(self, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) on a pool thread; returns its future."""
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(self.size - 1)
        return self._pool.submit(fn, *args, **kwargs)

    def run_split(self, fn, count: int) -> None:
        """fn(lo, hi) over the spans of `split(count, size)`.

        The first span runs on the calling thread, the rest on the pool; the
        call returns when all are done and re-raises the first error.
        """
        spans = split(count, self.size)
        pending = [self.submit(fn, lo, hi) for lo, hi in spans[1:]]
        fn(*spans[0])
        for future in pending:
            future.result()

    def imap(self, fn, items):
        """Yield fn(item) for each of `items`, in order.

        The items run in rounds of `size`: the first of a round on the
        calling thread, the rest on the pool.  A round's results are all
        yielded before the next round starts, so no more than `size` calls
        are ever in flight.  An error is raised when its result is due,
        after the round's other calls have finished.
        """
        from concurrent.futures import wait

        for lo in range(0, len(items), self.size):
            pending = [self.submit(fn, item) for item in items[lo + 1:lo + self.size]]
            try:
                yield fn(items[lo])
                for future in pending:
                    yield future.result()
            finally:
                wait(pending)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


@contextmanager
def team(threads: int):
    """A `Team` for `threads` (see `resolve_threads`), or None for one worker.

    With one worker no pool is built and no thread is started.
    """
    workers = resolve_threads(threads, available_cores())
    if workers == 1:
        yield None
        return
    crew = Team(workers)
    try:
        yield crew
    finally:
        crew.close()
