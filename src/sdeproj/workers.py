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
What a slab's stepping leaves of the lock goes to large ufunc calls: in a
convergence study one pool thread builds the coupled coarse grids (a few
dozen sums over whole columns) while the calling thread steps the fine
reference.

`Team.imap` has no round barrier, so the threads drift out of step: one
draws (lock released) while another steps.  Batches started together
would draw together and then step together, handing the lock back and
forth on every ufunc call, and a round would wait for its slowest batch.
Nor does it bound how far the threads run ahead of the next result to
merge: each result waits in its own slot until it is due, and a batch's
result is a few `Moments`.
"""
from __future__ import annotations

import os
import threading
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

        Each item has a result slot, a `Future`, and the calling thread and
        the pool take (item, slot) claims from one shared iterator, in
        order: each thread takes the next claim as soon as it is free, with
        no round to wait for, so at most `size` calls run at once.  The
        calling thread runs claims only while the slot that is due is not
        filled, and drops each slot once its result is yielded.

        The first failure drains the claims, so no item starts after it.
        Its error is raised when its result is due, once the calls already
        running have finished.  A consumer that stops early also waits for
        them.  An interrupt raised by an item on the calling thread is not
        held until that item is due: it propagates at once.
        """
        from concurrent.futures import Future

        slots = [Future() for _ in items]
        claims = zip(items, slots)
        lock = threading.Lock()

        def drain():
            with lock:
                for _ in claims:
                    pass

        def run_next(caught) -> bool:
            """Run the next claim, if one is left, holding any `caught`
            error in its slot; False if none is left."""
            with lock:
                claim = next(claims, None)
            if claim is None:
                return False
            item, slot = claim
            try:
                slot.set_result(fn(item))
            except caught as error:
                slot.set_exception(error)
                drain()
            return True

        def work():
            while run_next(BaseException):
                pass

        crew = [self.submit(work) for _ in range(min(self.size, len(slots)) - 1)]
        try:
            for k in range(len(slots)):
                while not slots[k].done() and run_next(Exception):
                    pass
                yield slots[k].result()
                slots[k] = None
        finally:
            drain()
            for future in crew:
                future.result()

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
