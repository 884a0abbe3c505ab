"""Worker threads for the engines.

A worker count never changes a result.  Threads only compute arrays whose
every element is fixed in advance: each (factor, block) stream, or its next
share of rows in a row slab, is drawn in order on one thread, the
correlation mix is elementwise over disjoint column ranges, and a batch of
whole blocks steps each path on its own increments.  `blocks.fold` alone
opens a team, for the engine's `threads`, and decides how it is used, from
the row length and from its `by_block` keyword: batches of short rows are
drawn and stepped on the pool (`Team.imap`) down to one `Moments` per
block.  Long rows of the price engines, on a team of two and a range of
two or more blocks, are walked one block a worker (`Team.imap`), each
worker drawing its own block in row slabs of half the shared slab's rows,
mixing it, and stepping it under the engine's stepping gate, one lock
that lets one thread step at a time.  Other long rows are drawn in row
slabs whose streams the pool fills at once (`Team.run_split`, called by
`blocks.Stream.draw`) while the calling thread waits, then stepped on the
calling thread.  Every merge stays on
the calling thread, one block at a time in block order.

NumPy releases the interpreter lock while it fills normals and runs
elementwise loops on large arrays, so threads fill streams at the same
time: every (factor, block) stream of a row slab on its own worker.
Stepping overlaps only where the arrays are long: each step is several
ufunc calls whose set-up holds the lock.  A batch of many small blocks
gives long arrays and lets one thread step while another draws.  Two
threads stepping long rows at once convoy on the lock (one 4096-row slab's
38 ms became 62-75 ms as two concurrent halves), while one stepping thread
beside one filling Philox rows loses little (38-53 ms): hence the gate,
held around the stepping call alone, so that one worker's fills and mix
overlap the other's stepping.  The walk is measured on two workers only:
on more, each stepping call would shrink to `slab_rows // workers` rows,
and stepping costs about twice as much per path-step at 1024 rows as at
4096, so a larger team keeps the shared slab, whose streams it fills all
at once.  The multilevel levels and the
convergence study keep the shared slab: walked per block, they were
slower, since their stepping calls halve in size and the study's coupled
coarse grids (a few dozen sums over whole columns, built on a pool thread
while the calling thread steps the fine reference) lose their overlap.

`Team.imap` has no round barrier, so the threads drift out of step: one
draws (lock released) while another steps.  Batches started together
would draw together and then step together, handing the lock back and
forth on every ufunc call, and a round would wait for its slowest batch.
Nor does it bound how far the threads run ahead of the next result to
merge: each result waits in its future until it is due, and a batch's
result is a few `Moments`.
"""
from __future__ import annotations

import os
import threading
from collections import deque
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
    """A pool of `size` threads, on which the calling thread only waits.

    The pool starts on the first `submit`, so a team that is never asked for
    work starts no thread.  `close` shuts it down.  `run_split` runs through
    `imap`, so one rule ends both on a failure (see `imap`).  A pool thread
    that called either would wait on the queue it occupies, and with every
    thread doing so the team would deadlock: they raise `RuntimeError`.
    """

    def __init__(self, size: int):
        if size < 2:
            raise ValueError("a team needs at least two workers")
        self.size = size
        self._pool = None
        self._threads = set()

    def submit(self, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) on a pool thread; returns its future."""
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(self.size, initializer=lambda: (
                self._threads.add(threading.current_thread())))
        return self._pool.submit(fn, *args, **kwargs)

    def run_split(self, fn, count: int) -> None:
        """fn(lo, hi) over the spans of `split(count, size)`, by `imap`."""
        for _ in self.imap(lambda span: fn(*span), split(count, self.size)):
            pass

    def imap(self, fn, items):
        """Yield fn(item) for each of the sequence `items`, in order.

        Each item is one `submit`: the pool's queue hands the items to its
        threads in order, each taking the next as soon as it is free, so at
        most `size` calls run at once.  Each result is dropped once yielded.

        An item past the first failing one returns without calling `fn`, and
        so does every item not yet started once the consumer stops.  Indices
        are compared, not a flag: a thread may take an earlier item off the
        queue and look only after a later one has failed, and that item's
        result is still due.  The error is raised when its result is due.
        However the map ends, by an error, an early stop or an interrupt
        while waiting, it waits for the calls already running.
        """
        from concurrent.futures import wait

        if threading.current_thread() in self._threads:
            raise RuntimeError("a team thread cannot wait on its own team")
        lock = threading.Lock()
        last = [len(items)]  # items past this index do not call fn

        def call(k, item):
            if k > last[0]:
                return None
            try:
                return fn(item)
            except BaseException:
                with lock:
                    last[0] = min(last[0], k)
                raise

        pending = deque()
        try:
            pending.extend(self.submit(call, k, item) for k, item in enumerate(items))
            while pending:
                # Popped only once its result is taken, so that an interrupt
                # during the wait still waits for this call.
                yield pending[0].result()
                pending.popleft()
        finally:
            with lock:
                last[0] = -1
            for future in pending:
                future.cancel()
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
