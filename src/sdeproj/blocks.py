"""The one way the engines draw and walk their paths, and the one moment
accumulator.

Paths are cut into chunks (block, row_lo, row_hi), rows of one Brownian
block, and those into batches of whole blocks.  `fold` draws each batch
from a `Stream` (one grid's block streams and the cursors that resume
them), steps and reduces it to one `Moments` per chunk, so no block
outlives its batch.  It opens the worker team and alone decides how it is
used, from the row length: batches of short rows run on the workers, and a
batch of long rows is drawn and stepped in row slabs (`by_slabs`), each
slab holding a share of every block's rows, at most one block's worth, with
its blocks' streams filled at once on the team."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import workers
from .brownian import BLOCK_WIDTH, BrownianFabric

# Storage order of drawn increments: each time step is one contiguous column.
# A speed choice only; no value depends on it.
_LAYOUT = "F"

# Normals per factor in one batch of whole blocks, the unit of work a worker
# draws, steps and reduces.  A block of longer rows is drawn in row slabs.
_BATCH_NORMALS = 1 << 17


def chunks(start: int, stop: int) -> list[tuple[int, int, int]]:
    """(block, row_lo, row_hi) for paths [start, stop), block by block."""
    out = []
    while start < stop:
        block, row_lo = divmod(start, BLOCK_WIDTH)
        row_hi = min(BLOCK_WIDTH, row_lo + (stop - start))
        out.append((block, row_lo, row_hi))
        start += row_hi - row_lo
    return out


class Stream:
    """The block streams of one grid: `factors` streams per block of the
    fabric at `level`, rows of `n` increments of variance `h`.

    `draw` continues a block where the last draw of it stopped: a chunk that
    ends inside its block leaves its cursor in the stream's own store, keyed
    by (factor, block), so one stream serves a pilot and its final pass
    without drawing a row twice.  Draws running at once must take
    different blocks, as `fold`'s do.
    """

    def __init__(self, fabric: BrownianFabric, level: int, n: int, h: float,
                 factors: int = 1):
        self.fabric, self.level, self.n, self.factors = fabric, level, n, factors
        self._scale = math.sqrt(h)
        self._cursors = {}

    def draw(self, batch, team=None) -> tuple[np.ndarray, ...]:
        """Brownian increments of the batch's rows for factors 0, 1, ...,
        `factors - 1`: one column-major array per factor, stacked in chunk
        order.

        Each chunk's rows are drawn straight into its rows of its factor's
        array by its block's cursor if that stopped at the chunk's first row,
        else by a new one advanced to that row.  A `workers.Team` fills every
        (factor, chunk) stream of the batch at once, each on one thread.
        """
        spans = rows(batch)
        out = tuple(np.empty((spans[-1].stop, self.n), order=_LAYOUT)
                    for _ in range(self.factors))
        streams = [(factor, chunk, span) for factor in range(self.factors)
                   for chunk, span in zip(batch, spans)]

        def fill(first: int, last: int) -> None:
            for factor, (block, lo, hi), span in streams[first:last]:
                cursor = self._cursors.pop((factor, block), None)
                if cursor is None or cursor.row != lo:
                    cursor = self.fabric.block_cursor(self.level, block, self.n,
                                                      factor=factor)
                    if lo:
                        cursor.fill(None, lo)
                keep = hi < BLOCK_WIDTH
                part = out[factor][span]
                cursor.fill(part, keep=keep)
                part *= self._scale
                if keep:
                    self._cursors[(factor, block)] = cursor

        if team is None or len(streams) < 2:
            fill(0, len(streams))
        else:
            team.run_split(fill, len(streams))
        return out


def slabs(batch) -> list[list[tuple[int, tuple[int, int, int]]]]:
    """Cut each chunk of `batch` into as many row spans as there are chunks,
    one per slab.

    Slab s lists (chunk index, (block, row_lo, row_hi)) for the s-th span of
    every chunk that has one.  Span sizes differ by at most one row, and
    chunk c puts its longer spans in slabs c, c + 1, ..., so no slab holds
    more rows than the longest chunk: k whole blocks give k slabs of
    BLOCK_WIDTH rows.
    """
    count = len(batch)
    out = [[] for _ in range(count)]
    for c, (block, lo, hi) in enumerate(batch):
        base, extra = divmod(hi - lo, count)
        for s in range(count):
            size = base + ((s - c) % count < extra)
            if size:
                out[s].append((c, (block, lo, lo + size)))
                lo += size
    return out


def by_slabs(values, batch, dtypes) -> tuple[np.ndarray, ...]:
    """`values(batch)`, computed on the row slabs of the batch in turn.

    `values(chunks)` returns one array per entry of `dtypes`, each with one
    entry per row of `chunks`, chunk after chunk; each path's values must
    depend on its own increments only.  Each slab's values are copied to
    their rows, so the result is what one `values(batch)` call would give,
    while only one slab of increments is held at a time.  The result is
    allocated before the first slab is drawn: allocated after, it would sit
    among the freed slab temporaries and keep the next slab from reusing
    their memory.
    """
    if len(batch) == 1:
        return values(batch)
    spans = rows(batch)
    out = tuple(np.empty(spans[-1].stop, dtype) for dtype in dtypes)
    for slab in filter(None, slabs(batch)):
        # A call, so the slab's values are freed before the next slab.
        _place(out, values([chunk for _, chunk in slab]), slab, spans, batch)
    return out


def _place(out, parts, slab, spans, batch) -> None:
    at = 0
    for c, (_, lo, hi) in slab:
        row = spans[c].start + lo - batch[c][1]
        for whole, part in zip(out, parts):
            whole[row:row + hi - lo] = part[at:at + hi - lo]
        at += hi - lo


def rows(batch) -> list[slice]:
    """The slice of each chunk's rows in arrays stacked in chunk order."""
    out, at = [], 0
    for _, lo, hi in batch:
        out.append(slice(at, at + hi - lo))
        at += hi - lo
    return out


def fold(values, stream: Stream, start: int, stop: int, totals, *,
         threads: int, check=None) -> None:
    """Fold the values of paths [start, stop), drawn from `stream`, into
    `totals`, a sequence of `Moments`, on a `workers.team(threads)`.

    `values(increments, team)` maps the drawn increments of some rows (see
    `Stream.draw`) to one array per entry of `totals`, each with one value
    per row; each path's values must depend on its own increments only.
    `check(chunks, joined)`, if given, sees a batch's values joined in row
    order, and may raise.  Each chunk's `Moments` are merged into `totals`
    on the calling thread, one chunk at a time in block order, so no team
    changes a bit.

    The row length `stream.n` picks how the team is used.  Blocks of at
    most `_BATCH_NORMALS` normals go in batches of whole blocks holding at
    most that many; `team.size` batches run at once, each drawn, stepped and
    reduced to `Moments` on one worker, and `values` gets no team.  Longer
    rows take `team.size` blocks a batch, drawn in row slabs (`by_slabs`)
    whose streams the team fills at once, and stepped on the calling
    thread; `values` gets the team to split the correlation mix over.
    """
    per_batch = _BATCH_NORMALS // (BLOCK_WIDTH * stream.n)
    todo = chunks(start, stop)
    with workers.team(threads) as team:
        size = per_batch or (1 if team is None else team.size)
        batches = [todo[i:i + size] for i in range(0, len(todo), size)]

        def batch_moments(batch):
            if per_batch:
                joined = values(stream.draw(batch), None)
            else:
                # The increments are a call argument only, so each slab is
                # released before the next one is drawn.
                joined = by_slabs(lambda part: values(stream.draw(part, team), team),
                                  batch, [float] * len(totals))
            if check is not None:
                check(batch, joined)
            return [[Moments.of(v[r]) for v in joined] for r in rows(batch)]

        run = team.imap if team is not None and per_batch else map
        for items in run(batch_moments, batches):
            for item in items:
                for total, moments in zip(totals, item):
                    total.merge(moments)


@dataclass
class Moments:
    """Count, block-order sum and M2 (sum of squared deviations) of values.

    `Moments.of` takes one chunk, on any thread; `merge` folds chunks in
    block order with the pairwise update of Chan, Golub and LeVeque
    ("Algorithms for computing the sample variance", 1983).  The mean is the
    block-order sum over the count.  Each chunk's M2 is taken around its own
    mean, and means are kept relative to a chunk's first value (`shift`): a
    constant stream has M2 exactly 0, and values with a small spread far
    from zero keep their digits.
    """

    count: int = 0
    total: float = 0.0
    m2: float = 0.0
    shift: float = 0.0
    centre: float = 0.0  # the mean minus the shift

    @classmethod
    def of(cls, values: np.ndarray) -> "Moments":
        """The moments of one chunk of values."""
        total = float(np.add.reduce(values))  # np.sum without its wrapper
        shift = float(values[0])
        residuals = np.subtract(values, shift)
        centre = float(np.add.reduce(residuals)) / len(values)
        residuals -= centre
        m2 = float(np.add.reduce(np.square(residuals, out=residuals)))
        return cls(len(values), total, m2, shift, centre)

    def merge(self, other: "Moments") -> None:
        """Fold `other`, the moments of the values that follow these."""
        if self.count == 0:
            vars(self).update(vars(other))
            return
        delta = (other.shift - self.shift) + (other.centre - self.centre)
        count = self.count + other.count
        self.total += other.total
        self.m2 += other.m2 + delta * delta * (self.count * other.count / count)
        self.centre += delta * (other.count / count)
        self.count = count

    @property
    def mean(self) -> float:
        return self.total / self.count

    @property
    def var(self) -> float:
        """Population variance M2 / count."""
        return self.m2 / self.count
