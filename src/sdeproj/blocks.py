"""The one way the engines walk their paths, and the one moment accumulator.

Paths are cut into chunks (block, row_lo, row_hi), rows of one Brownian
block, and those into batches of whole blocks.  A batch is drawn, stepped
and reduced to one small item per chunk, so no block outlives it.  A batch
of long rows is drawn and stepped in row slabs instead (`by_slabs`): each
slab holds a share of every block's rows, at most one block's worth, and
its blocks' streams are filled at once on a worker team."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brownian import BLOCK_WIDTH, BrownianFabric

# Storage order of drawn increments: each time step is one contiguous column.
# A speed choice only; no value depends on it.
_LAYOUT = "F"


def chunks(start: int, stop: int) -> list[tuple[int, int, int]]:
    """(block, row_lo, row_hi) for paths [start, stop), block by block."""
    out = []
    while start < stop:
        block, row_lo = divmod(start, BLOCK_WIDTH)
        row_hi = min(BLOCK_WIDTH, row_lo + (stop - start))
        out.append((block, row_lo, row_hi))
        start += row_hi - row_lo
    return out


def increments(fabric: BrownianFabric, level: int, batch, n: int, h: float, *,
               factor: int = 0, team=None, cursors: dict | None = None) -> np.ndarray:
    """Brownian increments of the batch's rows, stacked in chunk order.

    Each chunk's rows are drawn straight into its rows of one column-major
    array by a cursor on its block's stream: the one in `cursors` (keyed by
    level, factor and block) if it stopped at the chunk's first row, else a
    new one advanced to that row.  A chunk that ends inside its block leaves
    its cursor in `cursors`, so the next chunk of the block continues the
    stream instead of drawing it again.  A `workers.Team` fills the chunks'
    streams at once, each on one thread.
    """
    scale = math.sqrt(h)
    spans = rows(batch)
    out = np.empty((spans[-1].stop, n), order=_LAYOUT)

    def fill(first: int, last: int) -> None:
        for (block, lo, hi), span in zip(batch[first:last], spans[first:last]):
            key = (level, factor, block)
            cursor = None if cursors is None else cursors.pop(key, None)
            if cursor is None or cursor.row != lo:
                cursor = fabric.block_cursor(level, block, n, factor=factor)
                if lo:
                    cursor.fill(None, lo)
            keep = cursors is not None and hi < BLOCK_WIDTH
            part = out[span]
            cursor.fill(part, keep=keep)
            part *= scale
            if keep:
                cursors[key] = cursor

    if team is None or len(batch) < 2:
        fill(0, len(batch))
    else:
        team.run_split(fill, len(batch))
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


def walk(step, start: int, stop: int, *, blocks: int = 1, team=None):
    """Yield, in block order, what `step` gives for each chunk of [start, stop).

    `step(batch)` gets the chunks of `blocks` whole blocks (at least one) and
    returns one item per chunk.  A `workers.Team` steps up to `team.size`
    batches at once; the items still arrive in block order.
    """
    todo = chunks(start, stop)
    size = max(1, blocks)
    batches = [todo[i:i + size] for i in range(0, len(todo), size)]
    for items in map(step, batches) if team is None else team.imap(step, batches):
        yield from items


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
